"""Rule modules.  Importing this package registers every rule."""

from reprolint.rules import (  # noqa: F401  (registration side effects)
    adhoc_timing,
    bounds_api,
    csr_immutable,
    dtype_contracts,
    hot_path_loops,
    import_hygiene,
    mutation_contract,
    public_api,
    shared_state,
    typing_gate,
    unused_import,
    workspace_escape,
)

__all__ = [
    "adhoc_timing",
    "bounds_api",
    "csr_immutable",
    "dtype_contracts",
    "hot_path_loops",
    "import_hygiene",
    "mutation_contract",
    "public_api",
    "shared_state",
    "typing_gate",
    "unused_import",
    "workspace_escape",
]
