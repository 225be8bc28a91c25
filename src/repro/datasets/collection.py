"""Materialized dataset collections over the binary graph store.

:func:`repro.datasets.loader.load_dataset` rebuilds a stand-in (core
generator + periphery + LCC extraction) on every cold process — an
``O(m log m)`` construction repeated identically by every benchmark
invocation and every pool worker.  A :class:`GraphCollection` pays that
cost **once**: the first open of a dataset materializes the stand-in
into a ``.rcsr`` container under the collection root, and every open
after that (in this process or any other) is an ``np.memmap`` of the
same file, sharing pages through the OS cache.

The collection root resolves, in order: an explicit ``root`` argument,
the ``$REPRO_STORE_DIR`` environment variable, then
``~/.cache/repro``.  Files are named ``<name>[_x<scale>].rcsr`` and are
written atomically (temp file + rename), so concurrent builders of the
same dataset race benignly — last writer wins with identical bytes
(stand-in generation is seeded and deterministic).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union

from repro.datasets.loader import build_standin, scaled_spec
from repro.datasets.registry import get_spec
from repro.graph.csr import Graph
from repro.store.format import (
    SUFFIX,
    StoreInfo,
    open_store,
    read_info,
    save_store,
)

__all__ = [
    "GraphCollection",
    "default_collection",
    "reset_default_collection",
    "default_store_root",
]

PathLike = Union[str, os.PathLike]


def default_store_root() -> Path:
    """The collection root used when none is given explicitly.

    ``$REPRO_STORE_DIR`` when set, else ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class GraphCollection:
    """A directory of materialized dataset stand-ins in ``.rcsr`` form."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self._root = Path(root) if root is not None else default_store_root()

    @property
    def root(self) -> Path:
        """The directory holding this collection's store files."""
        return self._root

    def path_for(self, name: str, scale: float = 1.0) -> Path:
        """The container path for dataset ``name`` at ``scale``.

        Validates the name against the registry, so a typo fails with
        ``DatasetNotFoundError`` instead of materializing junk.
        """
        get_spec(name)
        suffix = "" if scale == 1.0 else f"_x{scale:g}"
        return self._root / f"{name.lower()}{suffix}{SUFFIX}"

    def materialize(
        self, name: str, scale: float = 1.0, force: bool = False
    ) -> StoreInfo:
        """Build dataset ``name`` into the collection (idempotent).

        Returns the existing container's header when the file is already
        present (unless ``force``); otherwise generates the stand-in and
        writes it atomically.
        """
        path = self.path_for(name, scale)
        if path.exists() and not force:
            return read_info(path)
        spec = scaled_spec(get_spec(name), scale)
        graph = build_standin(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        return save_store(graph, path)

    def open(self, name: str, scale: float = 1.0) -> Graph:
        """Open dataset ``name`` as a memmap-backed graph.

        Materializes on first use; every later call maps the existing
        file without rebuilding or copying the CSR arrays.
        """
        path = self.path_for(name, scale)
        if not path.exists():
            self.materialize(name, scale)
        graph: Graph = open_store(path)
        return graph

    def info(self, name: str) -> Optional[StoreInfo]:
        """Header of the full-size container, or ``None`` if absent."""
        path = self.path_for(name)
        if not path.exists():
            return None
        return read_info(path)

    def names(self) -> List[str]:
        """Basenames of every container currently materialized."""
        if not self._root.is_dir():
            return []
        return sorted(
            entry.stem for entry in self._root.glob(f"*{SUFFIX}")
        )

    def __repr__(self) -> str:
        return f"GraphCollection(root={str(self._root)!r})"


#: Process-wide default collection, lazily bound to the current
#: environment; mutate only through default_collection /
#: reset_default_collection (reprolint R10).
_DEFAULT_COLLECTION: List[Optional[GraphCollection]] = [None]


def default_collection() -> GraphCollection:
    """The shared process-wide collection.

    Re-resolves the root from the environment whenever the cached
    instance's root no longer matches (tests point ``REPRO_STORE_DIR``
    at tmp dirs), so the default always honours the current env.
    """
    current = _DEFAULT_COLLECTION[0]
    root = default_store_root()
    if current is None or current.root != root:
        current = GraphCollection(root)
        _DEFAULT_COLLECTION[0] = current
    return current


def reset_default_collection() -> None:
    """Drop the cached default collection (tests use this)."""
    _DEFAULT_COLLECTION[0] = None
