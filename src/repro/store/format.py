"""The ``.rcsr`` v1 on-disk binary CSR container.

Every run used to re-parse edge lists (or re-generate stand-ins) and
rebuild CSR from scratch — an ``O(m)`` cold start that caps benchmark
scale and makes a long-running eccentricity service's startup
unacceptable.  A ``.rcsr`` file stores the frozen CSR arrays exactly as
the in-memory layout wants them, so opening a graph is a header read
plus ``np.memmap`` views: no parse, no copy, no validation re-run over
the adjacency — and multiple processes opening the same file share
pages through the OS cache.

Byte layout (v1, little-endian)
-------------------------------
::

    offset   0   8s   magic  b"\\x93RCSR\\r\\n\\x00"
    offset   8   H    container version (1)
    offset  10   H    flags (bit 0: weights slot present)
    offset  12   B    kind code (1 graph, 2 weighted, 3 directed)
    offset  13   3x   pad
    offset  16   q    num_vertices
    offset  24   q    num_entries (len(indices) == len(rev_indices))
    offset  32   16s  content digest — the 16-hex-char SHA-256 prefix
                      from :func:`repro.obs.record.graph_fingerprint`
    offset  48   5 × (B dtype code, 7x pad, q offset, q length)
                      slot table, fixed order: indptr, indices,
                      weights, rev_indptr, rev_indices
    offset 168   pad to HEADER_SIZE (512)

Array payloads follow at 64-byte-aligned offsets (cache-line clean,
and page-aligned enough for the mmap path; the header itself is one
aligned block).  Unused slots carry dtype code 0.

Opening validates the header structurally — magic, version, kind and
dtype codes, offsets in bounds and aligned — and hands the mapped
arrays to :meth:`repro.graph.csr.CSR.trusted`, the store's zero-copy
path into the one CSR type, which checks each ``indptr`` (``O(n)``).
The ``O(m)`` checks run only when ``verify=True`` (or via
:func:`verify_store` / ``repro store verify``): the content digest,
and for a directed store that the in-CSR reverses the out-CSR, since
the digest covers only the out-CSR.

Versioning rules: readers reject any file whose ``version`` is newer
than :data:`STORE_VERSION`; additive changes (new slot, new flag bit)
bump the version and stay readable by tolerating unknown trailing slots
only if a future revision defines them — v1 readers are strict.
"""

from __future__ import annotations

import os
import struct
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.directed.graph import DirectedGraph
from repro.errors import GraphConstructionError, StoreFormatError
from repro.graph.csr import CSR, Graph
from repro.obs.record import graph_fingerprint
from repro.weighted.graph import WeightedGraph

__all__ = [
    "STORE_VERSION",
    "HEADER_SIZE",
    "MAGIC",
    "ALIGN",
    "SUFFIX",
    "StoreArray",
    "StoreInfo",
    "save_store",
    "read_info",
    "map_store_arrays",
    "graph_from_arrays",
    "open_store",
    "verify_store",
    "register_source",
    "source_of",
]

PathLike = Union[str, os.PathLike]

MAGIC = b"\x93RCSR\r\n\x00"
STORE_VERSION = 1
HEADER_SIZE = 512
#: Payload alignment in bytes (a cache line).
ALIGN = 64
#: Canonical file suffix for store containers.
SUFFIX = ".rcsr"

#: Bit 0 of ``flags``: the weights slot is populated.
FLAG_WEIGHTS = 0x1

_FIXED = struct.Struct("<8sHHB3xqq16s")
_SLOT = struct.Struct("<B7xqq")

#: Slot order is part of the v1 byte layout — never reorder.
_SLOT_KEYS = ("indptr", "indices", "weights", "rev_indptr", "rev_indices")

_KIND_CODES = {"graph": 1, "weighted": 2, "directed": 3}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}

_DTYPE_CODES = {"int64": 1, "int32": 2, "float64": 3}
_DTYPE_NAMES = {code: name for name, code in _DTYPE_CODES.items()}

#: Expected dtype per slot (Theorem 4.5's canonical CSR dtypes).
_SLOT_DTYPES = {
    "indptr": "int64",
    "indices": "int32",
    "weights": "float64",
    "rev_indptr": "int64",
    "rev_indices": "int32",
}


@dataclass(frozen=True)
class StoreArray:
    """Location of one CSR array inside a store file."""

    key: str
    dtype: str
    offset: int
    length: int

    @property
    def nbytes(self) -> int:
        """Payload size of this slot in bytes."""
        return self.length * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class StoreInfo:
    """Parsed header of one ``.rcsr`` container."""

    path: str
    kind: str
    version: int
    flags: int
    num_vertices: int
    num_entries: int
    digest: str
    arrays: Tuple[StoreArray, ...]

    def array(self, key: str) -> StoreArray:
        """The slot named ``key`` (raises when absent)."""
        for entry in self.arrays:
            if entry.key == key:
                return entry
        raise StoreFormatError(
            f"{self.path}: store has no {key!r} slot (kind={self.kind})"
        )

    @property
    def file_bytes(self) -> int:
        """Total container size implied by the slot table."""
        end = HEADER_SIZE
        for entry in self.arrays:
            end = max(end, entry.offset + entry.nbytes)
        return end


def _pad(nbytes: int) -> int:
    return (nbytes + ALIGN - 1) // ALIGN * ALIGN


def _slot_arrays(graph: Any) -> Tuple[str, Dict[str, np.ndarray]]:
    """The kind of ``graph`` and its storable CSR arrays by slot name,
    read off the ``out_csr`` / ``in_csr`` pair every graph kind exposes:
    a separate in-CSR makes it directed, weights make it weighted."""
    try:
        out, in_csr = graph.out_csr, graph.in_csr
    except AttributeError as exc:
        raise StoreFormatError(
            f"cannot store object of type {type(graph).__name__}; "
            "expected Graph, WeightedGraph, or DirectedGraph"
        ) from exc
    arrays = {"indptr": out.indptr, "indices": out.indices}
    if in_csr is not out:
        arrays.update(rev_indptr=in_csr.indptr, rev_indices=in_csr.indices)
        return "directed", arrays
    if out.weights is not None:
        arrays["weights"] = out.weights
        return "weighted", arrays
    return "graph", arrays


def save_store(graph: Any, path: PathLike) -> StoreInfo:
    """Write ``graph`` as a ``.rcsr`` v1 container at ``path``.

    Works on all three graph flavours (:class:`~repro.graph.csr.Graph`,
    ``WeightedGraph``, ``DirectedGraph``).  The write goes through a
    same-directory temporary file followed by an atomic rename, so a
    crashed save never leaves a half-written container behind.
    """
    kind, arrays = _slot_arrays(graph)
    slots: Dict[str, StoreArray] = {}
    offset = HEADER_SIZE
    for key in _SLOT_KEYS:
        if key not in arrays:
            continue
        # A CSR's arrays carry the canonical slot dtypes already.
        array = arrays[key]
        slots[key] = StoreArray(key, _SLOT_DTYPES[key], offset, len(array))
        offset += _pad(array.nbytes)

    digest = graph_fingerprint(graph)["digest"]
    flags = FLAG_WEIGHTS if "weights" in slots else 0
    header = bytearray(HEADER_SIZE)
    _FIXED.pack_into(
        header,
        0,
        MAGIC,
        STORE_VERSION,
        flags,
        _KIND_CODES[kind],
        int(graph.num_vertices),
        slots["indices"].length,
        digest.encode("ascii"),
    )
    cursor = _FIXED.size
    for key in _SLOT_KEYS:
        entry = slots.get(key)
        if entry is None:
            _SLOT.pack_into(header, cursor, 0, 0, 0)
        else:
            _SLOT.pack_into(
                header,
                cursor,
                _DTYPE_CODES[entry.dtype],
                entry.offset,
                entry.length,
            )
        cursor += _SLOT.size

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(bytes(header))
        position = HEADER_SIZE
        for key in _SLOT_KEYS:
            entry = slots.get(key)
            if entry is None:
                continue
            handle.write(b"\x00" * (entry.offset - position))
            handle.write(memoryview(arrays[key]))
            position = entry.offset + entry.nbytes
    os.replace(tmp, path)
    return StoreInfo(
        path=str(path),
        kind=kind,
        version=STORE_VERSION,
        flags=flags,
        num_vertices=int(graph.num_vertices),
        num_entries=slots["indices"].length,
        digest=digest,
        arrays=tuple(slots[key] for key in _SLOT_KEYS if key in slots),
    )


def read_info(path: PathLike) -> StoreInfo:
    """Parse and structurally validate the header of ``path``.

    Reads :data:`HEADER_SIZE` bytes — never the payload — and checks
    magic, version, kind/dtype codes, slot alignment, and that every
    slot lies inside the file.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise StoreFormatError(f"{path}: cannot read store: {exc}") from exc
    if len(raw) < HEADER_SIZE:
        raise StoreFormatError(
            f"{path}: truncated header ({len(raw)} < {HEADER_SIZE} bytes)"
        )
    magic, version, flags, kind_code, n, entries, digest_raw = (
        _FIXED.unpack_from(raw, 0)
    )
    if magic != MAGIC:
        raise StoreFormatError(
            f"{path}: not a .rcsr store (bad magic {magic!r})"
        )
    if version > STORE_VERSION:
        raise StoreFormatError(
            f"{path}: store version {version} is newer than this reader "
            f"(max {STORE_VERSION})"
        )
    if version < 1:
        raise StoreFormatError(f"{path}: invalid store version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise StoreFormatError(f"{path}: unknown kind code {kind_code}")
    if n < 0 or entries < 0:
        raise StoreFormatError(
            f"{path}: negative sizes in header (n={n}, entries={entries})"
        )
    try:
        digest = digest_raw.decode("ascii")
        int(digest, 16)
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreFormatError(
            f"{path}: corrupt fingerprint field {digest_raw!r}"
        ) from exc

    slots = []
    cursor = _FIXED.size
    for key in _SLOT_KEYS:
        dtype_code, offset, length = _SLOT.unpack_from(raw, cursor)
        cursor += _SLOT.size
        if dtype_code == 0:
            continue
        dtype = _DTYPE_NAMES.get(dtype_code)
        if dtype is None:
            raise StoreFormatError(
                f"{path}: slot {key}: unknown dtype code {dtype_code}"
            )
        if dtype != _SLOT_DTYPES[key]:
            raise StoreFormatError(
                f"{path}: slot {key}: dtype {dtype} does not match the "
                f"canonical {_SLOT_DTYPES[key]}"
            )
        entry = StoreArray(key=key, dtype=dtype, offset=offset, length=length)
        if offset < HEADER_SIZE or offset % ALIGN or length < 0:
            raise StoreFormatError(
                f"{path}: slot {key}: bad offset/length "
                f"({offset}, {length})"
            )
        if offset + entry.nbytes > size:
            raise StoreFormatError(
                f"{path}: slot {key}: payload extends past end of file "
                f"({offset} + {entry.nbytes} > {size})"
            )
        slots.append(entry)

    info = StoreInfo(
        path=str(path),
        kind=kind,
        version=version,
        flags=flags,
        num_vertices=n,
        num_entries=entries,
        digest=digest,
        arrays=tuple(slots),
    )
    _check_slot_shapes(info)
    return info


def _check_slot_shapes(info: StoreInfo) -> None:
    """Cross-check slot lengths against the header's n / num_entries."""
    present = {entry.key for entry in info.arrays}
    required = {
        "graph": {"indptr", "indices"},
        "weighted": {"indptr", "indices", "weights"},
        "directed": {"indptr", "indices", "rev_indptr", "rev_indices"},
    }[info.kind]
    if present != required:
        raise StoreFormatError(
            f"{info.path}: kind={info.kind} requires slots "
            f"{sorted(required)}, found {sorted(present)}"
        )
    for entry in info.arrays:
        if entry.key.endswith("indptr"):
            want = info.num_vertices + 1
        else:
            want = info.num_entries
        if entry.length != want:
            raise StoreFormatError(
                f"{info.path}: slot {entry.key} has length {entry.length}, "
                f"header implies {want}"
            )


def map_store_arrays(info: StoreInfo) -> Dict[str, np.ndarray]:
    """Read-only ``np.memmap`` views of every slot in ``info``.

    Each view maps its own aligned window of the file; the OS shares the
    backing pages between every process that opens the same store.  The
    mapping lives exactly as long as the returned arrays do.
    """
    views: Dict[str, np.ndarray] = {}
    for entry in info.arrays:
        views[entry.key] = np.memmap(
            info.path,
            dtype=np.dtype(entry.dtype),
            mode="r",
            offset=entry.offset,
            shape=(entry.length,),
        )
    return views


def graph_from_arrays(
    info: StoreInfo, views: Dict[str, np.ndarray]
) -> Any:
    """Assemble a graph over ``views`` without copying the CSR arrays.

    Each CSR comes from :meth:`repro.graph.csr.CSR.trusted`, which
    freezes the mapped views in place and checks only their row
    pointers (``O(n)``): the arrays were checked when the store was
    written, and re-checking them on every open would be ``O(m)``.  A
    directed store's in-CSR is trusted to reverse its out-CSR the same
    way; :func:`verify_store` checks both.  Derived ``degrees`` arrays
    are computed (``O(n)``) because v1 does not store them.

    The graph holds plain ``np.ndarray`` views of the mapped slots, not
    the ``np.memmap`` objects: the bytes are the same (each view keeps
    its memmap, and so the mapping, alive), but indexing a memmap runs
    Python-level ``__getitem__`` and ``__array_finalize__`` on every
    gather: a 1,000-element gather took 5.1 µs against 2.7 µs on a plain
    view (2-CPU x86 host).
    """
    views = {key: view.view(np.ndarray) for key, view in views.items()}
    try:
        out = CSR.trusted(
            views["indptr"], views["indices"], views.get("weights")
        )
        if info.kind == "graph":
            return Graph.from_csr(out)
        if info.kind == "weighted":
            return WeightedGraph.from_csr(out)
        in_csr = CSR.trusted(views["rev_indptr"], views["rev_indices"])
        return DirectedGraph._from_pair(out, in_csr)
    except GraphConstructionError as exc:
        raise StoreFormatError(f"{info.path}: {exc}") from exc


def _verify(info: StoreInfo, graph: Any) -> None:
    """The ``O(m)`` checks: the content digest, and that a directed
    store's in-CSR reverses its out-CSR (the digest covers only the
    out-CSR, and v1 keeps it that way)."""
    actual = graph_fingerprint(graph)["digest"]
    if actual != info.digest:
        raise StoreFormatError(
            f"{info.path}: content fingerprint mismatch "
            f"(header {info.digest}, payload {actual}); the store "
            "file is corrupt or was tampered with"
        )
    if info.kind == "directed" and not graph.out_csr.is_reverse_of(
        graph.in_csr
    ):
        raise StoreFormatError(
            f"{info.path}: rev_indptr/rev_indices are not the reverse of "
            "indptr/indices; the store file is corrupt"
        )


def open_store(path: PathLike, verify: bool = False) -> Any:
    """Open a ``.rcsr`` container as a read-only memmap-backed graph.

    The CSR arrays alias the mapped file — no copy is made (asserted by
    the test suite via ``np.shares_memory``).  ``verify=True``
    additionally runs :func:`verify_store`'s checks over the mapped
    arrays (``O(m)``; the default open trusts the fingerprint written
    at save time).

    The opened graph is registered with :func:`source_of`, so
    downstream layers (the CLI's run-record config) can rediscover the
    backing file.  The process-pool backend needs no such hint: its
    forked workers inherit the memory map itself and read the same
    page-cache pages, so no CSR byte is copied.
    """
    info = read_info(path)
    graph = graph_from_arrays(info, map_store_arrays(info))
    if verify:
        _verify(info, graph)
    register_source(graph, info)
    return graph


def verify_store(path: PathLike) -> StoreInfo:
    """Full integrity check: header validation, digest recompute and,
    for a directed store, that the in-CSR reverses the out-CSR.

    Raises :class:`~repro.errors.StoreFormatError` on any mismatch;
    returns the validated :class:`StoreInfo` on success.
    """
    info = read_info(path)
    _verify(info, graph_from_arrays(info, map_store_arrays(info)))
    return info


# ---------------------------------------------------------------------------
# Store-source registry
# ---------------------------------------------------------------------------
#: Weak per-graph map back to the container a graph was opened from;
#: mutate only through register_source / source_of (reprolint R10).
_SOURCES: "weakref.WeakKeyDictionary[Any, StoreInfo]" = (
    weakref.WeakKeyDictionary()
)
_SOURCES_LOCK = threading.Lock()


def register_source(graph: Any, info: StoreInfo) -> None:
    """Remember that ``graph`` is backed by the store file in ``info``.

    Graphs that cannot be weak-referenced are silently skipped — the
    registry is an optimisation hint, not a correctness requirement.
    """
    try:
        with _SOURCES_LOCK:
            _SOURCES[graph] = info
    except TypeError:  # pragma: no cover - non-weakrefable graph type
        pass


def source_of(graph: Any) -> Optional[StoreInfo]:
    """The :class:`StoreInfo` backing ``graph``, or ``None``.

    ``None`` means the graph was built in memory (or its store file
    association was never registered); callers fall back to copying
    paths.
    """
    with _SOURCES_LOCK:
        return _SOURCES.get(graph)
