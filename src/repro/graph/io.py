"""Graph serialization: edge-list and METIS text files.

The paper's datasets ship as edge lists (SNAP / KONECT / LAW formats all
reduce to "one edge per line, optional comment lines").  We read that
format and METIS adjacency files; the binary on-disk form of a graph is
the ``.rcsr`` store (:mod:`repro.store`).
"""

from __future__ import annotations

import io
import os
from itertools import chain, islice
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "parse_edge_lines",
]

PathLike = Union[str, os.PathLike]

#: Characters that begin a comment line in SNAP/KONECT edge lists.
_COMMENT_PREFIXES = ("#", "%", "//")

#: Edges parsed per builder call: the parser's scratch stays this size
#: however long the file is.
_EDGE_CHUNK = 1 << 16


def parse_edge_lines(lines: Iterable[str]) -> Iterator[Tuple[int, int]]:
    """Parse ``(u, v)`` pairs from text lines.

    Comment lines (``#``, ``%``, ``//``) and blank lines are skipped.
    Separators may be spaces, tabs, or commas.  Extra columns (weights,
    timestamps — KONECT files carry them) are ignored.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise GraphConstructionError(
                f"line {lineno}: expected at least two columns, got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphConstructionError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from exc
        yield u, v


def read_edge_list(
    path_or_file: Union[PathLike, io.TextIOBase],
    num_vertices: int | None = None,
) -> Graph:
    """Read a graph from an edge-list file or open text handle.

    Vertex ids must be non-negative integers; they are used as-is (no
    relabelling), so files with sparse id spaces produce isolated vertices.
    """
    builder = GraphBuilder(num_vertices=num_vertices)
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, "r", encoding="utf-8") as handle:
            _add_edge_lines(builder, handle)
    else:
        _add_edge_lines(builder, path_or_file)
    return builder.build()


def _add_edge_lines(builder: GraphBuilder, lines: Iterable[str]) -> None:
    """Feed ``lines`` to ``builder`` as ``int64`` arrays, a chunk at a time.

    :dtype ids: int64
    """
    pairs = parse_edge_lines(lines)
    while True:
        ids = np.fromiter(
            chain.from_iterable(islice(pairs, _EDGE_CHUNK)), dtype=np.int64
        )
        if len(ids) == 0:
            return
        builder.add_edge_arrays(ids[0::2], ids[1::2])


def write_edge_list(graph: Graph, path: PathLike, header: str = "") -> None:
    """Write each undirected edge once as ``u v`` lines."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_metis(path: PathLike) -> Graph:
    """Read a graph in METIS format.

    METIS files start with a header line ``n m [fmt]`` followed by one
    line per vertex listing its (1-based) neighbors.  Comment lines
    start with ``%``.  Only the plain unweighted format (``fmt`` absent
    or ``0``) is supported.
    """
    builder: GraphBuilder | None = None
    header: Tuple[int, int] | None = None
    vertex = 0
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line.startswith("%"):
                continue
            # Inside the vertex block a blank line is an isolated vertex.
            if not line and (header is None or vertex >= header[0]):
                continue
            if builder is None or header is None:
                parts = line.split()
                if len(parts) < 2:
                    raise GraphConstructionError(
                        "METIS header must be 'n m [fmt]'"
                    )
                if len(parts) >= 3 and parts[2] not in ("0", "00", "000"):
                    raise GraphConstructionError(
                        f"unsupported METIS format code {parts[2]!r} "
                        "(only unweighted graphs)"
                    )
                header = (int(parts[0]), int(parts[1]))
                # Fixing the vertex universe up front means out-of-range
                # neighbor ids fail at the offending line and isolated
                # tail vertices survive without a second build pass.
                builder = GraphBuilder(num_vertices=header[0])
                continue
            if vertex >= header[0]:
                raise GraphConstructionError(
                    f"{path}: vertex lines exceed declared n={header[0]}"
                )
            # One builder call per vertex line; METIS ids are 1-based.
            tokens = line.split()
            neighbors = np.array([int(t) for t in tokens], dtype=np.int64) - 1
            bad = neighbors[neighbors < 0]
            if len(bad):
                raise GraphConstructionError(
                    f"vertex line {vertex + 1}: bad neighbor {int(bad[0]) + 1}"
                )
            builder.add_edge_arrays(
                np.full(len(neighbors), vertex, dtype=np.int64), neighbors
            )
            vertex += 1
    if header is None or builder is None:
        raise GraphConstructionError(f"{path}: empty METIS file")
    n, m = header
    out = builder.build()
    if out.num_edges != m:
        raise GraphConstructionError(
            f"{path}: found {out.num_edges} edges, header declares {m}"
        )
    return out


def write_metis(graph: Graph, path: PathLike, comment: str = "") -> None:
    """Write a graph in METIS format (1-based adjacency lines)."""
    with open(path, "w", encoding="utf-8") as handle:
        if comment:
            for line in comment.splitlines():
                handle.write(f"% {line}\n")
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            handle.write(
                " ".join(str(u + 1) for u in graph.neighbors(v)) + "\n"
            )
