"""Connected-component utilities.

The paper assumes a connected input graph (footnote 2) and notes the
extension to disconnected graphs is immediate: run per component.  This
module supplies the pieces: component labelling, largest-component
extraction (with the id remapping needed to stay in CSR form), and a helper
that splits a graph into its component subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graph.csr import CSR, Graph
from repro.graph.engine import distinct_ids, gather_csr_arcs

__all__ = [
    "ComponentLabels",
    "connected_components",
    "largest_connected_component",
    "split_components",
]


@dataclass(frozen=True)
class ComponentLabels:
    """Result of a component labelling pass.

    Attributes
    ----------
    labels:
        ``int32`` array; ``labels[v]`` is the component id of ``v``
        (ids are dense, assigned in order of discovery).
    sizes:
        ``sizes[c]`` is the number of vertices in component ``c``.
    """

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def num_components(self) -> int:
        return len(self.sizes)

    def largest(self) -> int:
        """Id of the largest component (ties: smallest id)."""
        return int(np.argmax(self.sizes))


def connected_components(graph: Graph) -> ComponentLabels:
    """Label the connected components of ``graph`` in ``O(n + m)``.

    Every vertex without an edge is its own component, labelled in
    bulk; every other component is swept once from its smallest vertex,
    writing that vertex into one shared array.  Dense ids then follow
    the order of each component's smallest vertex.

    :dtype root: int64
    :dtype slot: int64
    :dtype labels: int32
    """
    n = graph.num_vertices
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    ids = np.arange(n, dtype=np.int64)
    # root[v]: the smallest vertex of v's component, -1 until reached.
    root = np.where(degrees == 0, ids, -1)
    # Scratch for de-duplicating a level's fresh vertices in O(level).
    slot = np.empty(n, dtype=np.int64)
    for seed in np.flatnonzero(degrees).tolist():
        if root[seed] != -1:
            continue
        root[seed] = seed
        frontier = ids[seed: seed + 1]
        while frontier.size:
            arcs, _starts = gather_csr_arcs(
                indptr, indices, frontier, degrees[frontier]
            )
            fresh = distinct_ids(arcs[root[arcs] == -1], slot)
            root[fresh] = seed
            frontier = fresh
    dense = np.cumsum(root == ids) - 1
    labels = dense[root].astype(np.int32)
    # Every dense id labels its own root, so no count is ever missing.
    sizes = np.bincount(labels).astype(np.int64)
    return ComponentLabels(labels=labels, sizes=sizes)


def largest_connected_component(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """Extract the largest component.

    Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
    vertex id in ``graph`` of the subgraph's vertex ``i``.  A connected
    ``graph`` is its own largest component and comes back as it is.
    """
    labelling = connected_components(graph)
    target = labelling.largest() if labelling.num_components else 0
    keep = np.flatnonzero(labelling.labels == target)
    return _induced_subgraph(graph, keep), keep


def split_components(graph: Graph) -> List[Tuple[Graph, np.ndarray]]:
    """Split into per-component subgraphs, largest first.

    Each entry is ``(subgraph, original_ids)`` as in
    :func:`largest_connected_component`.
    """
    labelling = connected_components(graph)
    order = np.argsort(-labelling.sizes, kind="stable")
    out: List[Tuple[Graph, np.ndarray]] = []
    for component in order:
        keep = np.flatnonzero(labelling.labels == component)
        out.append((_induced_subgraph(graph, keep), keep))
    return out


def _induced_subgraph(graph: Graph, keep: np.ndarray) -> Graph:
    """Induced subgraph on vertex set ``keep`` with ids remapped to
    ``[0, len(keep))`` preserving the order of ``keep``.

    ``keep`` is ascending and distinct, so when it holds every vertex
    the subgraph is ``graph`` itself, returned without a rebuild.
    """
    if len(keep) == graph.num_vertices:
        return graph
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep), dtype=np.int64)
    counts = graph.degrees[keep]
    new_src = np.repeat(remap[keep], counts)
    # Gather all neighbor slices of kept vertices in one indexing pass.
    old_dst, _ = gather_csr_arcs(graph.indptr, graph.indices, keep, counts)
    new_dst = remap[old_dst]
    inside = new_dst != -1  # neighbors outside the component are dropped
    return Graph.from_csr(
        CSR.from_arcs(len(keep), new_src[inside], new_dst[inside])
    )
