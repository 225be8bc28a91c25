"""Materialise dataset stand-ins from their registry recipes.

:func:`load_dataset` builds (or returns from cache) the synthetic
stand-in graph for a Table 3 dataset: generate the family core's edges,
graft the periphery tendrils onto them, assemble the CSR once and keep
the largest connected component.  Graphs are
cached in-process — the benchmark suite touches each dataset many times;
the on-disk cache is the collection's ``.rcsr`` store
(:mod:`repro.datasets.collection`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.datasets.registry import DatasetSpec, get_spec
from repro.graph.components import largest_connected_component
from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert_edges, copying_model_edges

__all__ = ["load_dataset", "build_standin", "scaled_spec", "clear_cache"]

_CACHE: Dict[str, Graph] = {}


def scaled_spec(spec: DatasetSpec, scale: float) -> DatasetSpec:
    """A copy of ``spec`` with the stand-in size scaled by ``scale``.

    Used for quick experiments and the scalability sweeps; the periphery
    grows proportionally so the structural ratios are preserved.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale == 1.0:
        return spec
    return dataclasses.replace(
        spec,
        standin_n=max(64, int(spec.standin_n * scale)),
        periphery_size=max(4, int(spec.periphery_size * scale)),
    )


def build_standin(spec: DatasetSpec) -> Graph:
    """Build the stand-in graph for ``spec`` (no caching).

    One edge list, one assembly: the family core hands over its edges,
    the periphery is grafted onto them (handles, or the deep trap then
    the branches, each choosing anchors from degrees kept current by
    arithmetic), and the CSR is assembled once.  The largest component
    is extracted only when that graph is disconnected.
    """
    if spec.family == "ba":
        edges = barabasi_albert_edges(spec.standin_n, spec.attach, spec.seed)
    elif spec.family == "copy":
        edges = copying_model_edges(
            spec.standin_n,
            out_degree=spec.attach,
            copy_probability=0.65,
            seed=spec.seed,
        )
    else:  # pragma: no cover - registry enforces the family names
        raise ValueError(f"unknown generator family {spec.family!r}")
    if spec.periphery == "handles":
        edges.graft_handles(
            spec.periphery_size, spec.periphery_depth, seed=spec.seed + 7
        )
    else:
        edges.graft_deep_trap(spec.periphery_depth, branch_length=4)
        edges.graft_branches(
            spec.periphery_size,
            max(3, spec.periphery_depth // 2),
            seed=spec.seed + 7,
            max_anchor_id=spec.standin_n,
        )
    graph, _ids = largest_connected_component(edges.graph())
    return graph


def load_dataset(name: str, scale: float = 1.0) -> Graph:
    """Load a dataset stand-in by its Table 3 short name.

    Parameters
    ----------
    name:
        Registry name (``"DBLP"``, ``"TWIT"``, ...).
    scale:
        Stand-in size multiplier (1.0 = the registry recipe); scaled
        variants are cached separately.
    """
    key = name if scale == 1.0 else f"{name}@{scale:g}"
    if key in _CACHE:
        return _CACHE[key]
    graph = build_standin(scaled_spec(get_spec(name), scale))
    _CACHE[key] = graph
    return graph


def clear_cache() -> None:
    """Drop the in-process graph cache (tests use this)."""
    _CACHE.clear()
