"""Pruned Landmark Labeling: the all-pair-shortest-distance substrate of
the PLLECC baseline (Akiba et al., SIGMOD 2013)."""

from repro.pll.index import PLLIndex, build_pll_index
from repro.pll.ordering import (
    closeness_sketch_order,
    degree_order,
    get_order,
    random_order,
)

__all__ = [
    "PLLIndex",
    "build_pll_index",
    "degree_order",
    "random_order",
    "closeness_sketch_order",
    "get_order",
]
