"""Shared fixtures for the test suite.

Also puts the ``tests/`` directory on ``sys.path`` so test modules can
``from helpers import random_connected_graph`` regardless of which
subdirectory they live in.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro import sanitize
from repro.graph.components import largest_connected_component
from repro.graph.csr import Graph
from repro.graph.generators import (
    attach_handles,
    barabasi_albert,
    copying_model,
    paper_example_graph,
    watts_strogatz,
)

from helpers import exact_eccentricities


@pytest.fixture
def sanitizer():
    """Arm the runtime workspace sanitizer for one test.

    Workspaces (engines, lane bitmaps, CSR arrays) must be constructed
    *inside* the test for the guards to attach — pooled objects cached
    before arming stay unguarded.  Equivalent to running the whole
    session with ``REPRO_SANITIZE=1``.
    """
    with sanitize.sanitized():
        yield


@pytest.fixture(scope="session")
def example_graph() -> Graph:
    """The paper's 13-node running example (Figure 1)."""
    return paper_example_graph()


@pytest.fixture(scope="session")
def example_eccentricities(example_graph) -> np.ndarray:
    return exact_eccentricities(example_graph)


@pytest.fixture(scope="session")
def social_graph() -> Graph:
    """A small-world social-network stand-in with a periphery."""
    core = barabasi_albert(250, 3, seed=42)
    graph = attach_handles(core, 8, 14, seed=43)
    graph, _ids = largest_connected_component(graph)
    return graph


@pytest.fixture(scope="session")
def social_truth(social_graph) -> np.ndarray:
    return exact_eccentricities(social_graph)


@pytest.fixture(scope="session")
def web_graph() -> Graph:
    """A web-crawl stand-in (copying model + tendrils)."""
    core = copying_model(220, out_degree=3, copy_probability=0.6, seed=7)
    graph = attach_handles(core, 6, 12, seed=8)
    graph, _ids = largest_connected_component(graph)
    return graph


@pytest.fixture(scope="session")
def web_truth(web_graph) -> np.ndarray:
    return exact_eccentricities(web_graph)


@pytest.fixture(scope="session")
def lattice_graph() -> Graph:
    """A rewired lattice (contact-network stand-in)."""
    graph = watts_strogatz(150, 4, 0.05, seed=11)
    graph, _ids = largest_connected_component(graph)
    return graph


@pytest.fixture(scope="session")
def lattice_truth(lattice_graph) -> np.ndarray:
    return exact_eccentricities(lattice_graph)
