"""Every entry that takes an array of vertex ids checks it the same way:
a 1-D ``int64`` array, or ``InvalidVertexError`` naming the first id out
of range (``repro.graph.engine.as_vertex_ids``)."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError, InvalidVertexError
from repro.graph import batch
from repro.graph.engine import BFSEngine
from repro.graph.generators import path_graph
from repro.graph.msengine import MSBFSEngine

GRAPH = path_graph(5)

#: name -> call(ids); each takes the ids as its one array argument.
ENTRIES = {
    "engine-nearest-source": lambda ids: BFSEngine(GRAPH).run(ids),
    "run_batch": lambda ids: MSBFSEngine(GRAPH).run_batch(ids),
    "ecc_batch": lambda ids: MSBFSEngine(GRAPH).ecc_batch(ids),
    "column_batch-sources": lambda ids: MSBFSEngine(GRAPH).column_batch(
        ids, [0, 2]
    ),
    "column_batch-targets": lambda ids: MSBFSEngine(GRAPH).column_batch(
        [0], ids
    ),
    "batch.ecc_batch": lambda ids: batch.ecc_batch(GRAPH, ids),
    "batch.distance_rows": lambda ids: batch.distance_rows(GRAPH, ids),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize(
    # Strictly increasing, as column_batch's targets must be.
    "ids, first_bad",
    [([1, 3, 5, 6], 5), ([-2, 1, 7], -2), ([0, 1, 2, 3, 9], 9)],
)
def test_names_first_bad_id(entry, ids, first_bad):
    with pytest.raises(InvalidVertexError) as info:
        ENTRIES[entry](ids)
    assert info.value.vertex == first_bad
    assert info.value.num_vertices == GRAPH.num_vertices


@pytest.mark.parametrize(
    "entry", sorted(set(ENTRIES) - {"engine-nearest-source"})
)
def test_rejects_two_dimensional(entry):
    with pytest.raises(InvalidParameterError, match="one-dimensional"):
        ENTRIES[entry]([[0, 1], [2, 3]])


def test_nearest_source_flattens():
    engine = BFSEngine(GRAPH)
    flat = engine.run([0, 4]).copy()
    np.testing.assert_array_equal(engine.run([[0], [4]]), flat)
