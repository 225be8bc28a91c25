"""kBFS and Roditty–Williams estimates, pinned on the fixture graphs.

Both baselines score vertices by one nearest-source BFS
(:func:`repro.graph.traversal.multi_source_bfs`).  The values below
were recorded while that BFS still ran its own multi-source loop and
reported per-vertex owners; the estimates, ``num_bfs`` and the counter
``history`` must not move now that it is a seeded run of the one
:class:`repro.graph.engine.BFSEngine` level loop.  ``history`` and the
estimate arrays are pinned by a short SHA-256 digest of their JSON.
"""

import hashlib
import json

import pytest

from repro.baselines.kbfs import kbfs_eccentricities
from repro.baselines.rv_diameter import rv_estimate_diameter
from repro.counters import TraversalCounter

#: ``kbfs-<graph>-<k>-<seed>``: ``(num_bfs, digest of [eccentricities,
#: reference_nodes, history])``; ``rv-<graph>-<sample_size>-<seed>``:
#: ``(num_bfs, diameter, hitting_vertex, digest of history)``.
PINNED = {
    'kbfs-example-2-0': (3, 'cfc529f290c6e01e'),
    'kbfs-example-8-3': (9, 'c2568374b96205ce'),
    'rv-example-None-0': (9, 5, 7, '33321d516317af48'),
    'rv-example-3-5': (6, 5, 3, 'e8a92324bb431e9e'),
    'kbfs-social-2-0': (3, 'a2c79db4de4e1ab4'),
    'kbfs-social-8-3': (9, 'ebdc838a0ed26fe2'),
    'rv-social-None-0': (48, 17, 313, '420331f7ac5d66c6'),
    'rv-social-3-5': (6, 17, 313, '6eda29e71437ad18'),
    'kbfs-web-2-0': (3, 'b6c98264cce43968'),
    'kbfs-web-8-3': (9, '2287edcfcb6b23b9'),
    'rv-web-None-0': (43, 16, 263, 'd325e8739acce982'),
    'rv-web-3-5': (6, 16, 236, '1064fba29e078ab2'),
    'kbfs-lattice-2-0': (3, 'ef1ec832a1404062'),
    'kbfs-lattice-8-3': (9, '718f21268b3f6abb'),
    'rv-lattice-None-0': (31, 14, 14, 'c650dc7870cd658d'),
    'rv-lattice-3-5': (6, 12, 16, 'c2aa79b443bd0311'),
}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(PINNED))
def test_estimates_num_bfs_and_history_pinned(key, request):
    kind, name, size, seed = key.split("-")
    graph = request.getfixturevalue(f"{name}_graph")
    seed = int(seed)
    if kind == "kbfs":
        result = kbfs_eccentricities(graph, int(size), seed=seed)
        got = (
            result.num_bfs,
            digest(
                [
                    result.eccentricities.tolist(),
                    result.reference_nodes.tolist(),
                    result.counter.history,
                ]
            ),
        )
    else:
        counter = TraversalCounter()
        estimate = rv_estimate_diameter(
            graph,
            sample_size=None if size == "None" else int(size),
            seed=seed,
            counter=counter,
        )
        got = (
            estimate.num_bfs,
            estimate.diameter,
            estimate.hitting_vertex,
            digest(counter.history),
        )
    assert got == PINNED[key]
