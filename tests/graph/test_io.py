"""Unit tests for edge-list, METIS and npz graph I/O.

The ``.npz`` dump is not part of ``repro``: ``save_npz``/``load_npz``
live in ``benchmarks/bench_graph_store.py``, whose npz rung is their
only reader, and are tested here.
"""

import io

import pytest

from repro.errors import GraphConstructionError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import Graph
from repro.graph.generators import barabasi_albert, grid_graph
from repro.graph.io import parse_edge_lines, read_edge_list, write_edge_list

from helpers import bench_module

_store_bench = bench_module("bench_graph_store")
save_npz, load_npz = _store_bench.save_npz, _store_bench.load_npz


class TestParseEdgeLines:
    def test_basic(self):
        assert list(parse_edge_lines(["0 1", "1 2"])) == [(0, 1), (1, 2)]

    def test_comments_skipped(self):
        lines = ["# snap header", "% konect", "// other", "0 1"]
        assert list(parse_edge_lines(lines)) == [(0, 1)]

    def test_blank_lines_skipped(self):
        assert list(parse_edge_lines(["", "  ", "0 1"])) == [(0, 1)]

    def test_tabs_and_commas(self):
        assert list(parse_edge_lines(["0\t1", "2,3"])) == [(0, 1), (2, 3)]

    def test_extra_columns_ignored(self):
        assert list(parse_edge_lines(["0 1 42 2019"])) == [(0, 1)]

    def test_single_column_rejected(self):
        with pytest.raises(GraphConstructionError):
            list(parse_edge_lines(["7"]))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphConstructionError):
            list(parse_edge_lines(["a b"]))


class TestEdgeListRoundTrip:
    def test_write_then_read(self, tmp_path):
        g = grid_graph(3, 4)
        path = tmp_path / "grid.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_header_written_as_comment(self, tmp_path):
        g = Graph.from_edges([(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header="generated\nby test")
        text = path.read_text()
        assert text.startswith("# generated\n# by test\n")
        assert read_edge_list(path) == g

    def test_read_from_handle(self):
        handle = io.StringIO("0 1\n1 2\n")
        g = read_edge_list(handle)
        assert g.num_edges == 2

    def test_fixed_num_vertices(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=5)
        assert g.num_vertices == 5

    def test_large_graph_round_trip(self, tmp_path):
        # 400k edges: the file is read in several parse chunks.
        g = barabasi_albert(50000, 8)
        path = tmp_path / "ba.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_bad_line_deep_in_file_names_its_line(self, tmp_path):
        # Past the first parse chunks, after a comment line.
        lines = ["# header"] + [f"{i} {i + 1}" for i in range(200_000)]
        lines.append("17 x")
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphConstructionError, match="line 200002:"):
            read_edge_list(path)


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path):
        g = grid_graph(4, 4)
        path = tmp_path / "g.npz"
        save_npz(g, path)
        assert load_npz(path) == g

    def test_bad_archive_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(GraphConstructionError):
            load_npz(path)


class TestNpzHardening:
    """load_npz validates the archive instead of trusting it."""

    def _write(self, tmp_path, indptr, indices):
        import numpy as np

        path = tmp_path / "g.npz"
        np.savez(path, indptr=np.asarray(indptr), indices=np.asarray(indices))
        return path

    def test_float_dtype_rejected(self, tmp_path):
        path = self._write(tmp_path, [0.0, 1.0, 2.0], [1, 0])
        with pytest.raises(GraphConstructionError, match="dtype"):
            load_npz(path)

    def test_non_monotone_indptr_rejected(self, tmp_path):
        path = self._write(tmp_path, [0, 2, 1, 2], [1, 0])
        with pytest.raises(GraphConstructionError, match="monoton"):
            load_npz(path)

    def test_indptr_must_start_at_zero(self, tmp_path):
        path = self._write(tmp_path, [1, 2, 3], [1, 0])
        with pytest.raises(GraphConstructionError, match="indptr"):
            load_npz(path)

    def test_indptr_end_must_match_indices_length(self, tmp_path):
        path = self._write(tmp_path, [0, 1, 5], [1, 0])
        with pytest.raises(GraphConstructionError, match="indices"):
            load_npz(path)

    def test_out_of_range_indices_rejected(self, tmp_path):
        path = self._write(tmp_path, [0, 1, 2], [1, 7])
        with pytest.raises(GraphConstructionError, match="range"):
            load_npz(path)

    def test_negative_indices_rejected(self, tmp_path):
        path = self._write(tmp_path, [0, 1, 2], [1, -1])
        with pytest.raises(GraphConstructionError, match="range"):
            load_npz(path)

    def test_two_dimensional_arrays_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "g.npz"
        np.savez(
            path,
            indptr=np.zeros((2, 2), dtype=np.int64),
            indices=np.zeros(0, dtype=np.int32),
        )
        with pytest.raises(GraphConstructionError, match="one-dimensional"):
            load_npz(path)

    def test_error_message_names_the_file(self, tmp_path):
        path = self._write(tmp_path, [0, 2, 1, 2], [1, 0])
        with pytest.raises(GraphConstructionError, match=path.name):
            load_npz(path)


class TestMetis:
    def test_round_trip(self, tmp_path):
        from repro.graph.io import read_metis, write_metis

        g = grid_graph(4, 3)
        path = tmp_path / "g.metis"
        write_metis(g, path, comment="grid 4x3")
        assert read_metis(path) == g

    def test_header_and_ids_one_based(self, tmp_path):
        from repro.graph.io import write_metis

        g = Graph.from_edges([(0, 1), (1, 2)])
        path = tmp_path / "g.metis"
        write_metis(g, path)
        lines = [
            l for l in path.read_text().splitlines() if not l.startswith("%")
        ]
        assert lines[0] == "3 2"
        assert lines[1] == "2"        # neighbors of vertex 1: vertex 2
        assert lines[2] == "1 3"

    def test_comments_skipped(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "g.metis"
        path.write_text("% a comment\n3 2\n2\n1 3\n2\n")
        g = read_metis(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_isolated_tail_vertices(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "g.metis"
        path.write_text("4 1\n2\n1\n\n\n")
        g = read_metis(path)
        assert g.num_vertices == 4
        assert g.degree(3) == 0

    def test_isolated_middle_vertex_round_trips(self, tmp_path):
        from repro.graph.io import read_metis, write_metis

        b = GraphBuilder(num_vertices=4)
        b.add_edges([(0, 2), (2, 3)])
        g = b.build()
        path = tmp_path / "g.metis"
        write_metis(g, path)
        assert read_metis(path) == g

    def test_bad_neighbor_rejected(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "b.metis"
        path.write_text("2 1\n2\n1 0\n")
        with pytest.raises(GraphConstructionError, match="bad neighbor 0"):
            read_metis(path)

    def test_bad_header(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "bad.metis"
        path.write_text("3\n")
        with pytest.raises(GraphConstructionError):
            read_metis(path)

    def test_weighted_format_rejected(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "w.metis"
        path.write_text("2 1 011\n2 5\n1 5\n")
        with pytest.raises(GraphConstructionError):
            read_metis(path)

    def test_edge_count_mismatch(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "m.metis"
        path.write_text("3 5\n2\n1 3\n2\n")
        with pytest.raises(GraphConstructionError):
            read_metis(path)

    def test_empty_file(self, tmp_path):
        from repro.graph.io import read_metis

        path = tmp_path / "e.metis"
        path.write_text("")
        with pytest.raises(GraphConstructionError):
            read_metis(path)
