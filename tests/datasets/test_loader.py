"""Unit tests for the dataset stand-in loader."""

import numpy as np
import pytest

from repro.datasets.loader import build_standin, clear_cache, load_dataset
from repro.datasets.registry import get_spec
from repro.errors import DatasetNotFoundError

from helpers import is_connected


class TestBuildStandin:
    def test_connected(self):
        g = build_standin(get_spec("DBLP"))
        assert is_connected(g)

    def test_size_near_target(self):
        spec = get_spec("DBLP")
        g = build_standin(spec)
        # the periphery adds vertices, the LCC extraction may shave a few
        assert 0.9 * spec.standin_n <= g.num_vertices <= 1.6 * spec.standin_n

    def test_deterministic(self):
        spec = get_spec("GP")
        assert build_standin(spec) == build_standin(spec)

    def test_heavy_tailed_core(self):
        # Both families must produce hubby, heavy-tailed cores.
        import numpy as np

        for name in ("DBLP", "STAC", "HUDO"):
            g = build_standin(get_spec(name))
            assert g.degrees.max() >= 5 * np.median(g.degrees), name

    def test_small_world_shape(self):
        # stand-ins must show the core-periphery property the paper's
        # analysis depends on: small |F2| relative to n.
        from repro.analysis.stats import farthest_set_statistics

        stats = farthest_set_statistics(build_standin(get_spec("HUDO")))
        assert stats.f2_fraction < 0.2


class TestLoadDataset:
    def test_cached_identity(self):
        clear_cache()
        a = load_dataset("DBLP")
        b = load_dataset("DBLP")
        assert a is b

    def test_unknown_name(self):
        with pytest.raises(DatasetNotFoundError):
            load_dataset("MISSING")

    def test_clear_cache(self):
        a = load_dataset("DBLP")
        clear_cache()
        b = load_dataset("DBLP")
        assert a is not b
        assert a == b


class TestScaledLoading:
    def test_scale_changes_size(self):
        from repro.datasets.loader import load_dataset

        clear_cache()
        full = load_dataset("DBLP")
        half = load_dataset("DBLP", scale=0.5)
        assert half.num_vertices < full.num_vertices
        assert half.num_vertices > 0.3 * full.num_vertices

    def test_scaled_variants_cached_separately(self):
        from repro.datasets.loader import load_dataset

        clear_cache()
        a = load_dataset("GP", scale=0.5)
        b = load_dataset("GP")
        c = load_dataset("GP", scale=0.5)
        assert a is c
        assert a is not b

    def test_scaled_spec_preserves_structure(self):
        from repro.analysis.stats import farthest_set_statistics
        from repro.datasets.loader import build_standin, scaled_spec

        spec = scaled_spec(get_spec("HUDO"), 0.5)
        g = build_standin(spec)
        assert farthest_set_statistics(g).f2_fraction < 0.2

    def test_invalid_scale(self):
        from repro.datasets.loader import scaled_spec

        with pytest.raises(ValueError):
            scaled_spec(get_spec("DBLP"), 0.0)
