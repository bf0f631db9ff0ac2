"""Tests for the synthetic dataset generators (§6.1 surrogates)."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.workloads.datasets import (
    DATASETS,
    books_like,
    fb_like,
    load_dataset,
    normal,
    osm_like,
    uniform,
)


@pytest.mark.parametrize("name", sorted(DATASETS))
class TestCommonProperties:
    def test_sorted_unique_in_universe(self, name):
        keys = load_dataset(name, 2000, universe=2**48, seed=1)
        assert keys.dtype == np.uint64
        assert keys.size > 0
        assert bool((np.diff(keys.astype(np.int64)) > 0).all())
        assert int(keys.max()) < 2**48

    def test_deterministic(self, name):
        a = load_dataset(name, 500, universe=2**40, seed=7)
        b = load_dataset(name, 500, universe=2**40, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self, name):
        a = load_dataset(name, 500, universe=2**40, seed=1)
        b = load_dataset(name, 500, universe=2**40, seed=2)
        assert not np.array_equal(a, b)

    def test_requested_count_close(self, name):
        keys = load_dataset(name, 3000, universe=2**60, seed=3)
        assert 0.9 * 3000 <= keys.size <= 3000


class TestValidation:
    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            load_dataset("nope", 10)

    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            uniform(0)

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_universe_beyond_u64(self, name):
        with pytest.raises(InvalidParameterError):
            load_dataset(name, 10, universe=2**64 + 1)

    def test_n_exceeds_universe(self):
        with pytest.raises(InvalidParameterError):
            uniform(100, universe=10)

    def test_exact_count_for_uniform(self):
        assert uniform(1234, universe=2**40, seed=0).size == 1234


class TestDistributionShapes:
    def test_books_has_heavy_tail_gaps(self):
        keys = books_like(5000, universe=2**50, seed=0).astype(np.float64)
        gaps = np.diff(keys)
        # Heavy tail: the max gap dwarfs the median gap.
        assert gaps.max() > 50 * np.median(gaps)

    def test_osm_is_clustered(self):
        keys = osm_like(5000, universe=2**50, seed=0).astype(np.float64)
        gaps = np.diff(keys)
        # Clustering: most gaps are tiny relative to the mean.
        assert np.median(gaps) < np.mean(gaps) / 10

    def test_fb_bulk_below_2_38(self):
        keys = fb_like(2000, seed=0)
        below = int(np.sum(keys < 2**38))
        assert below >= keys.size - 21

    def test_normal_concentrates_near_mean(self):
        u = 2**40
        keys = normal(5000, universe=u, seed=0).astype(np.float64)
        inside = np.sum(np.abs(keys - u / 2) < 0.2 * u)
        assert inside / keys.size > 0.9
