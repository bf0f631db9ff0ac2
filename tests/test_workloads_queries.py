"""Tests for the query workload generators (§6.1, §6.5)."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.workloads.datasets import uniform
from repro.workloads.queries import (
    correlated_queries,
    intersects,
    nonempty_queries,
    real_extracted_queries,
    uncorrelated_queries,
    zipfian_queries,
)

UNIVERSE = 2**40
KEYS = uniform(3000, universe=UNIVERSE, seed=0)


class TestIntersects:
    def test_basic(self):
        keys = np.array([10, 20, 30], dtype=np.uint64)
        assert intersects(keys, 15, 25)
        assert intersects(keys, 20, 20)
        assert not intersects(keys, 21, 29)
        assert not intersects(keys, 0, 9)
        assert not intersects(keys, 31, 100)


class TestUncorrelated:
    def test_shape_and_emptiness(self):
        queries = uncorrelated_queries(200, 32, UNIVERSE, keys=KEYS, seed=1)
        assert len(queries) == 200
        for lo, hi in queries:
            assert hi - lo + 1 == 32
            assert 0 <= lo <= hi < UNIVERSE
            assert not intersects(KEYS, lo, hi)

    def test_deterministic(self):
        a = uncorrelated_queries(50, 8, UNIVERSE, keys=KEYS, seed=3)
        b = uncorrelated_queries(50, 8, UNIVERSE, keys=KEYS, seed=3)
        assert a == b

    def test_can_place_range_at_universe_top(self):
        """Regression: the left-endpoint draw's exclusive high bound
        used to stop one short of ``universe - range_size``, so
        ``hi == universe - 1`` was unreachable and the top of the key
        space silently never got probed."""
        queries = uncorrelated_queries(300, 8, 16, seed=0)
        assert all(hi < 16 for _, hi in queries)
        # lo is drawn from [0, 8]; over 300 draws the topmost placement
        # (hi == 15) is all but certain — and was impossible before.
        assert max(hi for _, hi in queries) == 15

    def test_full_u64_universe(self):
        """Regression: a 2^64 universe overflowed the int64 draw."""
        keys = np.sort(
            np.random.default_rng(2).integers(0, 2**64, 500, dtype=np.uint64)
        )
        queries = uncorrelated_queries(100, 32, 2**64, keys=keys, seed=1)
        assert len(queries) == 100
        for lo, hi in queries:
            assert 0 <= lo <= hi < 2**64
            assert not intersects(keys, lo, hi)
        assert max(lo for lo, _ in queries) >= 2**63

    def test_without_keys_no_empty_enforcement(self):
        queries = uncorrelated_queries(50, 16, UNIVERSE, seed=0)
        assert len(queries) == 50

    def test_too_dense_fails(self):
        dense = np.arange(64, dtype=np.uint64)
        with pytest.raises(InvalidParameterError):
            uncorrelated_queries(10, 32, 64 + 33, keys=dense, seed=0, max_attempts_factor=5)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            uncorrelated_queries(0, 8, UNIVERSE)
        with pytest.raises(InvalidParameterError):
            uncorrelated_queries(10, 0, UNIVERSE)


class TestCorrelated:
    def test_emptiness_and_size(self):
        queries = correlated_queries(KEYS, 150, 16, UNIVERSE, correlation_degree=0.8, seed=2)
        assert len(queries) == 150
        for lo, hi in queries:
            assert hi - lo + 1 == 16
            assert not intersects(KEYS, lo, hi)

    def test_high_degree_hugs_keys(self):
        queries = correlated_queries(KEYS, 200, 4, UNIVERSE, correlation_degree=1.0, seed=4)
        sorted_keys = np.sort(KEYS)
        distances = []
        for lo, _ in queries:
            idx = int(np.searchsorted(sorted_keys, lo)) - 1
            distances.append(lo - int(sorted_keys[idx]))
        # D = 1 means the left endpoint is within ~1 of a key.
        assert np.median(distances) <= 2

    def test_low_degree_spreads_out(self):
        tight = correlated_queries(KEYS, 100, 4, UNIVERSE, correlation_degree=1.0, seed=5)
        loose = correlated_queries(KEYS, 100, 4, UNIVERSE, correlation_degree=0.0, seed=5)
        sorted_keys = np.sort(KEYS)

        def median_distance(queries):
            ds = []
            for lo, _ in queries:
                idx = int(np.searchsorted(sorted_keys, lo)) - 1
                if idx >= 0:
                    ds.append(lo - int(sorted_keys[idx]))
            return np.median(ds)

        assert median_distance(loose) > 100 * max(1, median_distance(tight))

    def test_degree_validation(self):
        with pytest.raises(InvalidParameterError):
            correlated_queries(KEYS, 10, 4, UNIVERSE, correlation_degree=1.5)

    def test_empty_keys_rejected(self):
        with pytest.raises(InvalidParameterError):
            correlated_queries(np.zeros(0, dtype=np.uint64), 10, 4, UNIVERSE)


class TestRealExtracted:
    def test_endpoints_are_removed_keys(self):
        remaining, queries = real_extracted_queries(KEYS, 100, 8, UNIVERSE, seed=6)
        key_set = set(int(k) for k in KEYS)
        remaining_set = set(int(k) for k in remaining)
        assert len(queries) == 100
        assert remaining.size == KEYS.size - 100
        for lo, hi in queries:
            assert lo in key_set and lo not in remaining_set
            assert not intersects(remaining, lo, hi)

    def test_impossible_extraction_fails(self):
        tiny = np.array([5], dtype=np.uint64)
        with pytest.raises(InvalidParameterError):
            real_extracted_queries(tiny, 10, 4, UNIVERSE, seed=0)


class TestZipfian:
    def test_shape_bounds_and_dtype(self):
        los, his = zipfian_queries(KEYS, 500, 32, UNIVERSE, seed=1)
        assert los.shape == his.shape == (500,)
        assert los.dtype == np.uint64 and his.dtype == np.uint64
        assert bool((his - los + 1 == 32).all())
        assert bool((his < UNIVERSE).all())

    def test_deterministic(self):
        a = zipfian_queries(KEYS, 200, 16, UNIVERSE, skew=1.2, seed=9)
        b = zipfian_queries(KEYS, 200, 16, UNIVERSE, skew=1.2, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = zipfian_queries(KEYS, 200, 16, UNIVERSE, skew=1.2, seed=10)
        assert not np.array_equal(a[0], c[0])

    def test_skew_concentrates_on_hot_keys(self):
        n = 4000
        los, _ = zipfian_queries(
            KEYS, n, 8, UNIVERSE, skew=1.3, n_hot=256, seed=4
        )
        _, counts = np.unique(los, return_counts=True)
        top = np.sort(counts)[::-1]
        # Zipf(1.3) over 256 ranks: the top 10 anchors carry a large
        # multiple of the uniform 10/256 share.
        assert top[:10].sum() > 4 * (10 / 256) * n
        # ... and a uniform draw over the same hot set does not.
        uni = np.random.default_rng(4).integers(0, 256, n)
        _, ucounts = np.unique(uni, return_counts=True)
        assert top[:10].sum() > 2 * np.sort(ucounts)[::-1][:10].sum()

    def test_hot_set_capped_by_key_count(self):
        few = np.sort(
            np.random.default_rng(0).integers(0, UNIVERSE, 50, dtype=np.uint64)
        )
        los, his = zipfian_queries(
            few, 300, 4, UNIVERSE, n_hot=10_000, seed=0
        )
        # Every range still contains its anchor key (jitter < range size),
        # so a 50-key hot set yields at most 50 distinct anchored ranges.
        assert all(
            intersects(few, int(lo), int(hi)) for lo, hi in zip(los, his)
        )

    def test_ranges_hit_keys(self):
        """Zipfian queries aim *at* keys — most ranges are non-empty."""
        los, his = zipfian_queries(KEYS, 300, 16, UNIVERSE, seed=6)
        hits = sum(
            intersects(KEYS, int(lo), int(hi)) for lo, hi in zip(los, his)
        )
        assert hits > 250

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            zipfian_queries(KEYS, 0, 8, UNIVERSE)
        with pytest.raises(InvalidParameterError):
            zipfian_queries(KEYS, 10, 0, UNIVERSE)
        with pytest.raises(InvalidParameterError):
            zipfian_queries(np.zeros(0, dtype=np.uint64), 10, 8, UNIVERSE)


class TestNonEmpty:
    def test_every_range_hits_a_key(self):
        queries = nonempty_queries(KEYS, 150, 32, UNIVERSE, seed=7)
        assert len(queries) == 150
        for lo, hi in queries:
            assert intersects(KEYS, lo, hi)
            assert hi - lo + 1 == 32

    def test_point_ranges(self):
        queries = nonempty_queries(KEYS, 50, 1, UNIVERSE, seed=8)
        key_set = set(int(k) for k in KEYS)
        for lo, hi in queries:
            assert lo == hi and lo in key_set
