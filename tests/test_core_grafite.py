"""Tests for the Grafite range filter (paper §3).

The central law — *no false negatives, ever* — is checked both on curated
edge cases and via hypothesis over random key sets, query mixes, block
boundaries, and both constructor flavours.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grafite import Grafite, eps_from_bits_per_key, hashed_query_intervals
from repro.errors import InvalidParameterError, InvalidQueryError


def brute_force_intersects(keys, lo, hi):
    return any(lo <= k <= hi for k in keys)


class TestConstruction:
    def test_requires_exactly_one_budget_knob(self):
        with pytest.raises(InvalidParameterError):
            Grafite([1, 2], 100)
        with pytest.raises(InvalidParameterError):
            Grafite([1, 2], 100, eps=0.1, bits_per_key=10)

    def test_invalid_eps(self):
        with pytest.raises(InvalidParameterError):
            Grafite([1], 100, eps=0.0)

    def test_invalid_range_size(self):
        with pytest.raises(InvalidParameterError):
            Grafite([1], 100, eps=0.5, max_range_size=0)

    def test_eps_from_bits_per_key(self):
        # B bits/key buys eps = L / 2^(B-2)  (Corollary 3.5 derivation).
        assert eps_from_bits_per_key(12, 32) == 32 / 2**10
        with pytest.raises(InvalidParameterError):
            eps_from_bits_per_key(2, 32)

    def test_empty_key_set(self):
        g = Grafite([], 1000, eps=0.1)
        assert g.key_count == 0
        assert not g.may_contain_range(0, 999)
        assert g.count_range(0, 999) == 0

    def test_duplicates_collapsed(self):
        g = Grafite([5, 5, 5, 9], 100, eps=0.1, max_range_size=2, seed=0)
        assert g.key_count == 2

    def test_exact_mode_engages_when_r_exceeds_universe(self):
        # n*L/eps = 10*32/0.001 >> u = 1000 -> lossless EF encoding.
        g = Grafite(range(0, 1000, 100), 1000, eps=0.001, max_range_size=32, seed=0)
        assert g.is_exact
        assert g.fpr_bound(32) == 0.0
        assert g.may_contain_range(100, 100)
        assert not g.may_contain_range(101, 199)

    def test_reduced_universe_value(self):
        g = Grafite(range(100), 2**40, eps=0.5, max_range_size=16, seed=0)
        assert g.reduced_universe == 100 * 16 * 2  # ceil(n L / eps)
        assert not g.is_exact

    def test_power_of_two_universe(self):
        g = Grafite(
            range(100), 2**40, eps=0.5, max_range_size=16, seed=0,
            power_of_two_universe=True,
        )
        r = g.reduced_universe
        assert r & (r - 1) == 0  # power of two

    def test_deterministic_under_seed(self):
        keys = list(range(0, 10_000, 7))
        g1 = Grafite(keys, 2**40, eps=0.01, seed=123)
        g2 = Grafite(keys, 2**40, eps=0.01, seed=123)
        queries = [(3, 5), (70, 700), (9999, 20_000)]
        assert [g1.may_contain_range(a, b) for a, b in queries] == [
            g2.may_contain_range(a, b) for a, b in queries
        ]

    def test_space_close_to_bound(self):
        """Theorem 3.4: space <= n log2(L/eps) + 2n + o(n)."""
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 2**50, 5000, dtype=np.uint64))
        L, eps = 64, 0.01
        g = Grafite(keys, 2**50, eps=eps, max_range_size=L, seed=1)
        n = g.key_count
        bound = n * np.log2(L / eps) + 2 * n
        # allow o(n) slack: one extra bit per key plus word padding
        assert g.size_in_bits <= bound + n + 128


class TestQueries:
    def test_query_validation(self):
        g = Grafite([10], 100, eps=0.5, seed=0)
        with pytest.raises(InvalidQueryError):
            g.may_contain_range(5, 3)
        with pytest.raises(InvalidQueryError):
            g.may_contain_range(0, 100)
        with pytest.raises(InvalidQueryError):
            g.may_contain_range(-1, 3)

    def test_point_queries_on_keys_always_hit(self):
        keys = [0, 17, 999_999]
        g = Grafite(keys, 10**6, eps=0.01, seed=4)
        for k in keys:
            assert g.may_contain(k)

    def test_huge_range_returns_true(self):
        g = Grafite([50], 10**6, eps=0.9, max_range_size=1, seed=0)
        # range size >= r -> hashed image covers [r] -> must answer True
        assert g.may_contain_range(0, 10**6 - 1)

    def test_no_false_negatives_across_block_boundaries(self):
        """Keys placed right at multiples of r exercise Footnote 2."""
        g = Grafite(range(100), 2**30, eps=0.5, max_range_size=8, seed=7)
        r = g.reduced_universe
        boundary_keys = [r - 1, r, r + 1, 2 * r, 5 * r - 1, 5 * r]
        g2 = Grafite(boundary_keys, 2**30, eps=0.5, max_range_size=8, seed=7)
        for k in boundary_keys:
            assert g2.may_contain_range(max(0, k - 3), k + 3)

    def test_scalar_count_and_batch_match_brute_force_hashed_image(self):
        """Small ``r``: straddling and wrapping queries on every path.

        The brute force hashes every point of the query with the
        construction hash and looks each image up among the stored
        codes, so it checks the Footnote 2 split and the wrap-around
        without going through :func:`hashed_query_intervals`.
        """
        rng = np.random.default_rng(11)
        universe = 2**16
        keys = rng.integers(0, universe, 40, dtype=np.uint64)
        g = Grafite(keys, universe, eps=0.5, max_range_size=8, seed=5)
        r = g.reduced_universe
        assert not g.is_exact and r == 640
        codes = set(int(c) for c in g._ef.to_array())
        los, his, expected = [], [], []
        straddles = wraps = 0
        for block in (1, 2, 7, universe // r - 1):
            for lo in range(block * r - 12, block * r + 3):
                for width in (1, 2, 8, 13, r // 2, r - 2):
                    hi = lo + width - 1
                    points = np.arange(lo, hi + 1, dtype=np.uint64)
                    hits = sum(
                        int(h) in codes for h in g._hash.hash_many(points)
                    )
                    assert g.count_range(lo, hi) == hits
                    assert g.may_contain_range(lo, hi) == (hits > 0)
                    los.append(lo)
                    his.append(hi)
                    expected.append(hits > 0)
                    intervals = hashed_query_intervals(g._hash, r, lo, hi)
                    straddles += lo // r != hi // r
                    wraps += len(intervals) > 1 + (lo // r != hi // r)
        assert straddles > 50 and wraps > 50
        batch = g.may_contain_range_batch(
            np.array(los, dtype=np.uint64), np.array(his, dtype=np.uint64)
        )
        assert batch.tolist() == expected

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=80),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_no_false_negatives_property(self, keys, data):
        universe = 2**32
        eps = data.draw(st.sampled_from([0.01, 0.1, 0.5, 0.9]))
        L = data.draw(st.sampled_from([1, 2, 32, 1024]))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        g = Grafite(keys, universe, eps=eps, max_range_size=L, seed=seed)
        # ranges anchored on keys, shifted around them, in both directions
        for key in keys[:10]:
            width = data.draw(st.integers(min_value=0, max_value=2 * L))
            lo = max(0, key - data.draw(st.integers(min_value=0, max_value=width)))
            hi = min(universe - 1, lo + width)
            if lo <= key <= hi:
                assert g.may_contain_range(lo, hi), (
                    f"false negative: key {key} in [{lo}, {hi}]"
                )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bits_per_key_constructor_no_false_negatives(self, data):
        keys = data.draw(
            st.lists(st.integers(min_value=0, max_value=2**24 - 1), min_size=1, max_size=60)
        )
        bpk = data.draw(st.sampled_from([6, 10, 16, 24]))
        g = Grafite(keys, 2**24, bits_per_key=bpk, max_range_size=16, seed=0)
        for key in keys:
            lo, hi = max(0, key - 7), min(2**24 - 1, key + 8)
            assert g.may_contain_range(lo, hi)

    def test_fpr_within_bound_statistically(self):
        """Empirical FPR on disjoint ranges stays near the eps bound."""
        rng = np.random.default_rng(42)
        universe = 2**40
        keys = np.unique(rng.integers(0, universe, 20_000, dtype=np.uint64))
        L, eps = 16, 0.05
        g = Grafite(keys, universe, eps=eps, max_range_size=L, seed=3)
        key_set = set(int(k) for k in keys)
        trials, false_positives = 0, 0
        while trials < 4000:
            a = int(rng.integers(0, universe - L))
            rng_keys = [k for k in range(a, a + L) if k in key_set]
            if rng_keys:
                continue
            trials += 1
            if g.may_contain_range(a, a + L - 1):
                false_positives += 1
        fpr = false_positives / trials
        assert fpr <= eps * 1.8 + 0.01, f"FPR {fpr} far above design eps {eps}"

    def test_fpr_bound_function(self):
        g = Grafite(range(100), 2**40, eps=0.1, max_range_size=10, seed=0)
        assert g.fpr_bound(10) == pytest.approx(100 * 10 / g.reduced_universe)
        assert g.fpr_bound(10**12) == 1.0


class TestCounting:
    def test_exact_mode_counts_exactly(self):
        keys = [10, 20, 30, 40]
        g = Grafite(keys, 1000, eps=1e-9, max_range_size=4, seed=0)
        assert g.is_exact
        assert g.count_range(15, 35) == 2
        assert g.count_range(0, 9) == 0
        assert g.count_range(10, 40) == 4

    def test_count_never_below_truth_minus_collisions(self):
        rng = np.random.default_rng(1)
        universe = 2**40
        keys = np.unique(rng.integers(0, universe, 5000, dtype=np.uint64))
        g = Grafite(keys, universe, eps=0.01, max_range_size=64, seed=2)
        sorted_keys = np.sort(keys)
        for _ in range(200):
            a = int(rng.integers(0, universe - 64))
            b = a + 63
            truth = int(
                np.searchsorted(sorted_keys, b, "right")
                - np.searchsorted(sorted_keys, a, "left")
            )
            estimate = g.count_range(a, b)
            # The raw estimate only misses keys whose codes collided.
            assert estimate >= truth - 5
            assert estimate <= truth + 50

    def test_adjusted_count_non_negative(self):
        g = Grafite(range(1000), 2**30, eps=0.5, max_range_size=8, seed=0)
        assert g.count_range(2**20, 2**20 + 7, adjusted=True) >= 0

    def test_count_whole_universe(self):
        g = Grafite(range(50), 10**4, eps=0.9, max_range_size=2, seed=0)
        if not g.is_exact:
            assert g.count_range(0, 10**4 - 1) == g.key_count


class TestPickling:
    def test_round_trip(self):
        keys = list(range(0, 5000, 3))
        g = Grafite(keys, 2**30, eps=0.05, max_range_size=32, seed=9)
        clone = pickle.loads(pickle.dumps(g))
        queries = [(0, 10), (4997, 5100), (2**29, 2**29 + 31)]
        assert [clone.may_contain_range(a, b) for a, b in queries] == [
            g.may_contain_range(a, b) for a, b in queries
        ]
        assert clone.size_in_bits == g.size_in_bits
