"""Cross-filter behavioural tests.

Every baseline must satisfy the same contract as Grafite: no false
negatives for any data and any query. A single parametrised suite
enforces it, plus per-filter specifics below.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import Bucketing
from repro.core.grafite import Grafite
from repro.errors import InvalidParameterError
from repro.filters.point_probe import PointProbeFilter
from repro.filters.proteus import Proteus
from repro.filters.rencoder import REncoder, rencoder_se, rencoder_ss
from repro.filters.rosetta import Rosetta, dyadic_decomposition
from repro.filters.snarf import SnarfFilter
from repro.filters.surf import SuRF

UNIVERSE = 2**32
SAMPLE_QUERIES = [(10, 40), (1000, 1031), (2**20, 2**20 + 31), (5, 5)]


def build_filter(name, keys, universe=UNIVERSE, bpk=16, L=32, seed=0):
    """Factory shared by tests and (via analysis) the benchmarks."""
    if name == "grafite":
        return Grafite(keys, universe, bits_per_key=bpk, max_range_size=L, seed=seed)
    if name == "bucketing":
        return Bucketing(keys, universe, bits_per_key=bpk)
    if name == "rosetta":
        return Rosetta(keys, universe, bits_per_key=bpk, max_range_size=L, seed=seed)
    if name == "snarf":
        return SnarfFilter(keys, universe, bits_per_key=bpk)
    if name == "surf":
        return SuRF(keys, universe, suffix_mode="real", suffix_bits=max(1, int(bpk - 10)), seed=seed)
    if name == "surf_hash":
        return SuRF(keys, universe, suffix_mode="hash", suffix_bits=max(1, int(bpk - 10)), seed=seed)
    if name == "proteus":
        return Proteus(keys, universe, bits_per_key=bpk, sample_queries=SAMPLE_QUERIES, seed=seed)
    if name == "rencoder":
        return REncoder(keys, universe, bits_per_key=bpk, seed=seed)
    if name == "rencoder_ss":
        return rencoder_ss(keys, universe, bits_per_key=bpk, seed=seed)
    if name == "rencoder_se":
        return rencoder_se(keys, universe, bits_per_key=bpk, sample_queries=SAMPLE_QUERIES, seed=seed)
    if name == "point_probe":
        return PointProbeFilter(keys, universe, bits_per_key=bpk, max_range_size=L, seed=seed)
    raise ValueError(name)


ALL_FILTERS = [
    "grafite", "bucketing", "rosetta", "snarf", "surf", "surf_hash", "proteus",
    "rencoder", "rencoder_ss", "rencoder_se", "point_probe",
]


@pytest.mark.parametrize("name", ALL_FILTERS)
class TestContract:
    def test_no_false_negatives_fixed(self, name):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, UNIVERSE, 400, dtype=np.uint64))
        filt = build_filter(name, keys)
        for key in keys[:80]:
            key = int(key)
            assert filt.may_contain(key), f"{name}: point FN on {key}"
            lo = max(0, key - 11)
            hi = min(UNIVERSE - 1, key + 20)
            assert filt.may_contain_range(lo, hi), f"{name}: range FN around {key}"

    def test_boundary_keys(self, name):
        keys = [0, 1, UNIVERSE - 2, UNIVERSE - 1]
        filt = build_filter(name, keys)
        assert filt.may_contain_range(0, 0)
        assert filt.may_contain_range(UNIVERSE - 1, UNIVERSE - 1)
        assert filt.may_contain_range(0, UNIVERSE - 1)

    def test_empty_key_set(self, name):
        filt = build_filter(name, [])
        assert not filt.may_contain_range(0, 1000)
        assert filt.key_count == 0

    def test_space_accounting_positive(self, name):
        filt = build_filter(name, [1, 2**20, 2**30])
        assert filt.size_in_bits > 0
        assert filt.bits_per_key > 0
        assert filt.key_count == 3

    def test_invalid_query_rejected(self, name):
        filt = build_filter(name, [5])
        from repro.errors import InvalidQueryError

        with pytest.raises(InvalidQueryError):
            filt.may_contain_range(10, 2)
        with pytest.raises(InvalidQueryError):
            filt.may_contain_range(0, UNIVERSE)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_no_false_negatives_property(self, name, data):
        keys = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=UNIVERSE - 1),
                min_size=1,
                max_size=50,
            )
        )
        seed = data.draw(st.integers(min_value=0, max_value=100))
        filt = build_filter(name, keys, seed=seed)
        for key in keys[:8]:
            width = data.draw(st.integers(min_value=0, max_value=40))
            lo = max(0, key - width)
            hi = min(UNIVERSE - 1, key + width)
            assert filt.may_contain_range(lo, hi), f"{name}: FN key={key} [{lo},{hi}]"


class TestDyadicDecomposition:
    def test_single_point(self):
        assert dyadic_decomposition(5, 5) == [(5, 0)]

    def test_aligned_block(self):
        assert dyadic_decomposition(8, 15) == [(8, 3)]

    def test_covers_exactly(self):
        blocks = dyadic_decomposition(3, 77)
        covered = []
        for start, log_size in blocks:
            assert start % (1 << log_size) == 0, "block must be aligned"
            covered.extend(range(start, start + (1 << log_size)))
        assert covered == list(range(3, 78))

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3000))
    @settings(max_examples=80, deadline=None)
    def test_property_cover(self, lo, width):
        hi = lo + width
        blocks = dyadic_decomposition(lo, hi)
        total = sum(1 << log_size for _, log_size in blocks)
        assert total == width + 1
        assert blocks[0][0] == lo
        # alignment of every block
        for start, log_size in blocks:
            assert start % (1 << log_size) == 0


class TestRosettaSpecifics:
    def test_levels_cover_range_size(self):
        r = Rosetta([1, 2, 3], 2**16, bits_per_key=16, max_range_size=32)
        assert len(r.levels) == 6  # log2(32) + 1
        assert r.levels[-1] == 16

    def test_sample_tuning_runs(self):
        keys = list(range(0, 2**16, 37))
        r = Rosetta(
            keys, 2**16, bits_per_key=14, max_range_size=16,
            sample_queries=[(5, 20), (100, 115)],
        )
        for k in keys[:30]:
            assert r.may_contain(k)

    def test_point_query_uses_leaf_level_only(self):
        r = Rosetta([123], 2**10, bits_per_key=12, max_range_size=1)
        assert len(r.levels) == 1
        assert r.may_contain(123)


class TestSnarfSpecifics:
    def test_requires_enough_budget(self):
        with pytest.raises(InvalidParameterError):
            SnarfFilter([1], 100, bits_per_key=2.0)

    def test_K_parameter_direct(self):
        f = SnarfFilter(list(range(100)), 2**20, K=8)
        assert f.slots_per_key == 8

    def test_uncorrelated_fpr_near_one_over_K(self):
        rng = np.random.default_rng(11)
        universe = 2**40
        keys = np.unique(rng.integers(0, universe, 20_000, dtype=np.uint64))
        K = 64
        f = SnarfFilter(keys, universe, K=K)
        key_sorted = np.sort(keys)
        fp = trials = 0
        while trials < 3000:
            a = int(rng.integers(0, universe - 2))
            b = a + 1
            i = int(np.searchsorted(key_sorted, a))
            if i < key_sorted.size and int(key_sorted[i]) <= b:
                continue
            trials += 1
            fp += f.may_contain_range(a, b)
        assert fp / trials < 6.0 / K  # near 1/K up to constant slack

    @pytest.mark.parametrize("bpk", [48, 60, 64])
    def test_huge_budgets_cap_slots_without_overflow(self, bpk):
        # K * n past 2^53 (float64's exact integers) or 2^63 (int64) used to
        # overflow the slot cast; the capped build must answer like 46 bpk.
        rng = np.random.default_rng(5)
        universe = 2**48
        keys = np.unique(rng.integers(0, universe, 500, dtype=np.uint64))
        ranges = [(lo, lo + 31) for lo in rng.integers(0, universe - 32, 3000).tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = SnarfFilter(keys, universe, bits_per_key=bpk)
            answers = [f.may_contain_range(lo, hi) for lo, hi in ranges]
            for k in keys[::10].tolist():
                assert f.may_contain_range(max(0, k - 3), k + 3)
        baseline = SnarfFilter(keys, universe, bits_per_key=46)
        expected = [baseline.may_contain_range(lo, hi) for lo, hi in ranges]
        truth = [bool(np.any((keys >= lo) & (keys <= hi))) for lo, hi in ranges]
        assert all(a for a, t in zip(answers, truth) if t)
        assert sum(answers) <= sum(expected)

    def test_float32_defect_mode_constructs(self):
        keys = list(range(0, 10_000, 13))
        f = SnarfFilter(keys, 2**40, K=16, emulate_float32_defect=True)
        # The defect mode may produce false negatives by design; we only
        # check it remains a functioning filter object.
        f.may_contain_range(5, 500)


class TestSurfSpecifics:
    def test_suffix_modes(self):
        keys = [10, 1000, 65_000]
        for mode in ("none", "real", "hash"):
            f = SuRF(keys, 2**16, suffix_mode=mode, suffix_bits=4 if mode != "none" else 0)
            for k in keys:
                assert f.may_contain(k), mode

    def test_invalid_mode(self):
        with pytest.raises(InvalidParameterError):
            SuRF([1], 100, suffix_mode="bogus")

    def test_real_suffix_reduces_fpr(self):
        rng = np.random.default_rng(5)
        universe = 2**32
        keys = np.unique(rng.integers(0, universe, 3000, dtype=np.uint64))
        base = SuRF(keys, universe, suffix_mode="none", suffix_bits=0)
        real = SuRF(keys, universe, suffix_mode="real", suffix_bits=8)
        key_sorted = np.sort(keys)
        fp_base = fp_real = trials = 0
        while trials < 1500:
            a = int(rng.integers(0, universe - 16))
            b = a + 15
            i = int(np.searchsorted(key_sorted, a))
            if i < key_sorted.size and int(key_sorted[i]) <= b:
                continue
            trials += 1
            fp_base += base.may_contain_range(a, b)
            fp_real += real.may_contain_range(a, b)
        assert fp_real <= fp_base

    def test_correlated_queries_defeat_surf(self):
        """The paper's headline: query endpoints near keys break the trie."""
        rng = np.random.default_rng(9)
        universe = 2**40
        keys = np.unique(rng.integers(0, universe, 5000, dtype=np.uint64))
        f = SuRF(keys, universe, suffix_mode="real", suffix_bits=8)
        key_set = set(int(k) for k in keys)
        fp = trials = 0
        for k in keys[:1000]:
            a = int(k) + 1  # immediately right of a key
            b = a + 15
            if any(x in key_set for x in range(a, b + 1)) or b >= universe:
                continue
            trials += 1
            fp += f.may_contain_range(a, b)
        assert trials > 500
        assert fp / trials > 0.5  # little to no filtering under correlation


class TestProteusSpecifics:
    def test_needs_sample_or_design(self):
        with pytest.raises(InvalidParameterError):
            Proteus([1, 2], 2**16, bits_per_key=10)

    def test_explicit_design(self):
        f = Proteus([77, 2**20], 2**24, bits_per_key=12, l1=8, l2=16)
        assert f.design == (8, 16)
        assert f.may_contain(77)

    def test_design_validation(self):
        with pytest.raises(InvalidParameterError):
            Proteus([1], 2**16, bits_per_key=8, l1=3, l2=8)
        with pytest.raises(InvalidParameterError):
            Proteus([1], 2**16, bits_per_key=8, l1=8, l2=8)

    def test_tuner_picks_reasonable_design(self):
        rng = np.random.default_rng(2)
        keys = np.unique(rng.integers(0, 2**32, 2000, dtype=np.uint64))
        queries = [(int(x), int(x) + 31) for x in rng.integers(0, 2**32 - 32, 64, dtype=np.uint64)]
        f = Proteus(keys, 2**32, bits_per_key=18, sample_queries=queries, seed=0)
        l1, l2 = f.design
        assert 0 <= l1 < l2 <= 32


class TestREncoderSpecifics:
    def test_stored_levels_bounds(self):
        with pytest.raises(InvalidParameterError):
            REncoder([1], 2**16, bits_per_key=10, stored_levels=0)
        with pytest.raises(InvalidParameterError):
            REncoder([1], 2**16, bits_per_key=10, stored_levels=99)

    def test_ss_variant_uses_fixed_levels(self):
        full = REncoder(list(range(50)), 2**32, bits_per_key=16)
        ss = rencoder_ss(list(range(50)), 2**32, bits_per_key=16, coverage_levels=3)
        assert ss.stored_levels == 3
        # Base REncoder sizes its level coverage from the budget (load
        # near 50%), never below the SS floor of 3.
        assert 3 <= full.stored_levels <= full.total_levels
        huge_budget = REncoder(list(range(50)), 2**32, bits_per_key=80)
        assert huge_budget.stored_levels == huge_budget.total_levels

    def test_se_variant_tunes_on_sample(self):
        se = rencoder_se(
            list(range(50)), 2**32, bits_per_key=16,
            sample_queries=[(0, 31), (100, 131)],
        )
        assert 1 <= se.stored_levels <= se.total_levels
        assert se.name == "REncoderSE"

    def test_tree_pattern_shape(self):
        from repro.filters.rencoder import tree_pattern

        for s in range(16):
            pattern = tree_pattern(s)
            assert bin(pattern).count("1") == 5  # one node per depth 0..4
            assert pattern & 1  # root always marked


class TestPointProbeSpecifics:
    def test_eps_constructor(self):
        f = PointProbeFilter(list(range(100)), 2**20, eps=0.1, max_range_size=8)
        assert 0 < f.point_fpr <= 0.1 / 8 + 1e-12
        assert f.may_contain_range(50, 57)

    def test_larger_than_L_ranges_still_answered(self):
        f = PointProbeFilter([500], 2**20, eps=0.1, max_range_size=4)
        assert f.may_contain_range(0, 1000)
