"""Unit and property tests for the Elias-Fano sequence.

The property tests compare every operation against a naive sorted-list
reference, which is the ground truth the paper's predecessor-based query
algorithm (Algorithm 2) relies on.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.succinct.elias_fano import EliasFano


def naive_predecessor(sorted_values, y):
    i = bisect.bisect_right(sorted_values, y)
    return None if i == 0 else sorted_values[i - 1]


def naive_successor(sorted_values, y):
    i = bisect.bisect_left(sorted_values, y)
    return None if i == len(sorted_values) else sorted_values[i]


class TestConstruction:
    def test_empty_sequence(self):
        ef = EliasFano([])
        assert len(ef) == 0
        assert ef.first is None and ef.last is None
        assert ef.predecessor(100) is None
        assert ef.successor(0) is None
        assert ef.rank_leq(5) == 0

    def test_rejects_descending_input(self):
        with pytest.raises(InvalidParameterError):
            EliasFano([5, 3])

    def test_rejects_value_outside_universe(self):
        with pytest.raises(InvalidParameterError):
            EliasFano([10], universe=10)

    def test_rejects_bad_universe(self):
        with pytest.raises(InvalidParameterError):
            EliasFano([], universe=0)

    def test_duplicates_supported(self):
        ef = EliasFano([4, 4, 4, 9])
        assert list(ef) == [4, 4, 4, 9]
        assert ef.rank_leq(4) == 3

    def test_paper_example(self):
        """Example 3.2/3.3 of the paper: hash codes with r=100, l=3."""
        codes = sorted([14, 53, 55, 6, 51, 94, 70, 91, 32, 66])
        ef = EliasFano(codes, universe=100)
        assert ef.low_bits == 3
        assert list(ef) == codes
        # Example 3.3: predecessor(52) = 51 >= h(a)=49 -> "not empty".
        assert ef.predecessor(52) == 51

    def test_space_bound(self):
        """Space must stay within n*ceil(log2(u/n)) + 2n bits."""
        n, u = 1000, 2**20
        values = sorted(set(range(0, u, u // n)))[:n]
        ef = EliasFano(values, universe=u)
        bound = len(values) * ((u // len(values)).bit_length()) + 2 * len(values)
        assert ef.size_in_bits <= bound + 64  # +word slack


class TestAccess:
    def test_access_and_iter(self):
        values = [0, 1, 5, 100, 1000, 1000, 4095]
        ef = EliasFano(values, universe=4096)
        assert [ef.access(i) for i in range(len(values))] == values
        assert list(ef) == values

    def test_access_out_of_range(self):
        ef = EliasFano([1, 2])
        with pytest.raises(IndexError):
            ef.access(2)

    def test_first_last(self):
        ef = EliasFano([7, 9, 11], universe=50)
        assert ef.first == 7
        assert ef.last == 11


class TestPredecessorSuccessor:
    def test_predecessor_below_first(self):
        ef = EliasFano([10, 20])
        assert ef.predecessor(9) is None
        assert ef.predecessor(10) == 10

    def test_successor_above_last(self):
        ef = EliasFano([10, 20])
        assert ef.successor(21) is None
        assert ef.successor(20) == 20

    def test_contains_in_range(self):
        ef = EliasFano([10, 20, 30], universe=100)
        assert ef.contains_in_range(15, 25)
        assert ef.contains_in_range(20, 20)
        assert not ef.contains_in_range(21, 29)
        assert not ef.contains_in_range(25, 15)  # inverted range

    def test_dense_universe(self):
        # u == n forces l == 0 (no low bits at all).
        values = list(range(64))
        ef = EliasFano(values, universe=64)
        assert ef.low_bits == 0
        for y in range(64):
            assert ef.predecessor(y) == y

    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=200),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_list_reference(self, raw, data):
        values = sorted(raw)
        universe = values[-1] + data.draw(st.integers(min_value=1, max_value=2**20))
        ef = EliasFano(values, universe=universe)
        probes = data.draw(
            st.lists(st.integers(min_value=0, max_value=universe - 1), min_size=1, max_size=30)
        )
        # Also probe near stored values to hit bucket-boundary branches.
        probes += [values[0], values[-1], max(0, values[0] - 1)]
        for y in probes:
            assert ef.predecessor(y) == naive_predecessor(values, y)
            assert ef.successor(y) == naive_successor(values, y)
            assert ef.rank_leq(y) == bisect.bisect_right(values, y)

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_access_round_trip(self, raw):
        values = sorted(raw)
        ef = EliasFano(values)
        assert list(ef) == values


class TestBatchProbe:
    """The one batch kernel — a search over the decoded codes — against
    the scalar paper algorithm, on every filter that reduces to it."""

    BATCH_SIZES = (1, 9, 255, 256, 2000)

    @staticmethod
    def _ranges(rng, universe, size, keys):
        """Half random ranges, half ranges reaching back over a stored key,
        so both verdicts show up at every batch size."""
        max_len = 64
        los = rng.integers(0, universe - max_len, size, dtype=np.uint64)
        his = los + rng.integers(0, max_len, size, dtype=np.uint64)
        near = rng.random(size) < 0.5
        picks = rng.choice(keys, size) if len(keys) else los
        his = np.where(near, np.minimum(picks + np.uint64(3), universe - 1), his)
        los = np.where(near, his - np.minimum(his, np.uint64(5)), los)
        return los, his

    @pytest.mark.parametrize("kind", ["grafite-hashed", "grafite-exact", "bucketing"])
    def test_filter_batch_equals_scalar_at_every_batch_size(self, kind):
        from repro.core.bucketing import Bucketing
        from repro.core.grafite import Grafite

        rng = np.random.default_rng(27)
        universe = 2**20 if kind == "grafite-exact" else 2**40
        keys = np.unique(rng.integers(0, universe, 3000, dtype=np.uint64))
        if kind == "bucketing":
            filt = Bucketing(keys, universe, bits_per_key=8)
        else:
            filt = Grafite(keys, universe, bits_per_key=24, max_range_size=32, seed=5)
            assert filt._exact == (kind == "grafite-exact")
        ef = filt._ef
        assert ef._decoded is None
        decoded = None
        for size in self.BATCH_SIZES:
            los, his = self._ranges(rng, universe, size, keys)
            got = filt.may_contain_range_batch(los, his)
            want = [filt.may_contain_range(int(lo), int(hi)) for lo, hi in zip(los, his)]
            assert got.tolist() == want, f"{kind}: batch of {size}"
            if decoded is None:
                decoded = ef._decoded
                assert decoded is not None, "the first batch decodes the run"
            assert ef._decoded is decoded, "later batches reuse the decode"
        assert any(want) and not all(want)

    @pytest.mark.parametrize("values", [[], "duplicates"], ids=["empty", "duplicates"])
    def test_sequence_batch_equals_scalar_at_every_batch_size(self, values):
        rng = np.random.default_rng(28)
        universe = 2**12
        if values == "duplicates":
            values = np.sort(rng.integers(0, 600, 3000, dtype=np.uint64))
        ef = EliasFano(values, universe=universe)
        for size in self.BATCH_SIZES:
            los, his = self._ranges(rng, universe, size, np.asarray(values, dtype=np.uint64))
            # A few inverted ranges: empty, so never a hit.
            los[::7], his[::7] = his[::7] + np.uint64(1), los[::7].copy()
            assert (los[::7] > his[::7]).all()
            got = ef.contains_in_range_batch(los, his)
            want = [ef.contains_in_range(int(lo), int(hi)) for lo, hi in zip(los, his)]
            assert got.tolist() == want, f"batch of {size}"


def _ef_layouts():
    """Named ``(values, universe)`` layouts for the scalar kernels: empty
    buckets, duplicates, ``l = 0``, a bucket whose last one is bit 63 of
    an ``H`` word, and a single value (first == last)."""
    rng = np.random.default_rng(31)
    sparse = np.sort(rng.choice(2**40, 300, replace=False)).tolist()
    return {
        "empty_buckets": (sparse, 2**40),
        "duplicates": (np.sort(rng.integers(0, 50, 400)).tolist(), 2**10),
        "l_zero": (sorted(set(rng.integers(0, 90, 80).tolist())), 90),
        # 64 values of high part 0 fill H's word 0 with ones (positions
        # 0..63); bucket 0 ends there and its zero opens word 1.
        "bucket_ends_on_bit_63": ([0] * 30 + [1] * 20 + [3] * 14 + [5, 9, 100, 279], 280),
        # l = 4: bucket 0 holds positions 0..4, bucket 1 is empty, and
        # bucket 2 starts mid-word at 7 and ends on bit 63 too.
        "mid_word_bucket_ends_on_bit_63": (
            [0, 1, 2, 3, 15] + sorted(list(range(32, 48)) * 3 + [40] * 9)
            + [400, 1000], 1024,
        ),
        "single_value": ([77], 2**16),
    }


_LAYOUTS = _ef_layouts()


@st.composite
def _sequences(draw):
    """Sorted values with a universe: clustered (duplicates and full
    buckets), spread (empty buckets) or dense (``l = 0``)."""
    shape = draw(st.sampled_from(["clustered", "spread", "dense"]))
    if shape == "clustered":
        top = draw(st.integers(1, 64))
        values = draw(st.lists(st.integers(0, top), min_size=1, max_size=300))
        universe = top + draw(st.integers(1, 2**12))
    elif shape == "spread":
        universe = draw(st.sampled_from([2**20, 2**40, 2**64]))
        values = draw(st.lists(st.integers(0, universe - 1), min_size=1, max_size=80))
    else:
        universe = draw(st.integers(1, 200))
        values = draw(st.lists(st.integers(0, universe - 1), min_size=universe, max_size=400))
    return sorted(values), universe


class TestScalarAgainstNumpy:
    """The scalar kernels (one ``select0`` plus a scan to the next zero
    per bucket) against a ``searchsorted`` reference on the plain
    values."""

    @staticmethod
    def _check(values, universe):
        ef = EliasFano(values, universe=universe)
        ref = np.asarray(values, dtype=np.uint64)
        highs = ref >> np.uint64(ef.low_bits)
        max_high = (universe - 1) >> ef.low_bits
        for p in range(min(int(highs[-1]) + 1, max_high) + 1):
            want = np.searchsorted(highs, np.uint64(p), "left"), np.searchsorted(
                highs, np.uint64(p), "right")
            assert ef._bucket_bounds(p) == tuple(map(int, want)), f"bucket {p}"
        probes = {0, universe - 1, values[0], values[-1]}
        for v in values[:: max(1, len(values) // 40)]:
            probes.update(y for y in (v - 1, v, v + 1) if 0 <= y < universe)
        width = 1 << ef.low_bits
        probes.update(y for y in list(probes) for y in (y - width, y + width)
                      if 0 <= y < universe)
        probes = sorted(probes)
        ys = np.asarray(probes, dtype=np.uint64)
        right = np.searchsorted(ref, ys, "right")
        left = np.searchsorted(ref, ys, "left")
        for y, r, l in zip(probes, right.tolist(), left.tolist()):
            pred = None if r == 0 else (r - 1, values[r - 1])
            succ = None if l == len(values) else (l, values[l])
            assert ef.predecessor_index(y) == pred, f"predecessor({y})"
            assert ef.successor_index(y) == succ, f"successor({y})"
            assert ef.rank_leq(y) == r
        # Ranges over every pair of neighbouring probes, both widths.
        for lo, hi in zip(probes, probes[1:] + [probes[-1]]):
            for a, b in ((lo, hi), (lo, lo), (hi, hi), (lo + 1, hi)):
                i = int(np.searchsorted(ref, np.uint64(a), "left")) if a < universe else len(values)
                want = i < len(values) and values[i] <= b
                assert ef.contains_in_range(a, b) == (want and a <= b), f"[{a}, {b}]"
        assert [ef.access(i) for i in range(len(values))] == values
        assert ef._decoded is None, "scalar operations decode nothing"

    @pytest.mark.parametrize("name", sorted(_LAYOUTS))
    def test_layouts(self, name):
        values, universe = _LAYOUTS[name]
        self._check(values, universe)

    def test_layouts_hit_the_cases_they_name(self):
        values, universe = _LAYOUTS["l_zero"]
        assert EliasFano(values, universe=universe).low_bits == 0
        for name in ("bucket_ends_on_bit_63", "mid_word_bucket_ends_on_bit_63"):
            values, universe = _LAYOUTS[name]
            ef = EliasFano(values, universe=universe)
            word0 = int(ef._high.bitvector.words[0])
            assert word0 >> 63 == 1 and int(ef._high.bitvector.words[1]) & 1 == 0
        values, universe = _LAYOUTS["empty_buckets"]
        ef = EliasFano(values, universe=universe)
        occupied = {v >> ef.low_bits for v in values}
        assert ef.low_bits > 0 and len(occupied) < ef._high.num_zeros

    @given(_sequences())
    @settings(max_examples=120, deadline=None)
    def test_generated_sequences(self, seq):
        self._check(*seq)


def test_scalar_grafite_probes_leave_the_codes_undecoded():
    """Scalar probes stay succinct: no decoded copy of the codes."""
    from repro.core.grafite import Grafite

    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, 2**40, 2000, dtype=np.uint64))
    filt = Grafite(keys, 2**40, bits_per_key=16, max_range_size=32, seed=1)
    for lo in rng.integers(0, 2**40 - 32, 300).tolist():
        filt.may_contain_range(lo, lo + 31)
    for key in keys[:50].tolist():
        assert filt.may_contain_range(key, key + 5)
    assert filt._ef._decoded is None
