"""Unit and property tests for the rank/select structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.succinct.bitvector import BitVector
from repro.succinct.rank_select import RankSelect


def naive_rank1(flags, i):
    return sum(flags[:i])


def naive_select(flags, k, bit):
    seen = 0
    for pos, f in enumerate(flags):
        if bool(f) == bit:
            if seen == k:
                return pos
            seen += 1
    raise IndexError


class TestSmallCases:
    def test_counts(self):
        rs = RankSelect(BitVector.from_bools([1, 0, 1, 1, 0]))
        assert rs.num_ones == 3
        assert rs.num_zeros == 2

    def test_rank_boundaries(self):
        rs = RankSelect(BitVector.from_bools([1, 0, 1]))
        assert rs.rank1(0) == 0
        assert rs.rank1(3) == 2
        assert rs.rank0(3) == 1

    def test_rank_out_of_range(self):
        rs = RankSelect(BitVector(5))
        with pytest.raises(IndexError):
            rs.rank1(6)

    def test_select_on_word_boundaries(self):
        positions = [0, 63, 64, 65, 191]
        rs = RankSelect(BitVector.from_positions(192, positions))
        for k, pos in enumerate(positions):
            assert rs.select1(k) == pos

    def test_select0_basic(self):
        rs = RankSelect(BitVector.from_bools([1, 0, 0, 1, 0]))
        assert rs.select0(0) == 1
        assert rs.select0(1) == 2
        assert rs.select0(2) == 4

    def test_select_out_of_range(self):
        rs = RankSelect(BitVector.from_bools([1, 0]))
        with pytest.raises(IndexError):
            rs.select1(1)
        with pytest.raises(IndexError):
            rs.select0(1)

    def test_padding_bits_do_not_leak_into_select0(self):
        # Length 3 vector occupies one 64-bit word; the 61 padding bits
        # must never be reported as zeros of the vector.
        rs = RankSelect(BitVector.from_bools([1, 1, 1]))
        assert rs.num_zeros == 0
        with pytest.raises(IndexError):
            rs.select0(0)

    def test_all_zeros_vector(self):
        rs = RankSelect(BitVector(70))
        assert rs.num_ones == 0
        assert rs.select0(69) == 69

    def test_index_size_reported(self):
        rs = RankSelect(BitVector(1000))
        assert rs.index_size_in_bits > 0


class TestAgainstNaive:
    @given(st.lists(st.booleans(), min_size=1, max_size=500))
    @settings(max_examples=80, deadline=None)
    def test_rank1_matches(self, flags):
        rs = RankSelect(BitVector.from_bools(flags))
        for i in range(0, len(flags) + 1, max(1, len(flags) // 17)):
            assert rs.rank1(i) == naive_rank1(flags, i)

    @given(st.lists(st.booleans(), min_size=1, max_size=500))
    @settings(max_examples=80, deadline=None)
    def test_select1_matches(self, flags):
        rs = RankSelect(BitVector.from_bools(flags))
        for k in range(rs.num_ones):
            assert rs.select1(k) == naive_select(flags, k, True)

    @given(st.lists(st.booleans(), min_size=1, max_size=500))
    @settings(max_examples=80, deadline=None)
    def test_select0_matches(self, flags):
        rs = RankSelect(BitVector.from_bools(flags))
        for k in range(rs.num_zeros):
            assert rs.select0(k) == naive_select(flags, k, False)

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_rank_select_inverse(self, flags):
        rs = RankSelect(BitVector.from_bools(flags))
        for k in range(rs.num_ones):
            pos = rs.select1(k)
            assert rs.rank1(pos) == k
            assert rs.rank1(pos + 1) == k + 1


class TestBatchKernels:
    """The vectorised select/rank columns must equal their scalar loops."""

    @given(st.lists(st.booleans(), min_size=1, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_select1_batch_matches_scalar(self, flags):
        import numpy as np

        rs = RankSelect(BitVector.from_bools(flags))
        if rs.num_ones == 0:
            assert rs.select1_batch(np.zeros(0, dtype=np.int64)).size == 0
            return
        ks = np.arange(rs.num_ones, dtype=np.int64)
        assert rs.select1_batch(ks).tolist() == [rs.select1(int(k)) for k in ks]

    @staticmethod
    def _check_select0(flags):
        import numpy as np

        rs = RankSelect(BitVector.from_bools(flags))
        if rs.num_zeros == 0:
            assert rs.select0_batch(np.zeros(0, dtype=np.int64)).size == 0
            return
        ks = np.arange(rs.num_zeros, dtype=np.int64)
        scalar = [rs.select0(int(k)) for k in ks]
        assert rs.select0_batch(ks).tolist() == scalar
        assert scalar == [pos for pos, f in enumerate(flags) if not f]

    @given(st.lists(st.booleans(), min_size=1, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_select0_batch_matches_scalar(self, flags):
        self._check_select0(flags)

    @pytest.mark.parametrize("words", [
        "0", "1", "01", "10", "101", "010", "0r1", "1r0r1", "r11r", "00r",
    ])
    def test_select0_over_all_zero_and_all_one_words(self, words):
        """Whole 64-bit words of zeros (``0``) or ones (``1``) around
        random words (``r``), with a partial tail word."""
        import numpy as np

        rng = np.random.default_rng(len(words))
        flags = []
        for w in words:
            if w == "r":
                flags.extend((rng.random(64) < 0.5).tolist())
            else:
                flags.extend([w == "1"] * 64)
        for tail in (0, 5):
            self._check_select0(flags + [True, False, True, True, False][:tail])

    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_rank1_batch_matches_scalar(self, flags):
        import numpy as np

        rs = RankSelect(BitVector.from_bools(flags))
        pos = np.arange(len(flags) + 1, dtype=np.int64)
        assert rs.rank1_batch(pos).tolist() == [rs.rank1(int(p)) for p in pos]

    def test_batch_kernels_validate_arguments(self):
        import numpy as np

        rs = RankSelect(BitVector.from_bools([True, False, True]))
        with pytest.raises(IndexError):
            rs.select1_batch(np.asarray([2]))
        with pytest.raises(IndexError):
            rs.select0_batch(np.asarray([-1]))
        with pytest.raises(IndexError):
            rs.rank1_batch(np.asarray([4]))

    def test_unordered_and_duplicate_ranks(self):
        import numpy as np

        flags = [True, False, False, True, True, False, True] * 13
        rs = RankSelect(BitVector.from_bools(flags))
        ks = np.asarray([3, 0, 3, 2, 1, 0], dtype=np.int64)
        assert rs.select1_batch(ks).tolist() == [rs.select1(int(k)) for k in ks]
        assert rs.select0_batch(ks).tolist() == [rs.select0(int(k)) for k in ks]
