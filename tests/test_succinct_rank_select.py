"""Unit and property tests for the rank/select structure."""

import numpy as np
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


class TestWholeWordRuns:
    """``select0`` across whole words of zeros or ones (the word search
    over the cumulative counts must skip them exactly)."""

    @staticmethod
    def _check_select0(flags):
        rs = RankSelect(BitVector.from_bools(flags))
        scalar = [rs.select0(k) for k in range(rs.num_zeros)]
        assert scalar == [pos for pos, f in enumerate(flags) if not f]

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


@st.composite
def _word_patterns(draw):
    """Bit vectors built from whole-word patterns (all ones, all zeros,
    a run of ones up to bit 63, random) plus a partial tail."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = []
    for kind in draw(st.lists(st.sampled_from("01er"), min_size=1, max_size=6)):
        if kind == "e":  # ones from a random offset through bit 63
            start = int(rng.integers(0, 64))
            flags.extend([False] * start + [True] * (64 - start))
        elif kind == "r":
            flags.extend((rng.random(64) < 0.5).tolist())
        else:
            flags.extend([kind == "1"] * 64)
    tail = draw(st.integers(0, 63))
    flags.extend((rng.random(tail) < 0.5).tolist())
    return flags


class TestAgainstNumpyReference:
    """Every operation against ``flatnonzero``/``cumsum`` on the bits."""

    @given(_word_patterns())
    @settings(max_examples=120, deadline=None)
    def test_rank_select_and_next_zero(self, flags):
        bits = np.asarray(flags, dtype=bool)
        ones, zeros = np.flatnonzero(bits), np.flatnonzero(~bits)
        rank = np.concatenate(([0], np.cumsum(bits)))
        rs = RankSelect(BitVector.from_bools(flags))
        assert (rs.num_ones, rs.num_zeros) == (ones.size, zeros.size)
        assert [rs.rank1(i) for i in range(bits.size + 1)] == rank.tolist()
        assert [rs.select1(k) for k in range(ones.size)] == ones.tolist()
        assert [rs.select0(k) for k in range(zeros.size)] == zeros.tolist()
        after = np.searchsorted(zeros, np.arange(bits.size))
        for i, z in enumerate(after.tolist()):
            if z < zeros.size:
                assert rs.next_zero(i) == zeros[z], f"next_zero({i})"
            else:
                with pytest.raises(IndexError):
                    rs.next_zero(i)

    def test_next_zero_crosses_whole_words_of_ones(self):
        flags = [False] * 10 + [True] * 54 + [True] * 128 + [False] + [True] * 3
        rs = RankSelect(BitVector.from_bools(flags))
        assert rs.next_zero(10) == 192
        assert rs.next_zero(63) == 192
        assert rs.next_zero(0) == 0
        with pytest.raises(IndexError):
            rs.next_zero(193)  # only padding zeros follow
        with pytest.raises(IndexError):
            rs.next_zero(len(flags))
