"""Failure injection: malformed inputs and hostile parameters.

A production library's error paths are part of its API: every rejection
here must be a library exception (never a bare TypeError/IndexError from
deep inside numpy), and every accepted boundary value must not corrupt
later answers.
"""

import numpy as np
import pytest

from repro import (
    Bucketing,
    Grafite,
    InvalidKeyError,
    InvalidParameterError,
    InvalidQueryError,
    ReproError,
    StringGrafite,
)
from repro.filters.base import as_key_array
from repro.succinct.elias_fano import EliasFano


class TestKeyValidation:
    def test_keys_above_universe_rejected(self):
        with pytest.raises(InvalidKeyError):
            Grafite([100], 100, eps=0.1)

    def test_negative_keys_rejected(self):
        with pytest.raises(ReproError):
            Grafite([-1], 100, eps=0.1)

    def test_non_integer_keys_rejected(self):
        with pytest.raises(ReproError):
            as_key_array(["a", "b"], 100)

    def test_two_dimensional_keys_rejected(self):
        with pytest.raises(InvalidKeyError):
            as_key_array(np.zeros((2, 2), dtype=np.uint64), 100)

    def test_float_keys_with_integral_values_accepted_by_numpy_cast(self):
        # numpy silently casts float arrays; the library must still
        # produce correct answers for integral floats.
        g = Grafite(np.array([1.0, 5.0]), 100, eps=0.5, seed=0)
        assert g.may_contain(1) and g.may_contain(5)

    def test_zero_universe_rejected_everywhere(self):
        for ctor in (
            lambda: Grafite([1], 0, eps=0.1),
            lambda: Bucketing([1], 0, bucket_size=1),
        ):
            with pytest.raises(ReproError):
                ctor()


class TestParameterBoundaries:
    def test_eps_exactly_one_accepted(self):
        # eps = 1 is degenerate but legal: the filter may answer True always.
        g = Grafite(list(range(64)), 2**20, eps=1.0, max_range_size=1, seed=0)
        for k in range(0, 64, 7):
            assert g.may_contain(k)

    def test_tiny_eps_huge_L_goes_exact(self):
        g = Grafite([5], 2**16, eps=1e-300, max_range_size=2**15, seed=0)
        assert g.is_exact

    def test_universe_of_two(self):
        g = Grafite([0, 1], 2, eps=0.5, max_range_size=1, seed=0)
        assert g.may_contain(0) and g.may_contain(1)

    def test_single_key_single_value_universe_range(self):
        b = Bucketing([0], 1, bucket_size=1)
        assert b.may_contain_range(0, 0)

    def test_max_range_size_one(self):
        g = Grafite([7], 100, eps=0.1, max_range_size=1, seed=0)
        assert g.may_contain_range(7, 7)
        # queries wider than L are legal, just weaker:
        assert isinstance(g.may_contain_range(0, 99), bool)

    def test_bits_per_key_fractional(self):
        g = Grafite(list(range(100)), 2**30, bits_per_key=7.5, max_range_size=8, seed=0)
        assert g.bits_per_key < 10


class TestQueryValidation:
    @pytest.mark.parametrize(
        "bad_range", [(-1, 5), (5, 2**40), (9, 3)]
    )
    def test_bad_ranges_raise_library_errors(self, bad_range):
        g = Grafite([10], 2**40, eps=0.1, seed=0)
        with pytest.raises(InvalidQueryError):
            g.may_contain_range(*bad_range)

    def test_count_range_validates_too(self):
        g = Grafite([10], 2**20, eps=0.1, seed=0)
        with pytest.raises(InvalidQueryError):
            g.count_range(9, 3)

    def test_string_filter_inverted_range(self):
        f = StringGrafite(["m"], eps=0.5, seed=0)
        with pytest.raises(InvalidQueryError):
            f.may_contain_range("z", "a")


class TestEliasFanoEdges:
    def test_universe_one(self):
        ef = EliasFano([0, 0, 0], universe=1)
        assert list(ef) == [0, 0, 0]
        assert ef.predecessor(0) == 0

    def test_single_huge_value(self):
        v = 2**63
        ef = EliasFano([v], universe=2**64)
        assert ef.predecessor(2**64 - 1) == v
        assert ef.successor(0) == v

    def test_probe_beyond_last(self):
        ef = EliasFano([5], universe=2**20)
        assert ef.predecessor(2**20 - 1) == 5
        assert ef.successor(6) is None


class TestAnswerStabilityAfterErrors:
    def test_rejected_query_does_not_corrupt_state(self):
        g = Grafite([500], 1000, eps=0.1, max_range_size=4, seed=0)
        with pytest.raises(InvalidQueryError):
            g.may_contain_range(-5, 5)
        assert g.may_contain(500)
