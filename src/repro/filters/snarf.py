"""SNARF — Sparse Numerical Array-Based Range Filter (paper §2, [36]).

SNARF learns a monotone estimate of the key CDF from a sample of every
``t``-th sorted key (linear splines between samples), maps each key to a
slot ``f(x) = floor(MCDF(x) * K * n)`` of a bit array with ``K`` slots per
key, sets the slot bits, and compresses the sparse array with Rice-coded
gaps. A range query answers "not empty" iff some set bit falls in
``[f(a), f(b)]``.

Under uniform keys and queries SNARF's FPR is about ``1/K``; under
*correlated* queries the query endpoints map next to the keys' own slots
and filtering collapses — the behaviour Figure 3 documents and our
benchmarks reproduce.

The paper's Footnote 5 reports that the original SNARF implementation can
return *false negatives* due to numeric overflow in the learned model.
Our default uses exact float64 evaluation with clamping (no false
negatives); constructing with ``emulate_float32_defect=True`` evaluates
the model in float32, reproducing the defect class for study.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter, as_key_array, sorted_unique
from repro.succinct.golomb import GolombSequence

#: Slot-count cap: ``MCDF(x) * slots`` stays an exact float64 integer
#: part (and inside int64) in :meth:`SnarfFilter._map_keys`. Budgets
#: with ``K * n`` past it build this many slots.
MAX_SLOTS = 2**53


class SnarfFilter(RangeFilter):
    """The SNARF learned range filter.

    Parameters
    ----------
    keys / universe:
        Key set and universe.
    bits_per_key:
        Space budget ``B``; inverts the paper's ``n log2(K) + 2.4 n``
        model to pick ``K = 2^(B - 2.4)``. Mutually exclusive with ``K``.
        The slot count ``K * n`` is capped at :data:`MAX_SLOTS`.
    K:
        Directly sets the slots-per-key parameter.
    sample_stride:
        Take one spline knot every ``t`` sorted keys (SNARF's ``t``).
    emulate_float32_defect:
        Evaluate the spline in float32 (see module docstring).
    """

    name = "SNARF"

    def __init__(
        self,
        keys: Sequence[int] | np.ndarray,
        universe: int,
        *,
        bits_per_key: Optional[float] = None,
        K: Optional[float] = None,
        sample_stride: int = 100,
        emulate_float32_defect: bool = False,
    ) -> None:
        super().__init__(universe)
        if (bits_per_key is None) == (K is None):
            raise InvalidParameterError("pass exactly one of bits_per_key or K")
        if bits_per_key is not None:
            if bits_per_key <= 2.4:
                raise InvalidParameterError(
                    f"SNARF needs more than 2.4 bits per key, got {bits_per_key}"
                )
            K = 2.0 ** (bits_per_key - 2.4)
        if K < 1:
            raise InvalidParameterError(f"K must be >= 1, got {K}")
        if sample_stride < 1:
            raise InvalidParameterError("sample_stride must be >= 1")
        self._K = float(K)
        self._float32 = bool(emulate_float32_defect)
        arr = as_key_array(keys, universe)
        self._n = int(arr.size)
        if self._n == 0:
            self._slots = 1
            self._min_key = 0
            self._max_key = 0
            self._knot_keys = np.zeros(0)
            self._knot_ranks = np.zeros(0)
            self._bits = GolombSequence([], universe=1)
            return
        # Exact span bounds: the learned model clamps outside the knots,
        # which would map every out-of-span query onto the first/last
        # key's (set) slot — a guaranteed false positive. The reference
        # implementation answers out-of-span queries exactly; these two
        # integers restore that at zero model cost.
        self._min_key = int(arr[0])
        self._max_key = int(arr[-1])
        self._slots = max(1, min(math.ceil(self._K * self._n), MAX_SLOTS))
        self._build_spline(arr, sample_stride)
        slots = sorted_unique(self._map_keys(arr))
        self._bits = GolombSequence(slots, universe=self._slots)

    # ------------------------------------------------------------------
    # Learned model
    # ------------------------------------------------------------------
    def _build_spline(self, sorted_keys: np.ndarray, stride: int) -> None:
        """Knots at every ``stride``-th key, plus both extremes."""
        n = sorted_keys.size
        idx = np.arange(0, n, stride)
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        self._knot_keys = sorted_keys[idx].astype(np.float64)
        self._knot_ranks = idx.astype(np.float64)
        if self._float32:
            self._knot_keys = self._knot_keys.astype(np.float32)
            self._knot_ranks = self._knot_ranks.astype(np.float32)

    def _mcdf(self, values: np.ndarray) -> np.ndarray:
        """Monotone CDF estimate in [0, 1] via linear interpolation."""
        dtype = np.float32 if self._float32 else np.float64
        xs = values.astype(dtype)
        ranks = np.interp(xs, self._knot_keys, self._knot_ranks)
        return ranks / max(1, self._n - 1) if self._n > 1 else np.zeros_like(ranks)

    def _map_keys(self, values: np.ndarray) -> np.ndarray:
        """``f(x) = floor(MCDF(x) * slots)`` clamped into the array."""
        positions = np.floor(self._mcdf(values) * self._slots).astype(np.int64)
        return np.clip(positions, 0, self._slots - 1)

    def _map_scalar(self, value: int) -> int:
        return int(self._map_keys(np.asarray([value], dtype=np.float64))[0])

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return self._n

    @property
    def slots_per_key(self) -> float:
        """The parameter ``K``."""
        return self._K

    @property
    def size_in_bits(self) -> int:
        """Compressed bit array plus the spline knots (64+32 bits each)."""
        model_bits = self._knot_keys.size * (64 + 32)
        return self._bits.size_in_bits + model_bits

    def may_contain_range(self, lo: int, hi: int) -> bool:
        self._check_range(lo, hi)
        if self._n == 0:
            return False
        if hi < self._min_key or lo > self._max_key:
            return False  # outside the key span: exactly empty
        return self._bits.any_in_range(self._map_scalar(lo), self._map_scalar(hi))
