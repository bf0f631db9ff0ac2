"""Bucketing — the paper's deliberately simple heuristic range filter (§4).

The universe is split into buckets of size ``s``; a bit marks each bucket
containing at least one key; the (sparse) set of marked bucket indices is
Elias-Fano encoded. A range ``[a, b]`` is non-empty iff some marked bucket
index lies in ``[a // s, b // s]`` — one predecessor query.

With ``t`` marked buckets the space is ``t * (log2(u / (t s)) + 2)`` bits
and queries take ``O(log(u / (t s)))`` time (Table 1). Like every heuristic
filter, Bucketing gives **no** distribution-free FPR guarantee and degrades
to no filtering under correlated workloads — which is exactly the role it
plays in the paper's experiments.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError, InvalidQueryError
from repro.filters.base import RangeFilter, as_key_array, sorted_unique
from repro.succinct.elias_fano import EliasFano


class Bucketing(RangeFilter):
    """The Bucketing heuristic filter.

    Parameters
    ----------
    keys:
        Input keys in ``[0, universe)``.
    universe:
        Exclusive universe bound ``u``.
    bucket_size:
        The coarseness knob ``s >= 1``: ``s = 1`` encodes the key set
        losslessly, larger ``s`` trades space for false positives.
        Mutually exclusive with ``bits_per_key``.
    bits_per_key:
        Space budget; the constructor searches for the smallest ``s``
        whose encoding fits the budget (doubling then refining).
    """

    name = "Bucketing"

    def __init__(
        self,
        keys: Sequence[int] | np.ndarray,
        universe: int = 2**64,
        *,
        bucket_size: Optional[int] = None,
        bits_per_key: Optional[float] = None,
    ) -> None:
        super().__init__(universe)
        if (bucket_size is None) == (bits_per_key is None):
            raise InvalidParameterError("pass exactly one of bucket_size or bits_per_key")
        arr = as_key_array(keys, universe)
        self._n = int(arr.size)
        if bucket_size is not None:
            if bucket_size < 1:
                raise InvalidParameterError(f"bucket_size must be >= 1, got {bucket_size}")
            self._s = int(bucket_size)
            self._ef = self._encode(arr)
        else:
            if bits_per_key <= 0:
                raise InvalidParameterError(f"bits_per_key must be positive, got {bits_per_key}")
            self._s, self._ef = self._fit_budget(arr, bits_per_key)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _encode(self, arr: np.ndarray) -> EliasFano:
        """Elias-Fano encode the unique marked-bucket indices."""
        bucket_universe = (self._universe - 1) // self._s + 1
        if arr.size == 0:
            return EliasFano([], universe=bucket_universe)
        if self._s == 1:
            marked = arr
        else:
            # Keys fit in uint64 and s >= 1, so integer division is exact.
            marked = sorted_unique(arr // np.uint64(self._s))
        return EliasFano(marked, universe=bucket_universe)

    def _fit_budget(self, arr: np.ndarray, bits_per_key: float) -> tuple[int, EliasFano]:
        """Find the smallest power-of-two ``s`` whose encoding fits the budget.

        The paper leaves the choice of ``s`` to the user; for the space-axis
        sweeps of Figures 4 and 6 we auto-fit: double ``s`` until the
        Elias-Fano size formula fits ``bits_per_key * n`` bits, then build
        the encoding once. The formula is exact (``t*l`` low bits plus the
        ``t + (u_s - 1 >> l) + 1`` high bits), so no trial encodings are
        needed.
        """
        budget_bits = bits_per_key * max(1, arr.size)

        def fits(s: int) -> bool:
            if s >= self._universe:
                return True
            bucket_universe = (self._universe - 1) // s + 1
            t = int(sorted_unique(arr // np.uint64(s)).size) if arr.size else 0
            if t == 0:
                return True
            ratio = bucket_universe // t
            low_bits = ratio.bit_length() - 1 if ratio >= 1 else 0
            size = t * low_bits + t + ((bucket_universe - 1) >> low_bits) + 1
            return size <= budget_bits

        # Binary search the power-of-two exponent (the size formula is
        # monotone in s for all practical inputs): O(log log u) uniques.
        lo_exp, hi_exp = 0, max(1, (self._universe - 1).bit_length())
        if fits(1):
            hi_exp = 0
        while lo_exp < hi_exp:
            mid = (lo_exp + hi_exp) // 2
            if fits(1 << mid):
                hi_exp = mid
            else:
                lo_exp = mid + 1
        self._s = 1 << hi_exp
        return self._s, self._encode(arr)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return self._n

    @property
    def bucket_size(self) -> int:
        """The coarseness parameter ``s``."""
        return self._s

    @property
    def marked_buckets(self) -> int:
        """``t``, the number of non-empty buckets (Table 1's data term)."""
        return len(self._ef)

    @property
    def size_in_bits(self) -> int:
        return self._ef.size_in_bits

    def may_contain_range(self, lo: int, hi: int) -> bool:
        self._check_range(lo, hi)
        if self._n == 0:
            return False
        return self._ef.contains_in_range(lo // self._s, hi // self._s)

    def may_contain_range_batch(self, los, his) -> np.ndarray:
        """Vectorised probe: bucket the bounds, one batch EF predecessor.

        The bucketed bound columns go through
        :meth:`EliasFano.contains_in_range_batch`: one ``searchsorted``
        over the decoded codes, with no per-query Python.
        """
        los_arr = np.asarray(los, dtype=np.uint64)
        his_arr = np.asarray(his, dtype=np.uint64)
        if los_arr.shape != his_arr.shape or los_arr.ndim != 1:
            raise InvalidQueryError(
                "batch queries need equal-length one-dimensional lo/hi arrays"
            )
        if los_arr.size == 0:
            return np.zeros(0, dtype=bool)
        if bool((los_arr > his_arr).any()):
            raise InvalidQueryError("batch query with lo > hi")
        if int(his_arr.max()) >= self._universe:
            raise InvalidQueryError("batch query outside the universe")
        if self._n == 0:
            return np.zeros(los_arr.size, dtype=bool)
        s = np.uint64(self._s)
        return self._ef.contains_in_range_batch(los_arr // s, his_arr // s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bucketing(n={self._n}, s={self._s}, t={self.marked_buckets})"
