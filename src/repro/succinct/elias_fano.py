"""The Elias-Fano quasi-succinct encoding of monotone integer sequences.

Given ``n`` non-decreasing integers from a universe ``[u]``, the encoding
(paper §3, [14, 16]) splits each value into ``l = floor(log2(u / n))`` low
bits, stored verbatim in a packed vector ``V``, and the remaining high
bits, stored in negated-unary form in a bit vector ``H`` where the i-th
value contributes a one at position ``high_i + i``. Total space is at most
``n * ceil(log2(u / n)) + 2n`` bits, plus ``o(n)`` for rank/select.

Grafite (§3) relies on three operations implemented here:

* ``access(i)`` — the i-th smallest value, via ``select1``;
* ``predecessor(y)`` — the largest stored value ``<= y``: one
  ``select0`` finds the start of the "bucket" of values sharing the high
  part of ``y`` and a scan to the next zero of ``H`` its end, then a
  binary search runs on at most ``2^l`` low parts (this is exactly the
  ``O(log(L / eps))`` query cost of Theorem 3.4);
* ``successor(y)`` — the smallest stored value ``>= y`` (used by tests and
  by the approximate-counting extension).

Those are the scalar paper algorithm, and they read the succinct form
only: a scalar probe never decodes the sequence. Batch probes
(``contains_in_range_batch``) instead decode the sequence once and search
the cached ``uint64`` codes: in numpy, a batched succinct predecessor
pays a fixed cost per call that dwarfs the search at every batch size the
engine sends (see ``docs/filters.md``).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.succinct.bitvector import BitVector
from repro.succinct.packed import PackedIntVector
from repro.succinct.rank_select import RankSelect


class EliasFano:
    """Elias-Fano encoding with predecessor/successor support.

    Parameters
    ----------
    values:
        Non-decreasing sequence of integers ``>= 0``. Duplicates are
        allowed (the encoding handles them natively).
    universe:
        Exclusive upper bound ``u`` on the values. Defaults to
        ``max(values) + 1``. The low-bit width is derived from ``u``, so
        passing the true universe keeps the encoding within its space
        bound even when the stored values happen to be small.
    """

    __slots__ = ("_n", "_u", "_l", "_low", "_high", "_first", "_last", "_decoded")

    def __init__(self, values: Sequence[int] | np.ndarray, universe: Optional[int] = None) -> None:
        vals = np.asarray(values, dtype=np.uint64)
        n = int(vals.size)
        if n and vals.size > 1 and bool((vals[1:] < vals[:-1]).any()):
            raise InvalidParameterError("Elias-Fano input must be non-decreasing")
        max_value = int(vals[-1]) if n else 0
        if universe is None:
            universe = max_value + 1 if n else 1
        if universe <= 0:
            raise InvalidParameterError(f"universe must be positive, got {universe}")
        if n and max_value >= universe:
            raise InvalidParameterError(
                f"value {max_value} outside declared universe [0, {universe})"
            )
        self._n = n
        self._u = int(universe)
        self._decoded: Optional[np.ndarray] = None
        if n == 0:
            self._l = 0
            self._low = PackedIntVector(0, [])
            self._high = RankSelect(BitVector(1))
            self._first = None
            self._last = None
            return
        # Low-bit width: floor(log2(u / n)) as in the paper (0 when u <= n).
        ratio = self._u // n
        self._l = ratio.bit_length() - 1 if ratio >= 1 else 0
        l_mask = np.uint64((1 << self._l) - 1) if self._l else np.uint64(0)
        lows = (vals & l_mask) if self._l else np.zeros(n, dtype=np.uint64)
        highs = (vals >> np.uint64(self._l)).astype(np.int64)
        self._low = PackedIntVector(self._l, lows)
        max_high = ((self._u - 1) >> self._l) if self._u > 0 else 0
        high_bits = BitVector.from_positions(
            n + max_high + 1, highs + np.arange(n, dtype=np.int64)
        )
        self._high = RankSelect(high_bits)
        self._first = int(vals[0])
        self._last = int(vals[-1])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def universe(self) -> int:
        return self._u

    @property
    def low_bits(self) -> int:
        """The low-part width ``l`` (the binary-search window is ``2^l``)."""
        return self._l

    @property
    def first(self) -> Optional[int]:
        """Smallest stored value, or ``None`` if the sequence is empty."""
        return self._first

    @property
    def last(self) -> Optional[int]:
        """Largest stored value, or ``None`` if the sequence is empty."""
        return self._last

    @property
    def size_in_bits(self) -> int:
        """Payload bits: low parts plus the high bit vector."""
        return self._low.size_in_bits + self._high.bitvector.size_in_bits

    @property
    def index_size_in_bits(self) -> int:
        """Auxiliary (``o(n)``) bits spent on the rank/select index."""
        return self._high.index_size_in_bits

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(self, i: int) -> int:
        """Return the i-th smallest stored value (0-indexed)."""
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        high = self._high.select1(i) - i
        return (high << self._l) | self._low[i]

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self.access(i)

    # ------------------------------------------------------------------
    # Bucket isolation (shared by predecessor / successor)
    # ------------------------------------------------------------------
    def _bucket_bounds(self, p: int) -> Tuple[int, int]:
        """Return ``[i, j)``, the index range of values whose high part is ``p``.

        Values with high part ``p`` appear as a run of ones between the
        p-th and (p+1)-th zeros of ``H`` (paper §3, step 2 of Figure 2).
        One ``select0`` finds the run's start; its end is the next zero
        after it, found by a scan that reads one word for a short run, as
        in Vigna's quasi-succinct indices, instead of a second select.
        """
        high = self._high
        start = high.select0(p - 1) + 1 if p else 0
        # ``p`` zeros precede both ends, so index = position - p.
        return start - p, high.next_zero(start) - p

    def _last_low_at_most(self, i: int, j: int, y_low: int) -> int:
        """Rightmost index ``t`` in ``[i, j)`` with ``low[t] <= y_low``
        (the caller has checked ``low[i] <= y_low``)."""
        low = self._low
        lo, hi = i, j - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if low[mid] <= y_low:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # ------------------------------------------------------------------
    # Predecessor / successor
    # ------------------------------------------------------------------
    def predecessor_index(self, y: int) -> Optional[Tuple[int, int]]:
        """Return ``(index, value)`` of the largest stored value ``<= y``.

        Returns ``None`` when every stored value is greater than ``y`` (or
        the sequence is empty). This doubles as a rank primitive: the
        returned index plus one is the number of stored values ``<= y``,
        which the approximate-counting extension of §3 uses directly.
        """
        if self._n == 0 or y < self._first:
            return None
        if y >= self._last:
            return self._n - 1, self._last
        p = y >> self._l
        i, j = self._bucket_bounds(p)
        y_low = y & ((1 << self._l) - 1)
        if i < j and self._low[i] <= y_low:
            t = self._last_low_at_most(i, j, y_low)
            return t, (p << self._l) | self._low[t]
        # Bucket p has no value <= y; the predecessor is the last value of
        # an earlier bucket. i >= 1 here because y >= first.
        return i - 1, self.access(i - 1)

    def predecessor(self, y: int) -> Optional[int]:
        """Return the largest stored value ``<= y``, or ``None``."""
        found = self.predecessor_index(y)
        return None if found is None else found[1]

    def successor_index(self, y: int) -> Optional[Tuple[int, int]]:
        """Return ``(index, value)`` of the smallest stored value ``>= y``."""
        if self._n == 0 or y > self._last:
            return None
        if y <= self._first:
            return 0, self._first
        p = y >> self._l
        i, j = self._bucket_bounds(p)
        y_low = y & ((1 << self._l) - 1)
        if i < j and self._low[j - 1] >= y_low:
            # Leftmost index t in [i, j) with low[t] >= y_low.
            lo, hi = i, j - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if self._low[mid] >= y_low:
                    hi = mid
                else:
                    lo = mid + 1
            return lo, (p << self._l) | self._low[lo]
        # No value >= y in bucket p; take the first value of a later
        # bucket. j < n here because y <= last.
        return j, self.access(j)

    def successor(self, y: int) -> Optional[int]:
        """Return the smallest stored value ``>= y``, or ``None``."""
        found = self.successor_index(y)
        return None if found is None else found[1]

    def rank_leq(self, y: int) -> int:
        """Return the number of stored values ``<= y``."""
        found = self.predecessor_index(y)
        return 0 if found is None else found[0] + 1

    def contains_in_range(self, lo: int, hi: int) -> bool:
        """Return ``True`` iff some stored value lies in ``[lo, hi]``.

        This is the emptiness primitive both Grafite and Bucketing reduce
        to: ``predecessor(hi) >= lo``. When ``lo`` and ``hi`` share a
        high part (Grafite's hashed intervals nearly always do), the
        answer is in that one bucket: an earlier bucket's values all lie
        below ``lo``, so no ``access`` of the value before it is needed.
        """
        if lo > hi or self._n == 0 or hi < self._first or lo > self._last:
            return False
        if hi >= self._last or lo <= self._first:
            return True
        p = hi >> self._l
        i, j = self._bucket_bounds(p)
        hi_low = hi & ((1 << self._l) - 1)
        if i < j and self._low[i] <= hi_low:
            t = self._last_low_at_most(i, j, hi_low)
            return ((p << self._l) | self._low[t]) >= lo
        if lo >> self._l == p:
            return False
        # i >= 1: first < lo <= hi, so a value precedes bucket p.
        return self.access(i - 1) >= lo

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------
    def to_array(self) -> np.ndarray:
        """Decode the whole sequence into a sorted ``uint64`` array (cached).

        The batch probe's search space: :meth:`contains_in_range_batch`
        calls it on a sequence's first batch and reuses the array after,
        so a batch-probed sequence keeps ``64n`` bits of codes beside its
        succinct form. The decode is vectorised — low parts via
        :meth:`PackedIntVector.get_many`, high parts by unpacking the
        ``H`` words and subtracting the index from each one-position.
        """
        if self._decoded is None:
            if self._n == 0:
                self._decoded = np.zeros(0, dtype=np.uint64)
            else:
                idx = np.arange(self._n, dtype=np.int64)
                lows = self._low.get_many(idx)
                bits = np.unpackbits(
                    self._high.bitvector.words.view(np.uint8), bitorder="little"
                )
                ones = np.flatnonzero(bits)[: self._n].astype(np.int64)
                highs = (ones - idx).astype(np.uint64)
                self._decoded = (highs << np.uint64(self._l)) | lows
        return self._decoded

    def contains_in_range_batch(
        self, los: np.ndarray, his: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`contains_in_range` over aligned bound arrays.

        Returns a boolean array: entry ``i`` is ``True`` iff some stored
        value lies in ``[los[i], his[i]]``. Empty ranges (``lo > hi``)
        yield ``False``, mirroring the scalar method.

        One kernel: every batch is one ``searchsorted`` over the decoded
        codes (:meth:`to_array`, built by the first batch and cached —
        sequences are immutable and probed batch after batch). A batched
        form of the succinct predecessor costs a fixed ~230 µs per call
        in numpy however few the queries, against a few µs for the
        search; the scalar paper algorithm stays in
        :meth:`contains_in_range`.
        """
        los = np.asarray(los, dtype=np.uint64)
        his = np.asarray(his, dtype=np.uint64)
        if los.shape != his.shape:
            raise InvalidParameterError("lo/hi arrays must have the same shape")
        if self._n == 0 or los.size == 0:
            return np.zeros(los.shape, dtype=bool)
        codes = self.to_array()
        idx = np.searchsorted(codes, his, side="right")
        pred = codes[np.maximum(idx - 1, 0)]  # valid only where idx > 0
        return (idx > 0) & (pred >= los) & (los <= his)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EliasFano(n={self._n}, u={self._u}, l={self._l})"
