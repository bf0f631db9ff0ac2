"""Grafite — the paper's optimal range filter (§3).

Construction (Algorithm 1):

1. pick the reduced universe ``r = n * L / eps`` and the
   locality-preserving hash ``h`` of equation (1);
2. hash every key, sort and deduplicate the codes;
3. store the codes in an Elias-Fano sequence.

Query (Algorithm 2 plus Footnote 2): a range ``[a, b]`` maps to one or two
hashed intervals; each is checked with a single ``predecessor`` on the
Elias-Fano sequence (conditions (2) of the paper).

Guarantees reproduced here (Theorem 3.4 / Corollary 3.5):

* no false negatives, for any data and any query;
* false positive probability ``<= eps`` for ranges of size ``L`` and
  ``<= ell * eps / L`` for ranges of size ``ell <= L``, *regardless of the
  input and query distribution*;
* space ``n log2(L/eps) + 2n + o(n)`` bits;
* query time ``O(log(L/eps))`` — independent of ``n`` and ``u``.

When the requested ``r`` reaches the original universe size the filter
silently switches to *exact mode*: it Elias-Fano-encodes the keys
themselves and never errs (the paper's remark after Theorem 2.1 — beyond
that point one should just store ``S`` in ``log2(u/n) + 2`` bits per key).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.hashing import LocalityPreservingHash, PowerOfTwoLocalityHash
from repro.errors import InvalidParameterError, InvalidQueryError
from repro.filters.base import RangeFilter, as_key_array, sorted_unique
from repro.succinct.elias_fano import EliasFano


def hashed_query_intervals(
    hasher, r: int, lo: int, hi: int
) -> Tuple[Tuple[int, int], ...]:
    """Map a universe range ``[lo, hi]`` (with ``hi - lo + 1 < r``) to the
    hashed intervals of the reduced universe ``[r]`` it occupies.

    Combines the block-boundary split of Footnote 2 with the wrap-around
    case of conditions (2): the result is one to four plain intervals
    ``(c, d)`` with ``c <= d``; the range is non-empty iff some stored
    code falls in one of them. :meth:`Grafite.may_contain_range` and
    :meth:`Grafite.count_range` probe these intervals on the Elias-Fano
    sequence; callers with another code set can probe them there.
    """
    if lo // r == hi // r:
        segments = ((lo, hi),)
    else:
        boundary = hi - (hi % r)
        segments = ((lo, boundary - 1), (boundary, hi))
    intervals = []
    for seg_lo, seg_hi in segments:
        offset = hasher.hash_block(seg_lo // r)
        h_lo = (offset + seg_lo) % r
        h_hi = (offset + seg_hi) % r
        if h_lo <= h_hi:
            intervals.append((h_lo, h_hi))
        else:  # hashed image wraps around the reduced universe
            intervals.append((h_lo, r - 1))
            intervals.append((0, h_hi))
    return tuple(intervals)


def eps_from_bits_per_key(bits_per_key: float, max_range_size: int) -> float:
    """Invert the space bound: a budget of ``B`` bits/key buys ``eps = L / 2^(B-2)``.

    This is the derivation right before Corollary 3.5.
    """
    if bits_per_key <= 2:
        raise InvalidParameterError(
            f"Grafite needs more than 2 bits per key, got {bits_per_key}"
        )
    return max_range_size / 2.0 ** (bits_per_key - 2)


class Grafite(RangeFilter):
    """The Grafite range filter.

    Parameters
    ----------
    keys:
        Input keys (any order, duplicates allowed) in ``[0, universe)``.
    universe:
        Exclusive key-universe bound ``u``; defaults to ``2^64``.
    eps:
        Target false positive probability for ranges of size
        ``max_range_size``. Mutually exclusive with ``bits_per_key``.
    max_range_size:
        The design range size ``L``. Queries of any size remain valid;
        sizes ``ell <= L`` enjoy FPR ``<= ell*eps/L``, larger sizes degrade
        proportionally (see the discussion after Theorem 3.4).
    bits_per_key:
        Space budget ``B``; sets ``eps = L / 2^(B-2)``. Mutually exclusive
        with ``eps``.
    seed:
        Seeds the hash draw; constructions are reproducible.
    power_of_two_universe:
        Round ``r`` up to a power of two and use the shift/mask hash of §7
        (the string-key extension builds on this).
    """

    name = "Grafite"

    def __init__(
        self,
        keys: Sequence[int] | np.ndarray,
        universe: int = 2**64,
        *,
        eps: Optional[float] = None,
        max_range_size: int = 32,
        bits_per_key: Optional[float] = None,
        seed: Optional[int] = None,
        power_of_two_universe: bool = False,
    ) -> None:
        super().__init__(universe)
        if max_range_size < 1:
            raise InvalidParameterError(f"max_range_size must be >= 1, got {max_range_size}")
        if (eps is None) == (bits_per_key is None):
            raise InvalidParameterError("pass exactly one of eps or bits_per_key")
        if bits_per_key is not None:
            eps = eps_from_bits_per_key(bits_per_key, max_range_size)
        assert eps is not None
        if not 0 < eps:
            raise InvalidParameterError(f"eps must be positive, got {eps}")
        self._L = int(max_range_size)
        self._eps = float(eps)

        arr = as_key_array(keys, universe)
        self._n = len(arr)
        if self._n == 0:
            self._r = 1
            self._exact = False
            self._hash = None
            self._ef = EliasFano([], universe=1)
            return

        r = math.ceil(self._n * self._L / self._eps)
        if power_of_two_universe and r > 1:
            r = 1 << (r - 1).bit_length()
        if r >= universe:
            if universe > 2**64:
                raise InvalidParameterError(
                    "eps too small for a big-integer universe: the exact-mode "
                    "fallback requires a universe of at most 2^64"
                )
            # Exact mode: EF on the raw keys solves the problem with eps=0.
            self._r = universe
            self._exact = True
            self._hash = None
            self._ef = EliasFano(arr, universe=universe)
            return

        self._r = r
        self._exact = False
        if power_of_two_universe:
            self._hash = PowerOfTwoLocalityHash(
                (r - 1).bit_length() if r > 1 else 0, domain=universe, seed=seed
            )
        else:
            self._hash = LocalityPreservingHash(r, domain=universe, seed=seed)
        codes = sorted_unique(self._hash.hash_many(arr))
        self._ef = EliasFano(codes, universe=r)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return self._n

    @property
    def reduced_universe(self) -> int:
        """The hashed universe size ``r = n*L/eps`` (``u`` in exact mode)."""
        return self._r

    @property
    def is_exact(self) -> bool:
        """True when the filter stores the key set losslessly (FPR 0)."""
        return self._exact

    @property
    def eps(self) -> float:
        """The design false-positive probability for ranges of size ``L``."""
        return self._eps

    @property
    def max_range_size(self) -> int:
        return self._L

    @property
    def size_in_bits(self) -> int:
        return self._ef.size_in_bits

    def fpr_bound(self, range_size: int) -> float:
        """Theorem 3.4's bound for a query range of ``range_size`` points."""
        if self._exact or self._n == 0:
            return 0.0
        return min(1.0, self._n * range_size / self._r)

    # ------------------------------------------------------------------
    # Query (Algorithm 2 + Footnote 2)
    # ------------------------------------------------------------------
    def may_contain_range(self, lo: int, hi: int) -> bool:
        self._check_range(lo, hi)
        if self._n == 0:
            return False
        if self._exact:
            return self._ef.contains_in_range(lo, hi)
        if hi - lo + 1 >= self._r:
            # The hashed image of the range covers all of [r]; any stored
            # code is a hit. (FPR bound is 1 here anyway.)
            return True
        return any(
            self._ef.contains_in_range(c, d)
            for c, d in hashed_query_intervals(self._hash, self._r, lo, hi)
        )

    def may_contain_range_batch(
        self, los: Sequence[int] | np.ndarray, his: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Vectorised Algorithm 2 over a batch of query ranges.

        The whole pipeline runs in numpy: the block-boundary split of
        Footnote 2 produces up to two segments per query, each segment's
        block is hashed by one vectorised evaluation of ``q``, wrap-arounds
        become two plain intervals, and all resulting intervals go
        through one vectorised Elias-Fano predecessor
        (:meth:`EliasFano.contains_in_range_batch`). Results are OR-ed
        back per query, so the output matches the scalar
        :meth:`may_contain_range` bit for bit.
        """
        # Big-integer universes (string extension) exceed uint64: take the
        # scalar loop, which handles unbounded Python ints.
        if self._universe > 2**64:
            return super().may_contain_range_batch(los, his)
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
        if self._exact:
            return self._ef.contains_in_range_batch(los_arr, his_arr)
        # uint64 arithmetic below needs headroom: offsets are < r, so
        # (lo % r) + offset must not wrap. r >= 2^63 cannot happen for a
        # sane eps, but fall back to the scalar loop rather than be wrong.
        if self._r >= 2**63:
            return super().may_contain_range_batch(los_arr, his_arr)
        r = np.uint64(self._r)
        result = np.zeros(los_arr.size, dtype=bool)
        # Ranges covering >= r points hash onto all of [r]: always "maybe".
        full = (his_arr - los_arr) >= np.uint64(self._r - 1)
        result[full] = True
        qid = np.flatnonzero(~full)
        if qid.size == 0:
            return result
        q_lo, q_hi = los_arr[qid], his_arr[qid]
        # Footnote 2: split each range at the block boundary it may cross.
        lo_block = q_lo // r
        hi_block = q_hi // r
        split = lo_block != hi_block
        boundary = q_hi - (q_hi % r)
        seg_lo = np.concatenate([q_lo, boundary[split]])
        seg_hi = np.concatenate(
            [np.where(split, boundary - np.uint64(1), q_hi), q_hi[split]]
        )
        seg_qid = np.concatenate([qid, qid[split]])
        # q() is vectorised (:meth:`PairwiseIndependentHash.hash_many`),
        # so every segment hashes its own block: deduplicating blocks
        # first (np.unique) costs more than the evaluations it saves.
        assert self._hash is not None
        offsets = self._hash.hash_blocks(seg_lo // r)
        h_lo = (offsets + (seg_lo % r)) % r
        h_hi = (offsets + (seg_hi % r)) % r
        wrap = h_lo > h_hi  # hashed interval wraps around the reduced universe
        int_lo = np.concatenate([np.where(wrap, np.uint64(0), h_lo), h_lo[wrap]])
        int_hi = np.concatenate([h_hi, np.full(int(wrap.sum()), self._r - 1, dtype=np.uint64)])
        int_qid = np.concatenate([seg_qid, seg_qid[wrap]])
        hits = self._ef.contains_in_range_batch(int_lo, int_hi)
        np.logical_or.at(result, int_qid, hits)
        return result

    # ------------------------------------------------------------------
    # Approximate range counting (end of §3)
    # ------------------------------------------------------------------
    def count_range(self, lo: int, hi: int, adjusted: bool = False) -> int:
        """Approximately count the keys intersecting ``[lo, hi]``.

        The raw estimate is the rank difference at the hashed endpoints
        (§3, final remark): it never undercounts distinct-key matches by
        more than the hash-collision loss, and overcounts by the number of
        colliding outside keys, whose expectation is ``<= ell * n / r``.
        With ``adjusted=True`` that expectation is subtracted.
        """
        self._check_range(lo, hi)
        if self._n == 0:
            return 0
        if self._exact:
            low_rank = self._ef.rank_leq(lo - 1) if lo else 0
            return self._ef.rank_leq(hi) - low_rank
        if hi - lo + 1 >= self._r:
            return self._n
        total = sum(
            self._ef.rank_leq(d) - (self._ef.rank_leq(c - 1) if c else 0)
            for c, d in hashed_query_intervals(self._hash, self._r, lo, hi)
        )
        if adjusted:
            expected_collisions = (hi - lo + 1) * self._n / self._r
            total = max(0, round(total - expected_collisions))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "exact" if self._exact else f"r={self._r}"
        return f"Grafite(n={self._n}, L={self._L}, eps={self._eps:.3g}, {mode})"
