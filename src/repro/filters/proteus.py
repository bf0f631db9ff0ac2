"""Proteus — a self-designing range filter (paper §2, [21]).

Proteus combines two prefix structures:

* a Fast Succinct Trie over all distinct key prefixes of a fixed length
  ``l1`` (unlike SuRF it does not truncate per key);
* a Prefix Bloom Filter over the distinct ``l2``-bit prefixes
  (``l2 > l1``).

A query first checks whether any stored ``l1``-prefix falls in the query's
``l1``-prefix range (exact at that granularity); if so, it probes the
Bloom filter for every ``l2``-prefix slot that both overlaps the query
range and extends a stored ``l1``-prefix, answering "empty" only if every
probe misses.

The pair ``(l1, l2)`` is chosen by an auto-tuner given the keys, a sample
of the query workload, and the space budget. The original paper derives
the choice from the CaRF cost model; we keep the same objective but
estimate the expected FPR of each candidate design directly on the sample
(empirical risk instead of a closed-form model — see DESIGN.md §6). The
paper itself notes Proteus is effectively "auto-tuned on (i.e. overfitted
to) the query workload"; the tuner reproduces exactly that behaviour,
including its degradation when the deployed workload shifts.

Implementation note: the sorted array of ``l1`` prefixes kept alongside
the trie is used for successor search and enumeration; it encodes the
same information as the trie (which answers membership and is what the
space accounting charges), mirroring how the reference implementation
walks its trie with an iterator.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter, as_key_array, sorted_unique
from repro.filters.bloom import BloomFilter, optimal_num_hashes
from repro.filters.fst import FastSuccinctTrie


def _distinct_prefixes(arr: np.ndarray, shift: int) -> np.ndarray:
    if shift >= 64:
        return np.zeros(1, dtype=np.uint64) if arr.size else arr
    return sorted_unique(arr >> np.uint64(shift))


class Proteus(RangeFilter):
    """The Proteus range filter.

    Parameters
    ----------
    keys / universe:
        Key set and universe (``W``-bit keys, ``W`` padded to bytes for
        the trie component).
    bits_per_key:
        Total space budget shared by the trie and the Bloom filter.
    sample_queries:
        Sample of ``(lo, hi)`` ranges used by the auto-tuner. Required
        unless both ``l1`` and ``l2`` are given explicitly.
    l1 / l2:
        Explicit design override. ``l1`` must be a multiple of 8 (the
        trie is byte-oriented; 0 disables the trie), ``l1 < l2 <= W``.
    """

    name = "Proteus"

    def __init__(
        self,
        keys: Sequence[int] | np.ndarray,
        universe: int,
        *,
        bits_per_key: float,
        sample_queries: Optional[Iterable[Tuple[int, int]]] = None,
        l1: Optional[int] = None,
        l2: Optional[int] = None,
        max_probes: int = 2048,
        seed: int = 0,
    ) -> None:
        super().__init__(universe)
        if bits_per_key <= 0:
            raise InvalidParameterError("bits_per_key must be positive")
        arr = as_key_array(keys, universe)
        self._n = int(arr.size)
        bit_width = max(1, (universe - 1).bit_length())
        self._W = ((bit_width + 7) // 8) * 8
        self._max_probes = int(max_probes)
        self._seed = seed
        budget = bits_per_key * max(1, self._n)
        self._prefix_cache: dict[int, np.ndarray] = {}
        if l1 is None or l2 is None:
            if sample_queries is None:
                raise InvalidParameterError(
                    "Proteus needs sample_queries unless (l1, l2) are fixed"
                )
            l1, l2 = self._tune(arr, list(sample_queries), budget)
        self._validate_design(l1, l2)
        self._l1, self._l2 = int(l1), int(l2)
        self._build(arr, budget)
        self._prefix_cache.clear()  # tuning scratch, not part of the filter

    def _validate_design(self, l1: int, l2: int) -> None:
        if l1 % 8 != 0 or not 0 <= l1 < self._W:
            raise InvalidParameterError(f"l1 must be a multiple of 8 in [0, W), got {l1}")
        if not l1 < l2 <= self._W:
            raise InvalidParameterError(f"l2 must satisfy l1 < l2 <= {self._W}, got {l2}")

    # ------------------------------------------------------------------
    # Auto-tuning
    # ------------------------------------------------------------------
    def _cached_prefixes(self, arr: np.ndarray, length: int) -> np.ndarray:
        """Distinct ``length``-bit prefixes, memoised across tuner candidates."""
        cached = self._prefix_cache.get(length)
        if cached is None:
            cached = _distinct_prefixes(arr, self._W - length)
            self._prefix_cache[length] = cached
        return cached

    def _estimate_design_fpr(
        self,
        arr: np.ndarray,
        queries: List[Tuple[int, int]],
        budget: float,
        l1: int,
        l2: int,
    ) -> Optional[float]:
        """Expected FPR of design (l1, l2) on the query sample, or None
        if the trie alone exceeds the budget."""
        W = self._W
        p1 = self._cached_prefixes(arr, l1) if l1 else None
        p2 = self._cached_prefixes(arr, l2)
        trie_bits = 0.0
        if l1:
            # LOUDS-Sparse cost: ~10 bits per edge; edges bounded by the
            # distinct prefixes at each byte depth.
            edges = sum(
                self._cached_prefixes(arr, 8 * d).size
                for d in range(1, l1 // 8 + 1)
            )
            trie_bits = 10.0 * edges
        bloom_bits = budget - trie_bits
        if bloom_bits < 64:
            return None
        k = optimal_num_hashes(int(bloom_bits), p2.size)
        gamma = (1.0 - math.exp(-k * p2.size / bloom_bits)) ** k
        total = 0.0
        for lo, hi in queries:
            if l1:
                a1, b1 = lo >> (W - l1), hi >> (W - l1)
                idx = int(np.searchsorted(p1, a1, side="left"))
                if idx >= p1.size or int(p1[idx]) > b1:
                    continue  # trie filters this query exactly
            a2, b2 = lo >> (W - l2), hi >> (W - l2)
            lo_idx = int(np.searchsorted(p2, a2, side="left"))
            hi_idx = int(np.searchsorted(p2, b2, side="right"))
            if hi_idx > lo_idx:
                # An empty query whose l2-slot holds a real key prefix is a
                # *guaranteed* false positive — the Bloom filter truthfully
                # answers "present" at slot granularity. This term is what
                # pushes the tuner towards fine prefixes on tight budgets.
                total += 1.0
                continue
            slots = b2 - a2 + 1
            total += min(1.0, min(slots, self._max_probes) * gamma)
        return total / max(1, len(queries))

    def _tune(
        self, arr: np.ndarray, queries: List[Tuple[int, int]], budget: float
    ) -> Tuple[int, int]:
        """Grid-search (l1, l2) minimising the sampled FPR estimate."""
        W = self._W
        best: Tuple[float, int, int] = (math.inf, 0, W)
        l1_grid = [l for l in range(0, W, 8)]
        for l1 in l1_grid:
            l2_candidates = sorted(
                set(range(l1 + 4, W + 1, 4)) | {W, min(W, l1 + 8)}
            )
            for l2 in l2_candidates:
                if not l1 < l2 <= W:
                    continue
                fpr = self._estimate_design_fpr(arr, queries, budget, l1, l2)
                if fpr is not None and fpr < best[0]:
                    best = (fpr, l1, l2)
        if math.isinf(best[0]):
            return 0, W  # budget too small for any trie: pure prefix Bloom
        return best[1], best[2]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, arr: np.ndarray, budget: float) -> None:
        W = self._W
        if self._n == 0:
            self._prefixes1 = np.zeros(0, dtype=np.uint64)
            self._trie = FastSuccinctTrie([])
            self._bloom = BloomFilter(64, num_hashes=1, seed=self._seed)
            return
        if self._l1:
            self._prefixes1 = _distinct_prefixes(arr, W - self._l1)
            width_bytes = self._l1 // 8
            strings = [int(p).to_bytes(width_bytes, "big") for p in self._prefixes1]
            self._trie = FastSuccinctTrie(strings)
            trie_bits = self._trie.size_in_bits
        else:
            self._prefixes1 = np.zeros(0, dtype=np.uint64)
            self._trie = FastSuccinctTrie([])
            trie_bits = 0
        prefixes2 = _distinct_prefixes(arr, W - self._l2)
        bloom_bits = max(64, int(budget - trie_bits))
        k = optimal_num_hashes(bloom_bits, prefixes2.size)
        self._bloom = BloomFilter(bloom_bits, num_hashes=k, items=prefixes2, seed=self._seed)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return self._n

    @property
    def design(self) -> Tuple[int, int]:
        """The (l1, l2) prefix lengths in use."""
        return self._l1, self._l2

    @property
    def size_in_bits(self) -> int:
        return self._trie.size_in_bits + self._bloom.size_in_bits

    def may_contain_range(self, lo: int, hi: int) -> bool:
        self._check_range(lo, hi)
        if self._n == 0:
            return False
        W = self._W
        shift2 = W - self._l2
        if self._l1:
            shift1 = W - self._l1
            a1, b1 = lo >> shift1, hi >> shift1
            idx = int(np.searchsorted(self._prefixes1, a1, side="left"))
            if idx >= self._prefixes1.size or int(self._prefixes1[idx]) > b1:
                return False  # exact at l1 granularity
            probes = 0
            # Probe l2 slots only under stored l1 prefixes overlapping the
            # query (this is the trie guiding the Bloom probes).
            while idx < self._prefixes1.size and int(self._prefixes1[idx]) <= b1:
                p1 = int(self._prefixes1[idx])
                block_lo = max(lo, p1 << shift1)
                block_hi = min(hi, ((p1 + 1) << shift1) - 1)
                slot_lo, slot_hi = block_lo >> shift2, block_hi >> shift2
                if probes + (slot_hi - slot_lo + 1) > self._max_probes:
                    return True
                for slot in range(slot_lo, slot_hi + 1):
                    probes += 1
                    if self._bloom.may_contain(slot):
                        return True
                idx += 1
            return False
        # No trie: pure prefix Bloom filter on l2 prefixes.
        slot_lo, slot_hi = lo >> shift2, hi >> shift2
        if slot_hi - slot_lo + 1 > self._max_probes:
            return True
        for slot in range(slot_lo, slot_hi + 1):
            if self._bloom.may_contain(slot):
                return True
        return False
