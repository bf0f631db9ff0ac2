"""Rosetta — Robust Space-Time Optimized Range Filter (paper §2, [25]).

One Bloom filter per prefix level: level ``d`` stores every distinct
``d``-bit prefix of the keys. A range query is decomposed into maximal
dyadic intervals; each interval probes the Bloom filter of its level and,
on a positive, recursively "doubts" by decomposing into the two child
intervals of the next level, until the full key length confirms a hit.

Sizing follows [25, §3.1], as summarised in the paper's §5: the last-level
Bloom filter is sized for the target FPR ``eps``, each upper level for a
fixed FPR of ``1/(2 - eps)``, which yields roughly ``1.44 n log2(L/eps)``
bits overall. Given a space budget, we solve that allocation for ``eps``
by bisection. An optional query sample re-weights the upper levels by
observed probe frequency (the paper's "auto-tuned on a sample" setup).

Rosetta is one of the two *robust* filters in the paper's taxonomy: its
FPR does not degrade under correlated workloads, but its query cost is
``O(L log(1/eps))`` worst case — the benchmarks reproduce both facts.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter, as_key_array, sorted_unique
from repro.filters.bloom import BloomFilter, optimal_num_hashes


def dyadic_decomposition(lo: int, hi: int) -> List[Tuple[int, int]]:
    """Split ``[lo, hi]`` into maximal aligned dyadic blocks.

    Returns ``(start, log2_size)`` pairs covering the range exactly; this
    is the classic greedy decomposition every prefix-based range filter
    (Rosetta, bloomRF, REncoder) builds on.
    """
    blocks: List[Tuple[int, int]] = []
    position = lo
    while position <= hi:
        max_align = (position & -position).bit_length() - 1 if position else 63
        level = max_align
        while level > 0 and position + (1 << level) - 1 > hi:
            level -= 1
        while position + (1 << level) - 1 > hi:  # pragma: no cover - safety
            level -= 1
        blocks.append((position, level))
        position += 1 << level
    return blocks


class Rosetta(RangeFilter):
    """The Rosetta range filter.

    Parameters
    ----------
    keys / universe:
        Key set and universe (``W = ceil(log2 u)`` prefix levels exist).
    bits_per_key:
        Space budget ``B``; the per-level allocation is solved from it.
    max_range_size:
        Design bound ``L``; the filter materialises the bottom
        ``log2(L) + 1`` levels, which is what the dyadic decomposition of
        any range of size ``<= L`` needs. Larger ranges fall back to
        enumerating top-level prefixes (capped by ``max_probes``).
    sample_queries:
        Optional iterable of ``(lo, hi)`` ranges; upper-level budgets are
        re-weighted by how often the decomposition probes each level.
    """

    name = "Rosetta"

    def __init__(
        self,
        keys: Sequence[int] | np.ndarray,
        universe: int,
        *,
        bits_per_key: float,
        max_range_size: int = 32,
        sample_queries: Optional[Iterable[Tuple[int, int]]] = None,
        max_probes: int = 8192,
        seed: int = 0,
    ) -> None:
        super().__init__(universe)
        if bits_per_key <= 0:
            raise InvalidParameterError("bits_per_key must be positive")
        if max_range_size < 1:
            raise InvalidParameterError("max_range_size must be >= 1")
        arr = as_key_array(keys, universe)
        self._n = int(arr.size)
        self._W = max(1, (universe - 1).bit_length())
        self._L = int(max_range_size)
        self._max_probes = int(max_probes)
        # Stored prefix lengths: bottom log2(L)+1 levels, at least the leaf.
        depth_span = min(self._W, self._L.bit_length())
        self._levels = list(range(self._W - depth_span + 1, self._W + 1))
        self._blooms: dict[int, BloomFilter] = {}
        if self._n == 0:
            return
        budget = bits_per_key * self._n
        prefix_sets = {
            d: sorted_unique(arr >> np.uint64(self._W - d)) for d in self._levels
        }
        weights = self._level_weights(sample_queries)
        allocation = self._allocate_bits(prefix_sets, budget, weights)
        for d in self._levels:
            items = prefix_sets[d]
            m = max(64, allocation[d])
            k = optimal_num_hashes(m, items.size)
            self._blooms[d] = BloomFilter(m, num_hashes=k, items=items, seed=seed + d)

    # ------------------------------------------------------------------
    # Budget allocation (Rosetta §3.1 tuning, paper §5 summary)
    # ------------------------------------------------------------------
    def _level_weights(
        self, sample_queries: Optional[Iterable[Tuple[int, int]]]
    ) -> dict[int, float]:
        """Relative probe frequency of each upper level on the sample."""
        weights = {d: 1.0 for d in self._levels}
        if sample_queries is None:
            return weights
        counts = {d: 0 for d in self._levels}
        total = 0
        for lo, hi in sample_queries:
            for start, log_size in dyadic_decomposition(lo, hi):
                d = self._W - log_size
                if d in counts:
                    counts[d] += 1
                    total += 1
        if total == 0:
            return weights
        for d in self._levels[:-1]:
            # Levels probed more often deserve proportionally more bits;
            # never starve a level completely (floor at 0.25).
            weights[d] = max(0.25, counts[d] * len(self._levels) / total)
        return weights

    def _allocate_bits(
        self,
        prefix_sets: dict[int, np.ndarray],
        budget: float,
        weights: dict[int, float],
    ) -> dict[int, int]:
        """Solve the [25, §3.1] allocation for the budget by bisection.

        Last level gets ``1.44 n log2(1/eps)`` bits, each upper level ``d``
        gets ``1.44 n_d log2(2 - eps)`` bits (times its sample weight);
        total space is decreasing in ``eps``, so bisection finds the
        ``eps`` that exactly spends the budget.
        """
        leaf = self._levels[-1]
        upper = self._levels[:-1]

        def total_bits(eps: float) -> float:
            last = 1.44 * prefix_sets[leaf].size * math.log2(1.0 / eps)
            rest = sum(
                1.44 * prefix_sets[d].size * math.log2(2.0 - eps) * weights[d]
                for d in upper
            )
            return last + rest

        lo_eps, hi_eps = 1e-12, 1.0 - 1e-12
        if total_bits(hi_eps) > budget:
            # Budget cannot even cover the near-useless configuration:
            # give every level its proportional share and move on.
            sizes = {d: prefix_sets[d].size for d in self._levels}
            total = sum(sizes.values()) or 1
            return {d: max(64, int(budget * sizes[d] / total)) for d in self._levels}
        for _ in range(80):
            mid = math.sqrt(lo_eps * hi_eps)  # geometric: eps spans decades
            if total_bits(mid) > budget:
                lo_eps = mid
            else:
                hi_eps = mid
        eps = hi_eps
        allocation = {
            d: int(1.44 * prefix_sets[d].size * math.log2(2.0 - eps) * weights[d])
            for d in upper
        }
        # The leaf level receives every remaining bit of the budget.
        allocation[leaf] = max(64, int(budget - sum(allocation.values())))
        return allocation

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return self._n

    @property
    def levels(self) -> List[int]:
        """Stored prefix lengths, shallowest first."""
        return list(self._levels)

    @property
    def size_in_bits(self) -> int:
        return sum(b.size_in_bits for b in self._blooms.values())

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def _probe_down(self, prefix: int, depth: int) -> bool:
        """Recursive doubting from a positive dyadic probe."""
        bloom = self._blooms.get(depth)
        if bloom is not None and not bloom.may_contain(prefix):
            return False
        if depth == self._W:
            return True
        return self._probe_down(prefix << 1, depth + 1) or self._probe_down(
            (prefix << 1) | 1, depth + 1
        )

    def may_contain_range(self, lo: int, hi: int) -> bool:
        self._check_range(lo, hi)
        if self._n == 0:
            return False
        top_depth = self._levels[0]
        probes = 0
        for start, log_size in dyadic_decomposition(lo, hi):
            depth = self._W - log_size
            if depth < top_depth:
                # Block is coarser than any stored level: enumerate its
                # top-level children (conservative cap on probe count).
                span = 1 << (top_depth - depth)
                base = (start >> (self._W - depth)) << (top_depth - depth)
                if span > self._max_probes - probes:
                    return True
                for child in range(base, base + span):
                    probes += 1
                    if self._probe_down(child, top_depth):
                        return True
            else:
                probes += 1
                if self._probe_down(start >> log_size, depth):
                    return True
        return False
