"""Fence index over a sliced level: the level read as one fenced run.

Under leveled compaction a level is many key-disjoint slices whose
owning spans tile the shard. Walked slice by slice, a probe pays one
fence check per slice although it can only touch the one or two slices
its range falls in. A :class:`LevelIndex` holds the slices' key bounds
as two sorted lists, so one bisect maps a range to exactly the slices
whose keys it overlaps, as RocksDB's per-level file indexer does.

The store builds the indexes whenever its run set changes and drops the
old ones at that moment (:meth:`~repro.lsm.store.LSMStore._reindex`), so
no index outlives the runs it describes. Reads through an index move
the :class:`~repro.lsm.store.IoStats` ledger and every slice's
``io_reads`` exactly as the per-slice walk would: the store credits the
slices a range does not touch to ``reads_avoided`` in bulk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.lsm.sstable import SSTable


class LevelIndex:
    """Key fences of one sliced level.

    ``_lo`` / ``_hi`` hold the first and last key of every slice that
    holds keys, in level order; ``_slots[i]`` is that slice's position
    in the level, followed by one sentinel (the level's length). Empty
    placeholder slices have no fence and are never touched. Build one
    with :meth:`build`, which returns ``None`` for a level the index
    cannot describe exactly.
    """

    __slots__ = ("_lo", "_hi", "_slots")

    def __init__(self, lo: List[int], hi: List[int], slots: List[int]) -> None:
        self._lo = lo
        self._hi = hi
        self._slots = slots

    @classmethod
    def build(cls, level: Sequence[SSTable]) -> Optional["LevelIndex"]:
        """An index over ``level``, or ``None`` when it is empty, holds a
        run without a span (not a slice), or holds slices whose key
        ranges are not disjoint and in level order. Such a level keeps
        the per-run walk."""
        lo: List[int] = []
        hi: List[int] = []
        slots: List[int] = []
        for p, run in enumerate(level):
            if run.slice_bounds is None:
                return None
            bounds = run.key_bounds
            if bounds is None:
                continue
            if hi and bounds[0] <= hi[-1]:
                return None
            lo.append(bounds[0])
            hi.append(bounds[1])
            slots.append(p)
        slots.append(len(level))
        return cls(lo, hi, slots) if level else None

    def touched(self, lo: int, hi: int) -> Tuple[int, int]:
        """The level positions ``[lo, hi]`` must look at, as a half-open
        range ``(first, stop)``: from the first slice whose keys it
        overlaps to the last (empty when it overlaps none). Every slice
        outside the range is one the per-slice fence check would skip.
        """
        a = bisect_left(self._hi, lo)
        b = bisect_right(self._lo, hi)
        if b <= a:
            return self._slots[a], self._slots[a]
        return self._slots[a], self._slots[b - 1] + 1
