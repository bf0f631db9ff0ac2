"""In-memory write buffer of the LSM store.

A plain last-write-wins map plus one sorted view: a ``uint64`` key
column. Real engines use skip lists; at reproduction scale a dict with a
sorted column preserves the same semantics (point reads see the newest
write, flushes emit a sorted run).

The column is kept, not rebuilt. A put of a new key only appends it to
an append-only arrival list; the next read sorts the keys that arrived
since and merges them into the column (a stable sort of the two sorted
runs end to end, which merges them in one pass). At a 2048-key memtable
that is a few µs per read after a block of writes, against ~50 µs for
re-sorting every key from the dict.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

import numpy as np


class _Tombstone:
    """Sentinel marking a deleted key until compaction drops it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()

_NO_KEYS = np.zeros(0, dtype=np.uint64)
_NO_KEYS.flags.writeable = False  # shared by every empty memtable


class MemTable:
    """Sorted write buffer with last-write-wins semantics.

    Keys only ever join the buffer (a delete writes a tombstone) until
    :meth:`clear`, so ``_arrivals`` lists every key once, in arrival
    order, and the column holds its first ``merged`` entries, sorted.
    """

    __slots__ = ("_data", "_arrivals", "_sorted")

    def __init__(self) -> None:
        self._data: dict[int, Any] = {}
        self._arrivals: List[int] = []
        # (column, merged): the sorted key column and how many arrivals
        # it holds, swapped as one pair so a reader never sees a column
        # with the other's count.
        self._sorted: Tuple[np.ndarray, int] = (_NO_KEYS, 0)

    def put(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        if key not in self._data:
            self._arrivals.append(key)
        self._data[key] = value

    def delete(self, key: int) -> None:
        """Mark ``key`` deleted (tombstone survives until compaction)."""
        self.put(key, TOMBSTONE)

    def get(self, key: int) -> Tuple[bool, Any]:
        """Return ``(found_here, value)``; tombstones are found with TOMBSTONE."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def keys_array(self) -> np.ndarray:
        """All keys (live and tombstoned) as a sorted ``uint64`` array.

        The memtable's one sorted view, shared by :meth:`scan`,
        :meth:`values_sorted`, the flush and the columnar batch path.
        Overwrites and deletes of present keys keep it; keys that arrived
        since the last call are merged in. Readers sharing a lock may
        merge at once: each merges the arrivals past the pair it read
        into that pair's column, so every pair it can store holds each
        key once, and a later reader merges whatever an earlier store
        left out.
        """
        column, merged = self._sorted
        arrivals = self._arrivals
        count = len(arrivals)
        if merged == count:
            return column
        fresh = np.array(arrivals[merged:count], dtype=np.uint64)
        fresh.sort()
        column = np.concatenate((column, fresh))
        column.sort(kind="stable")  # two sorted runs: one merge pass
        self._sorted = (column, count)
        return column

    def scan(self, lo: int, hi: int) -> Iterator[Tuple[int, Any]]:
        """Yield ``(key, value)`` pairs in ``[lo, hi]`` in key order."""
        data = self._data
        if not data:  # read-only traffic probes empty memtables
            return
        keys = self.keys_array()
        # One left-side search over both bounds (a uint64 array skips
        # numpy's slow path for Python ints); ``stop`` then steps past a
        # key equal to ``hi``, which keeps ``hi = 2**64-1`` inclusive
        # without ever forming ``hi + 1``.
        start, stop = keys.searchsorted(
            np.array((lo, hi), dtype=np.uint64)
        ).tolist()
        if stop < keys.size and keys[stop] == hi:
            stop += 1
        for key in keys[start:stop].tolist():
            yield key, data[key]

    def values_sorted(self) -> List[Any]:
        """All values (tombstones included), aligned with :meth:`keys_array`.

        A flush encodes them next to the key column as they are
        (:func:`~repro.lsm.sstable.encode_values`), with no
        ``(key, value)`` tuples in between.
        """
        return list(map(self._data.__getitem__, self.keys_array().tolist()))

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self._arrivals = []
        self._sorted = (_NO_KEYS, 0)
