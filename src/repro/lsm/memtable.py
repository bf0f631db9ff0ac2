"""In-memory write buffer of the LSM store.

A plain last-write-wins map plus one sorted view: a cached ``uint64``
key column. Real engines use skip lists; at reproduction scale a dict
with a sorted column preserves the same semantics (point reads see the
newest write, flushes emit a sorted run).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np


class _Tombstone:
    """Sentinel marking a deleted key until compaction drops it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tombstone>"


TOMBSTONE = _Tombstone()


class MemTable:
    """Sorted write buffer with last-write-wins semantics."""

    __slots__ = ("_data", "_keys")

    def __init__(self) -> None:
        self._data: dict[int, Any] = {}
        self._keys: Optional[np.ndarray] = None  # None: a new key arrived

    def put(self, key: int, value: Any) -> None:
        """Insert or overwrite ``key``."""
        if key not in self._data:
            self._keys = None
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
        :meth:`values_sorted` and the columnar batch path. It is rebuilt
        only when a new key arrives; overwrites and deletes of present
        keys keep it.
        """
        if self._keys is None:
            data = self._data
            self._keys = np.sort(
                np.fromiter(data, dtype=np.uint64, count=len(data))
            )
        return self._keys

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
        self._keys = None
