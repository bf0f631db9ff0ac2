"""Immutable sorted runs ("SSTables") with per-run range filters.

Each run stores its entries **columnar**: a sorted ``<u8`` key array
plus a typed value column — a one-byte tag, two fixed-width ``<u8``
operand words, an expiry word, and a var-width byte heap for strings,
bytes and pickled opaques. The columns are the single source of truth;
``(key, value)`` tuples are decoded lazily and never materialised on
the hot path. Runs loaded from a snapshot keep their columns as views
over an ``np.memmap`` of the run file, so opening a checkpoint copies no
column into the heap.

A range read returns a :class:`Matches` view (zero-copy over the run's
columns) rather than a rebuilt tuple list, and the run is the only
holder of its columns: the block cache (:mod:`repro.lsm.cache`) records
which blocks are resident and never keeps block data of its own.
Every access that would touch storage still increments the simulated
I/O counter, and the attached range filter — any
:class:`repro.filters.base.RangeFilter` — is consulted *before*
touching the run, which is precisely the deployment the paper's
introduction motivates: filters in memory prevent unnecessary reads of
on-disk runs.
"""

from __future__ import annotations

import itertools
import pickle
import struct
from operator import itemgetter
from typing import (
    Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import CorruptionError, InvalidParameterError
from repro.filters.base import RangeFilter
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.ttl import ExpiringValue

#: Builds a filter for a run: ``factory(keys, universe) -> RangeFilter``.
FilterFactory = Callable[[np.ndarray, int], RangeFilter]

#: Entries per simulated disk block — the granularity the block cache
#: tracks residency in. Fence pointers (the first key of every block)
#: stay in memory, like real SSTable index blocks.
BLOCK_ENTRIES = 256

#: Process-wide run ids. Runs are immutable, so a cache may key on the
#: id forever; ``itertools.count`` is atomic under the GIL, so ids stay
#: unique even when concurrent flushes create runs from pool threads.
_RUN_IDS = itertools.count()

# ----------------------------------------------------------------------
# Typed value column
# ----------------------------------------------------------------------
#: Value-type tags (low 7 bits of the tag byte). Tag 0 is *exactly* a
#: tombstone — the expiry flag is never set on one, so a zeroed column
#: decodes as all-tombstones rather than garbage.
TAG_TOMBSTONE = 0
TAG_NONE = 1
TAG_INT = 2        # signed 64-bit, two's complement in ``va``
TAG_FLOAT = 3      # IEEE-754 bits in ``va``
TAG_BYTES = 4      # heap[va : va+vb]
TAG_STR = 5        # utf-8 in heap[va : va+vb]
TAG_PICKLE = 6     # pickled opaque object in heap[va : va+vb]
TAG_BOOL = 7       # va in {0, 1}

#: Tag flag: the entry is an :class:`ExpiringValue` wrapper; the wrapped
#: type sits in the low bits and ``vexp`` holds ``expires_at``. Keeping
#: the deadline in its own fixed-width column is what makes liveness a
#: vectorised mask instead of a per-entry isinstance walk.
FLAG_EXPIRES = 0x80
_TYPE_MASK = 0x7F

_HEAP_TAGS = (TAG_BYTES, TAG_STR, TAG_PICKLE)
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_U64_MAX = (1 << 64) - 1


def _encode_one(value: Any, heap: bytearray) -> Tuple[int, int, int, int]:
    """Encode one python value into ``(tag, va, vb, vexp)``; heap-typed
    payloads are appended to ``heap`` in entry order, so each block's
    heap references stay contiguous (the property a run file's per-block
    checksum and the compaction merge's heap clipping rely on)."""
    vexp = 0
    flag = 0
    if isinstance(value, ExpiringValue):
        inner, expires = value.value, value.expires_at
        if (
            not isinstance(inner, ExpiringValue)
            and isinstance(expires, int)
            and 0 <= expires <= _U64_MAX
        ):
            flag, vexp = FLAG_EXPIRES, expires
            value = inner
        # else: a pathological wrapper (nested, or a deadline outside
        # u64) round-trips whole through the pickle lane below.
    if value is TOMBSTONE:
        return TAG_TOMBSTONE, 0, 0, 0
    if value is None:
        return TAG_NONE | flag, 0, 0, vexp
    if isinstance(value, bool):
        return TAG_BOOL | flag, int(value), 0, vexp
    if isinstance(value, int) and _INT64_MIN <= value <= _INT64_MAX:
        return TAG_INT | flag, value & _U64_MAX, 0, vexp
    if isinstance(value, float):
        (bits,) = struct.unpack("<Q", struct.pack("<d", value))
        return TAG_FLOAT | flag, bits, 0, vexp
    if isinstance(value, (bytes, bytearray)):
        off = len(heap)
        heap += bytes(value)
        return TAG_BYTES | flag, off, len(value), vexp
    if isinstance(value, str):
        blob = value.encode("utf-8")
        off = len(heap)
        heap += blob
        return TAG_STR | flag, off, len(blob), vexp
    # Genuinely opaque objects (including oversized ints) take the
    # pickle lane — per value, never whole-run.
    blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    off = len(heap)
    heap += blob
    return TAG_PICKLE | flag, off, len(blob), vexp


#: Exact python types :func:`encode_values` encodes in columns, mapped to
#: their tag: the kinds a flush of a bytes-valued workload holds. Any
#: other kind (a number, a str, an :class:`ExpiringValue`, a subclass, an
#: opaque object) sends the column down the per-value lane.
_COLUMN_TAGS = {
    type(TOMBSTONE): TAG_TOMBSTONE,
    type(None): TAG_NONE,
    bytes: TAG_BYTES,
    bytearray: TAG_BYTES,
}


def encode_values(
    values: Sequence[Any],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bytes]:
    """Encode a value sequence into the typed columns + heap.

    A column of bytes (with tombstones and ``None`` mixed in, or not) is
    encoded with array operations: one type pass yields the tags, the
    heap is one ``b"".join`` and its offsets are a ``cumsum`` of the
    lengths. A column holding any other kind goes through
    :func:`_encode_one` one value at a time. Both lanes produce
    byte-identical columns and heap.
    """
    n = len(values)
    va = np.zeros(n, dtype=np.uint64)
    vb = np.zeros(n, dtype=np.uint64)
    vexp = np.zeros(n, dtype=np.uint64)
    kinds = set(map(type, values))
    if not kinds.issubset(_COLUMN_TAGS):
        tags = np.zeros(n, dtype=np.uint8)
        heap_buf = bytearray()
        for i, value in enumerate(values):
            tags[i], va[i], vb[i], vexp[i] = _encode_one(value, heap_buf)
        return tags, va, vb, vexp, bytes(heap_buf)
    if len(kinds) == 1:  # one tag fill
        tags = np.full(n, _COLUMN_TAGS[kinds.pop()], dtype=np.uint8)
    else:
        tags = np.fromiter(
            map(_COLUMN_TAGS.__getitem__, map(type, values)),
            dtype=np.uint8, count=n,
        )
    heap_mask = tags == TAG_BYTES
    count = int(np.count_nonzero(heap_mask))
    if not count:
        return tags, va, vb, vexp, b""
    blobs = values if count == n else list(
        itertools.compress(values, heap_mask.tolist())
    )
    lengths = np.fromiter(map(len, blobs), dtype=np.uint64, count=count)
    offsets = np.zeros(count, dtype=np.uint64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    va[heap_mask] = offsets
    vb[heap_mask] = lengths
    return tags, va, vb, vexp, b"".join(blobs)


_U64 = struct.Struct("<Q")
_BYTES_HEAD = bytes((TAG_BYTES,))


def pack_value(value: Any) -> bytes:
    """One value in the typed encoding as a self-contained byte string:
    ``tag (u8) | [vexp (u64) iff FLAG_EXPIRES] | body``.

    The body is 8 bytes of ``va`` for an int or float, one byte for a
    bool, nothing for ``None``, and the heap bytes for bytes, str and
    pickled opaque objects — the same words a run stores, so
    :func:`unpack_value` returns what a run returns after a flush. The
    tombstone is not a value and raises :class:`InvalidParameterError`.
    """
    if type(value) is bytes:  # the common kind, without a heap copy
        return _BYTES_HEAD + value
    heap = bytearray()
    tag, va, _vb, vexp = _encode_one(value, heap)
    head = bytes((tag,))
    if tag & FLAG_EXPIRES:
        head += _U64.pack(vexp)
    kind = tag & _TYPE_MASK
    if kind in _HEAP_TAGS:
        return head + heap
    if kind == TAG_INT or kind == TAG_FLOAT:
        return head + _U64.pack(va)
    if kind == TAG_BOOL:
        return head + (b"\x01" if va else b"\x00")
    if kind == TAG_NONE:
        return head
    raise InvalidParameterError("the tombstone has no value encoding")


def unpack_value(buf: bytes) -> Any:
    """Decode a :func:`pack_value` string; :class:`CorruptionError` on an
    unknown tag or a body whose length does not fit its tag (unpickling
    an opaque value may raise whatever ``pickle.loads`` raises)."""
    if not buf:
        raise CorruptionError("value without a tag")
    tag = buf[0]
    start, vexp = 1, 0
    if tag & FLAG_EXPIRES:
        if len(buf) < start + _U64.size:
            raise CorruptionError("expiring value without its expiry")
        (vexp,) = _U64.unpack_from(buf, start)
        start += _U64.size
    body = buf[start:]
    kind = tag & _TYPE_MASK
    va = 0
    if kind == TAG_INT or kind == TAG_FLOAT:
        if len(body) != _U64.size:
            raise CorruptionError(f"tag {tag} body of {len(body)} bytes")
        (va,) = _U64.unpack(body)
    elif kind == TAG_BOOL:
        if body not in (b"\x00", b"\x01"):
            raise CorruptionError(f"bool body {body!r}")
        va = body[0]
    elif kind == TAG_NONE:
        if body:
            raise CorruptionError(f"None body of {len(body)} bytes")
    elif kind not in _HEAP_TAGS:
        raise CorruptionError(f"unknown value tag {tag}")
    return decode_value(tag, va, len(body), vexp, body)


def decode_value(tag: int, va: int, vb: int, vexp: int, heap) -> Any:
    """Decode one ``(tag, va, vb, vexp)`` entry back to a python value.

    ``heap`` may be any buffer holding the run's heap bytes, which this
    entry references at ``heap[va : va+vb]``. The tombstone decodes to
    the identity singleton.
    """
    kind = tag & _TYPE_MASK
    if kind == TAG_TOMBSTONE:
        return TOMBSTONE
    if kind == TAG_NONE:
        value: Any = None
    elif kind == TAG_BOOL:
        value = bool(va)
    elif kind == TAG_INT:
        value = va - (1 << 64) if va > _INT64_MAX else va
    elif kind == TAG_FLOAT:
        (value,) = struct.unpack("<d", struct.pack("<Q", va))
    else:
        blob = bytes(memoryview(heap)[va:va + vb])
        if len(blob) != vb:
            raise CorruptionError("value heap reference out of bounds")
        if kind == TAG_BYTES:
            value = blob
        elif kind == TAG_STR:
            value = blob.decode("utf-8")
        elif kind == TAG_PICKLE:
            value = pickle.loads(blob)
        else:
            raise CorruptionError(f"unknown value tag {kind}")
    if tag & FLAG_EXPIRES:
        return ExpiringValue(value, vexp)
    return value


def _max_expiry_from_columns(tags: np.ndarray, vexp: np.ndarray) -> Optional[int]:
    """Largest expiry stamp in a run, or ``None`` when it never expires.

    ``None`` means at least one non-tombstone entry has no TTL — the run
    holds data that lives forever, so it can never age out wholesale.
    Tombstones are ignored: a run of expired entries plus tombstones is
    still droppable at the bottom of the store (tombstones there shadow
    nothing).
    """
    live = tags != TAG_TOMBSTONE
    if not bool(live.any()):
        return 0
    live_tags = tags[live]
    if bool(((live_tags & FLAG_EXPIRES) == 0).any()):
        return None
    return int(vexp[live].max())


def _u64(bound: int):
    """A key bound for ``np.searchsorted`` over a ``uint64`` key column.

    numpy compares a Python ``int`` against a ``uint64`` array through a
    slow generic path (tens of microseconds on a 200k-key run against a
    few for an ``np.uint64``). Bounds outside ``[0, 2**64)`` stay Python
    ints, which numpy still orders correctly.
    """
    return np.uint64(bound) if 0 <= bound <= _U64_MAX else bound


def _live_mask(tags: np.ndarray, vexp: np.ndarray, now: int) -> np.ndarray:
    """Vectorised liveness at logical time ``now``: not a tombstone, and
    either immortal or not yet expired (``now < expires_at``)."""
    mask = tags != TAG_TOMBSTONE
    expiring = (tags & FLAG_EXPIRES) != 0
    if bool(expiring.any()):
        mask &= ~expiring | (vexp > np.uint64(now))
    return mask


# ----------------------------------------------------------------------
# Zero-copy range view
# ----------------------------------------------------------------------
class Matches:
    """Lazy result of a range read: entries ``[start, stop)`` of a run's
    columns, presented as one sequence of ``(key, value)`` entries and
    decoded only on access.

    It holds the column arrays, not the run, so a result stays readable
    whatever becomes of the run. Compares equal to a materialised tuple
    list (callers that want lists get them via ``list(m)``).
    """

    __slots__ = ("_keys", "_tags", "_va", "_vb", "_vexp", "_heap",
                 "_start", "_stop")

    def __init__(self, keys, tags, va, vb, vexp, heap, start: int, stop: int):
        self._keys = keys
        self._tags = tags
        self._va = va
        self._vb = vb
        self._vexp = vexp
        self._heap = heap
        self._start = start
        self._stop = max(start, stop)

    def __len__(self) -> int:
        return self._stop - self._start

    def __bool__(self) -> bool:
        return self._stop > self._start

    def _entry(self, i: int) -> Tuple[int, Any]:
        return int(self._keys[i]), decode_value(
            int(self._tags[i]), int(self._va[i]), int(self._vb[i]),
            int(self._vexp[i]), self._heap,
        )

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        for i in range(self._start, self._stop):
            yield self._entry(i)

    def __getitem__(self, index: int) -> Tuple[int, Any]:
        n = self._stop - self._start
        if not -n <= index < n:
            raise IndexError("Matches index out of range")
        return self._entry(self._start + index % n)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, Matches)):
            return list(self) == list(other)
        return NotImplemented

    def keys_ints(self) -> List[int]:
        """All matched keys as python ints (no value decode)."""
        return self._keys[self._start:self._stop].tolist()

    def _live(self, now: int) -> np.ndarray:
        window = slice(self._start, self._stop)
        return _live_mask(self._tags[window], self._vexp[window], now)

    def any_live(self, now: int) -> bool:
        """Vectorised: is any matched entry live at time ``now``? Never
        decodes a value — the emptiness-probe fast path."""
        return bool(self._live(now).any())

    def items_with_liveness(self, now: int) -> Iterator[Tuple[int, bool]]:
        """Stream ``(key, is_live)`` without decoding values — the
        shadowed-set walk of ``range_empty`` needs nothing more."""
        return zip(self.keys_ints(), self._live(now).tolist())


class SSTable:
    """An immutable sorted run of ``(key, value)`` entries.

    A run may additionally be a leveled *slice*: ``slice_bounds`` then
    records the key span the slice owns inside its level. Owning spans
    of a level's slices partition the universe — they are the routing
    metadata leveled compaction uses to merge a level-0 run into only
    the slices it overlaps — and may be wider than the slice's actual
    :attr:`key_bounds` (a slice can own a span no key currently sits in).
    """

    __slots__ = (
        "_keys", "_tags", "_va", "_vb", "_vexp", "_heap", "_filter",
        "io_reads", "universe", "uid", "slice_bounds", "max_expiry",
        "shared_id",
    )

    def __init__(
        self,
        entries: Sequence[Tuple[int, Any]],
        universe: int,
        filter_factory: Optional[FilterFactory] = None,
        *,
        slice_bounds: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._keys = np.fromiter(
            map(itemgetter(0), entries), dtype=np.uint64, count=len(entries)
        )
        if self._keys.size > 1 and bool((self._keys[1:] <= self._keys[:-1]).any()):
            raise ValueError("SSTable entries must be sorted by strictly increasing key")
        self._tags, self._va, self._vb, self._vexp, self._heap = encode_values(
            list(map(itemgetter(1), entries))
        )
        self.universe = int(universe)
        self.io_reads = 0
        self.uid = next(_RUN_IDS)
        self.slice_bounds = slice_bounds
        self.max_expiry = _max_expiry_from_columns(self._tags, self._vexp)
        self.shared_id = None
        self._filter = (
            filter_factory(self._keys, self.universe) if filter_factory else None
        )

    @classmethod
    def from_columns(
        cls,
        keys: np.ndarray,
        tags: np.ndarray,
        va: np.ndarray,
        vb: np.ndarray,
        vexp: np.ndarray,
        heap,
        universe: int,
        filt: Optional[RangeFilter] = None,
        *,
        slice_bounds: Optional[Tuple[int, int]] = None,
    ) -> "SSTable":
        """Adopt already-encoded columns zero-copy (the mmap load path).

        Column views over an ``np.memmap`` keep the mapping alive for as
        long as the run, or any :class:`Matches` read from it, holds them.
        """
        run = cls.__new__(cls)
        run._keys = np.asarray(keys, dtype=np.uint64)
        if run._keys.size > 1 and bool((run._keys[1:] <= run._keys[:-1]).any()):
            raise ValueError("SSTable entries must be sorted by strictly increasing key")
        n = run._keys.size
        run._tags = np.asarray(tags, dtype=np.uint8)
        run._va = np.asarray(va, dtype=np.uint64)
        run._vb = np.asarray(vb, dtype=np.uint64)
        run._vexp = np.asarray(vexp, dtype=np.uint64)
        if not (run._tags.size == run._va.size == run._vb.size
                == run._vexp.size == n):
            raise ValueError("value columns must match the key column length")
        run._heap = heap
        run.universe = int(universe)
        run.io_reads = 0
        run.uid = next(_RUN_IDS)
        run.slice_bounds = slice_bounds
        run.max_expiry = _max_expiry_from_columns(run._tags, run._vexp)
        run.shared_id = None
        run._filter = filt
        return run

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._keys.size)

    @property
    def filter(self) -> Optional[RangeFilter]:
        return self._filter

    @property
    def key_bounds(self) -> Optional[Tuple[int, int]]:
        if self._keys.size == 0:
            return None
        return int(self._keys[0]), int(self._keys[-1])

    @property
    def filter_bits(self) -> int:
        return self._filter.size_in_bits if self._filter else 0

    @property
    def nbytes(self) -> int:
        """Simulated on-disk size: 8 key bytes + 8 value-slot bytes per
        entry (the unit :attr:`IoStats.bytes_compacted` accounts in)."""
        return int(self._keys.size) * 16

    def keys_view(self) -> np.ndarray:
        """The sorted key column, zero-copy and free of simulated I/O.

        Compaction *planning* and the columnar batch router read this to
        route keys without charging a run read — only merges and probes
        that actually resolve data touch the simulated disk.
        """
        return self._keys

    def value_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Any]:
        """The typed value columns ``(tags, va, vb, vexp, heap)``,
        zero-copy — the persistence writer serialises these directly."""
        return self._tags, self._va, self._vb, self._vexp, self._heap

    @property
    def heap_nbytes(self) -> int:
        return len(self._heap)

    def fully_expired(self, now: int) -> bool:
        """Whether every entry of this run is dead at logical time ``now``.

        True only when the run is non-empty and every non-tombstone
        entry carries an expiry stamp at or before ``now``
        (:attr:`max_expiry` caches the largest stamp at construction, so
        this is O(1)). Such a run at the *bottom* of a store — nothing
        older beneath it to unshadow — can be aged out whole without
        rewriting a byte: the metadata-only ``"expire"`` compaction step
        (see :meth:`repro.lsm.store.LSMStore.compact_step`).
        """
        return (
            self._keys.size > 0
            and self.max_expiry is not None
            and self.max_expiry <= now
        )

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether ``[lo, hi]`` intersects this run's actual key bounds.

        A pure fence-pointer check (no filter, no simulated I/O): exact
        pruning for runs — notably leveled slices — whose key range lies
        entirely outside the probe.
        """
        if self._keys.size == 0:
            return False
        return int(self._keys[0]) <= hi and lo <= int(self._keys[-1])

    # ------------------------------------------------------------------
    # Filter consultation
    # ------------------------------------------------------------------
    def may_contain_range(self, lo: int, hi: int) -> bool:
        """Consult the in-memory filter; True means "must read the run"."""
        if self._filter is None:
            return True
        return self._filter.may_contain_range(lo, hi)

    # ------------------------------------------------------------------
    # "Disk" access (each call counts one simulated I/O)
    # ------------------------------------------------------------------
    def get(self, key: int) -> Tuple[bool, Any]:
        """Point lookup; counts one I/O."""
        self.io_reads += 1
        idx = int(np.searchsorted(self._keys, _u64(key)))
        if idx < self._keys.size and int(self._keys[idx]) == key:
            return True, self._decode(idx)
        return False, None

    def _decode(self, i: int) -> Any:
        return decode_value(
            int(self._tags[i]), int(self._va[i]), int(self._vb[i]),
            int(self._vexp[i]), self._heap,
        )

    def scan(self, lo: int, hi: int, *, charge: bool = True) -> Matches:
        """Range scan; counts one I/O (a run read), returns a lazy
        zero-copy :class:`Matches` view of the matching entries.

        ``charge=False`` skips the I/O count: a cached store charges the
        device through the cache's block misses instead.
        """
        if charge:
            self.io_reads += 1
        start = int(np.searchsorted(self._keys, _u64(lo), side="left"))
        stop = int(np.searchsorted(self._keys, _u64(hi), side="right"))
        return Matches(self._keys, self._tags, self._va, self._vb,
                       self._vexp, self._heap, start, stop)

    def scan_batch(
        self, los: np.ndarray, his: np.ndarray, now: int, *, charge: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Range scans of every ``[los[j], his[j]]`` at once; counts one
        I/O per range, as that many :meth:`scan` calls would (none with
        ``charge=False``, as for :meth:`scan`).

        ``los``/``his`` are ``uint64`` columns. One ``searchsorted`` pair
        locates every range and one gather of the matched entries' tag
        and expiry columns reduces liveness per range. Returns ``(starts,
        stops, live)``: range ``j`` matched entries ``starts[j]:stops[j]``
        and ``live[j]`` says whether any of them is live at logical time
        ``now``.
        """
        if charge:
            self.io_reads += int(los.size)
        starts = np.searchsorted(self._keys, los, side="left")
        stops = np.searchsorted(self._keys, his, side="right")
        counts = stops - starts
        live = np.zeros(los.size, dtype=bool)
        hit = np.flatnonzero(counts)
        if hit.size:
            seg = counts[hit]
            first = np.cumsum(seg) - seg  # each range's offset in the gather
            flat = np.repeat(starts[hit] - first, seg) + np.arange(int(seg.sum()))
            mask = _live_mask(self._tags[flat], self._vexp[flat], now)
            live[hit] = np.logical_or.reduceat(mask, first)
        return starts, stops, live

    def entries(self) -> List[Tuple[int, Any]]:
        """Full decoded dump; counts one I/O."""
        self.io_reads += 1
        return [
            (int(self._keys[i]), self._decode(i))
            for i in range(self._keys.size)
        ]

    # ------------------------------------------------------------------
    # Block geometry (the unit the block cache works in)
    # ------------------------------------------------------------------
    @property
    def block_count(self) -> int:
        """Number of :data:`BLOCK_ENTRIES`-sized blocks in the run."""
        return -(-self._keys.size // BLOCK_ENTRIES)

    def block_span(self, lo: int, hi: int) -> Optional[Tuple[int, int]]:
        """Blocks a reader must fetch to resolve ``[lo, hi]``, from the
        in-memory fence pointers alone (no simulated I/O).

        Returns an inclusive ``(first, last)`` block-index pair, or
        ``None`` when the fences prove the range precedes all stored
        keys. Fences only record each block's *first* key, so a range
        beyond the last key still costs one block read — exactly the
        wasted read a real fence-pointer index would incur.
        """
        if self._keys.size == 0 or lo > hi:
            return None
        fences = self._keys[::BLOCK_ENTRIES]
        # Block whose first key <= bound, i.e. the candidate block.
        first = int(np.searchsorted(fences, _u64(lo), side="right")) - 1
        last = int(np.searchsorted(fences, _u64(hi), side="right")) - 1
        if last < 0:
            return None  # the whole range sits before the first key
        return max(first, 0), last

    def block_spans(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`block_span` of every ``[los[j], his[j]]`` at once.

        ``los``/``his`` are ``uint64`` columns with ``los <= his``.
        Returns ``int64`` columns ``(first, last)``: range ``j`` touches
        blocks ``first[j]..last[j]``, none when ``last[j] < first[j]``
        (where :meth:`block_span` says ``None``).
        """
        fences = self._keys[::BLOCK_ENTRIES]
        first = np.searchsorted(fences, los, side="right").astype(np.int64) - 1
        last = np.searchsorted(fences, his, side="right").astype(np.int64) - 1
        return np.maximum(first, 0), last


# ----------------------------------------------------------------------
# Columnar merge (the compaction kernel)
# ----------------------------------------------------------------------
class Columns(NamedTuple):
    """Entries as typed columns: strictly increasing ``keys``, the value
    columns, and the ``heap`` the heap-typed entries' ``va`` index into.

    A merge's heap is a ``uint8`` array that may hold bytes no surviving
    entry references; :func:`split_columns` gathers compact per-run
    heaps out of it.
    """

    keys: np.ndarray
    tags: np.ndarray
    va: np.ndarray
    vb: np.ndarray
    vexp: np.ndarray
    heap: Any


def _heap_mask(tags: np.ndarray) -> np.ndarray:
    """Which entries reference the heap (bytes, str or pickle, with or
    without the expiry flag)."""
    kind = tags & _TYPE_MASK
    return (kind >= TAG_BYTES) & (kind <= TAG_PICKLE)


def _empty_columns() -> Columns:
    empty = np.zeros(0, dtype=np.uint64)
    return Columns(empty, np.zeros(0, dtype=np.uint8), empty, empty, empty,
                   np.zeros(0, dtype=np.uint8))


def merge_columns(
    runs: Sequence[SSTable],
    *,
    drop_tombstones: bool,
    span: Optional[Tuple[int, int]] = None,
    expire_before: Optional[int] = None,
) -> Columns:
    """Columnar k-way merge of runs, newest first, last-write-wins per key.

    ``runs`` must be ordered newest to oldest; each counts one I/O. One
    ``searchsorted`` pair clips every input to ``span`` (``[lo, hi]``,
    both inclusive; ``None`` means unrestricted). The clipped key and
    value columns are concatenated with an age column, one
    ``np.lexsort((age, keys))`` orders them, and the first occurrence
    of each key — its newest version — survives. Values are never
    decoded: heap-typed survivors keep their ``va`` rebased into the
    returned heap, the concatenation of each input's clipped heap span.

    ``expire_before`` is the store's logical TTL clock: a survivor with
    an expiry stamp at or before it becomes a tombstone, which keeps
    shadowing older versions of its key until it reaches the bottom,
    where ``drop_tombstones`` discards it like any other delete. Unflagged
    pickle-lane survivors are the one decode: a nested or out-of-range
    :class:`ExpiringValue` is pickled whole, so its stamp is read from
    the blob. ``None`` disables expiry (TTL-free callers).
    """
    lo, hi = span if span is not None else (None, None)
    parts = []
    heaps = []
    heap_size = 0
    for age, run in enumerate(runs):
        run.io_reads += 1
        keys = run._keys
        start = (
            0 if lo is None
            else int(np.searchsorted(keys, _u64(lo), side="left"))
        )
        stop = (
            keys.size if hi is None
            else int(np.searchsorted(keys, _u64(hi), side="right"))
        )
        if stop <= start:
            continue
        tags = run._tags[start:stop]
        va = run._va[start:stop]
        vb = run._vb[start:stop]
        uses = _heap_mask(tags)
        first = int(uses.argmax())
        if uses[first]:
            # Writers append heap payloads in entry order, so the clipped
            # entries' span runs from the first heap entry's offset to
            # the last one's end.
            last = uses.size - 1 - int(uses[::-1].argmax())
            h_lo = int(va[first])
            h_hi = int(va[last]) + int(vb[last])
            if h_hi > len(run._heap):
                raise CorruptionError("value heap reference out of bounds")
            heaps.append(np.frombuffer(run._heap, dtype=np.uint8)[h_lo:h_hi])
            shift = heap_size - h_lo
            if shift:
                va = va.copy()
                op = np.add if shift > 0 else np.subtract
                op(va, np.uint64(abs(shift)), out=va, where=uses)
            heap_size += h_hi - h_lo
        parts.append((keys[start:stop], tags, va, vb, run._vexp[start:stop], age))
    if not parts:
        return _empty_columns()
    heap = np.concatenate(heaps) if heaps else np.zeros(0, dtype=np.uint8)
    if len(parts) == 1:
        keys, tags, va, vb, vexp, _ = parts[0]
    else:
        keys = np.concatenate([p[0] for p in parts])
        age = np.concatenate([
            np.full(p[0].size, p[5], dtype=np.int32) for p in parts
        ])
        order = np.lexsort((age, keys))
        keys = keys[order]
        newest = np.ones(keys.size, dtype=bool)
        newest[1:] = keys[1:] != keys[:-1]
        pick = order[newest]
        keys = keys[newest]
        tags, va, vb, vexp = (
            np.concatenate([p[i] for p in parts])[pick] for i in range(1, 5)
        )
    if expire_before is not None:
        dead = np.zeros(keys.size, dtype=bool)
        if expire_before >= 0:
            dead = ((tags & FLAG_EXPIRES) != 0) & (
                vexp <= np.uint64(min(expire_before, _U64_MAX))
            )
        for i in np.flatnonzero(tags == TAG_PICKLE).tolist():
            value = decode_value(TAG_PICKLE, int(va[i]), int(vb[i]), 0, heap)
            if (
                isinstance(value, ExpiringValue)
                and value.expires_at <= expire_before
            ):
                dead[i] = True
        if bool(dead.any()):
            zero64 = np.uint64(0)
            tags = np.where(dead, np.uint8(TAG_TOMBSTONE), tags)
            va = np.where(dead, zero64, va)
            vb = np.where(dead, zero64, vb)
            vexp = np.where(dead, zero64, vexp)
    if drop_tombstones:
        keep = tags != TAG_TOMBSTONE
        if not bool(keep.all()):
            keys, tags, va, vb, vexp = (
                col[keep] for col in (keys, tags, va, vb, vexp)
            )
    return Columns(keys, tags, va, vb, vexp, heap)


def split_columns(cols: Columns, cuts: Sequence[int]) -> List[Columns]:
    """Cut columns into runs ``[cuts[i], cuts[i+1])``, each with its own
    copies of the columns and a compact heap.

    Each run's heap is its heap-typed entries' spans gathered in entry
    order (:func:`_gather_spans`), and its heap-typed ``va`` are rebased
    to that heap. The result is byte for byte what :func:`encode_values`
    writes for the same values, so merged runs never pass through Python
    objects.
    """
    keys, tags, va, vb, vexp, heap = cols
    uses = _heap_mask(tags)
    lens = np.where(uses, vb, np.uint64(0)).astype(np.int64)
    heap_at = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(lens, out=heap_at[1:])
    src = np.frombuffer(heap, dtype=np.uint8)
    out: List[Columns] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        hv = a + np.flatnonzero(uses[a:b])
        dst_at = heap_at[hv] - heap_at[a]
        rebased = va[a:b].copy()
        rebased[hv - a] = dst_at.astype(np.uint64)
        out.append(Columns(
            keys[a:b].copy(), tags[a:b].copy(), rebased, vb[a:b].copy(),
            vexp[a:b].copy(),
            _gather_spans(
                src, va[hv].astype(np.int64), lens[hv], dst_at,
                int(heap_at[b] - heap_at[a]),
            ).tobytes(),
        ))
    return out


#: Bytes one index gather in :func:`_gather_spans` copies at most (plus
#: one span): its int64 index scratch stays near 24x this, whatever the
#: size of the heap being gathered.
_GATHER_BYTES = 1 << 16


def _gather_spans(
    src: np.ndarray,
    src_at: np.ndarray,
    lens: np.ndarray,
    dst_at: np.ndarray,
    total: int,
) -> np.ndarray:
    """Copy spans ``src[src_at[i]:src_at[i] + lens[i]]`` to
    ``dst_at[i]`` (ascending, back to back) of a new ``total``-byte
    buffer.

    Spans are grouped by the :data:`_GATHER_BYTES` window their
    destination starts in, and each group is one vectorised byte-index
    gather, so many small values cost a few numpy calls. A span longer
    than the window is its own group and one slice copy.
    """
    out = np.empty(total, dtype=np.uint8)
    if lens.size == 0:
        return out
    big = lens > _GATHER_BYTES
    edge = np.diff(dst_at // _GATHER_BYTES) != 0
    edge |= big[1:] | big[:-1]
    bounds = [0, *(np.flatnonzero(edge) + 1).tolist(), int(lens.size)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        d0 = int(dst_at[a])
        if b - a == 1:
            s0, n = int(src_at[a]), int(lens[a])
            out[d0:d0 + n] = src[s0:s0 + n]
            continue
        seg = lens[a:b]
        n = int(seg.sum())
        # Byte j of the group comes from src_at[i] + (d0 + j - dst_at[i])
        # for the span i that covers it.
        shift = np.repeat(src_at[a:b] - (dst_at[a:b] - d0), seg)
        out[d0:d0 + n] = src[shift + np.arange(n)]
    return out
