"""Block caches in front of the simulated SSTable disk.

Real engines put a block cache between the read path and storage: a
probe that a filter could not prune still often finds its block already
in memory. Here a run's columns are already in memory (or mapped), so
what a cache can model is the *device*: which blocks are resident, the
hit/miss ledger, the LRU order and the ``miss_latency`` a miss pays.
Both caches are therefore **residency ledgers**. They record which
blocks of :class:`~repro.lsm.sstable.SSTable` runs are resident and
never hold block data; every read takes its entries from the run's own
columns, so a cache never keeps a dropped run's columns alive. The
unit is one run block (:data:`~repro.lsm.sstable.BLOCK_ENTRIES`
entries), and a reader marks each block it reads with
``touch(run, index)``, which returns whether the block was resident.
A miss sleeps ``miss_latency`` (the sleep releases the GIL, so a
thread-pool service genuinely overlaps simulated device fetches),
charges the run one ``io_reads`` and admits the block.

* :class:`BlockCache` — the in-process sharded LRU, keyed by the run's
  immutable ``uid`` plus the block index. Runs never mutate, so a key
  can never go stale, and compaction simply strands the dead run's keys
  until LRU evicts them. The cache is *sharded into stripes*, each with
  its own lock and LRU order, so concurrent readers on different
  stripes never contend — the standard trick (RocksDB's ``LRUCache``
  shards by key hash).

* :class:`SharedBlockCache` — the same ledger re-homed in one
  ``multiprocessing.shared_memory`` slab so every process-mode worker
  (:class:`~repro.engine.workers.ShardWorkerPool`) attaches to a single
  cache instead of each filling a private one: one admission warms all
  workers, and cache capacity stops scaling with worker count. The slab
  is a set-associative array of slots that hold a block's identity;
  writers take a lock-striped ``multiprocessing.Lock``, readers validate
  per-slot seqlock versions around the identity fields. Cross-process
  identity comes from each persisted run's
  :attr:`~repro.lsm.sstable.SSTable.shared_id` — a stable 64-bit digest
  of its checkpoint file name — so two workers loading the same run
  file agree on its blocks' cache keys.

Two kinds of reader use either cache. The store's scalar reads
(``range_empty``, ``get``, ``range_scan``) read each range through
``scan``: the run's columns, plus one ``touch`` per block of the range.
The columnar batch lane reads the run columns directly and logs its
block touches in a :class:`BlockTouchLog`, which replays them through
``touch`` in the order a ``range_empty`` loop would make them, so the
cache's counters and LRU state do not depend on which lane ran.

Hit/miss totals are exposed both here (cache-wide; per attachment for
the shared slab) and folded into each store's
:class:`~repro.lsm.store.IoStats` by the callers in
:mod:`repro.lsm.store` and :mod:`repro.engine.batch`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from multiprocessing import Lock as MPLock
from multiprocessing import shared_memory
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.lsm.sstable import Matches, SSTable

#: Cache key: (run uid, block index).
_BlockKey = Tuple[int, int]


class _Stripe:
    """One independently locked LRU segment of the cache."""

    __slots__ = ("lock", "blocks", "hits", "misses")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.blocks: "OrderedDict[_BlockKey, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0


class _CacheCommon:
    """What both caches share: the settings checks, the miss charge, the
    range read over ``touch`` and the counter views."""

    @staticmethod
    def _check_settings(
        capacity_blocks: int, num_stripes: int, miss_latency: float
    ) -> None:
        if capacity_blocks < 1:
            raise InvalidParameterError("capacity_blocks must be >= 1")
        if num_stripes < 1:
            raise InvalidParameterError("num_stripes must be >= 1")
        if miss_latency < 0:
            raise InvalidParameterError("miss_latency must be >= 0")

    def _fetch(self, run: SSTable) -> None:
        """What a miss pays the simulated device: the ``miss_latency``
        sleep and one of ``run``'s ``io_reads``."""
        if self._miss_latency:
            time.sleep(self._miss_latency)
        run.io_reads += 1

    def scan(self, run: SSTable, lo: int, hi: int) -> Tuple[Matches, int, int]:
        """Range read of ``[lo, hi]`` through the cache.

        Returns ``(matches, hits, misses)``: ``matches`` is
        ``run.scan(lo, hi, charge=False)``, and each block of
        ``run.block_span(lo, hi)`` is touched once, so repeated probes of
        a hot region stop charging the simulated disk. A range before
        the run's first key touches nothing.
        """
        matches = run.scan(lo, hi, charge=False)
        span = run.block_span(lo, hi)
        if span is None:
            return matches, 0, 0
        touch = self.touch
        hits = 0
        for index in range(span[0], span[1] + 1):
            hits += touch(run, index)
        return matches, hits, span[1] - span[0] + 1 - hits

    @property
    def miss_latency(self) -> float:
        return self._miss_latency

    @property
    def hit_ratio(self) -> float:
        hits = self.hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """Snapshot of the hit/miss counters and the resident blocks."""
        return {"hits": self.hits, "misses": self.misses, "resident": len(self)}


class BlockTouchLog:
    """The block reads of one batch verification, replayed through a cache.

    Verdicts never depend on what a cache holds, so a cached store's
    batch lane reads the run columns straight (no cache, no I/O charge)
    and logs each (query, run) read here as ``(j, p, first, last)``:
    query ``j`` read the run at read-view position ``p`` and so touched
    blocks ``first..last`` (:meth:`SSTable.block_span`'s fence rule).
    :meth:`replay` then makes one ``touch`` call per block, sorted
    by ``(j, p, block)`` — the calls a ``range_empty`` loop over the
    batch makes, in its order. Hits, misses, ``miss_latency`` sleeps,
    each run's ``io_reads`` and the LRU state therefore come out as the
    loop's at any cache size, for either cache class.
    """

    __slots__ = ("_reads",)

    def __init__(self) -> None:
        self._reads: List[Tuple[np.ndarray, int, np.ndarray, np.ndarray]] = []

    def add_batch(
        self, qids: np.ndarray, p: int, run: SSTable,
        los: np.ndarray, his: np.ndarray,
    ) -> None:
        """Queries ``qids`` read run ``p`` over ``[los, his]`` columns."""
        first, last = run.block_spans(los, his)
        self._reads.append((qids, p, first, last))

    def add(self, j: int, p: int, run: SSTable, lo: int, hi: int) -> None:
        """Query ``j`` read run ``p`` over ``[lo, hi]``."""
        self.add_batch(np.asarray([j], dtype=np.int64), p, run,
                       np.asarray([lo], dtype=np.uint64),
                       np.asarray([hi], dtype=np.uint64))

    def replay(self, cache: _CacheCommon, runs: List[SSTable]) -> Tuple[int, int]:
        """Touch every logged block in ``cache`` in loop order;
        ``runs`` is the read view the positions index. Returns
        ``(hits, misses)``."""
        if not self._reads:
            return 0, 0
        j, pos, first, last = (np.concatenate(col) for col in zip(*(
            (qids, np.full(qids.size, p, dtype=np.int64), first, last)
            for qids, p, first, last in self._reads
        )))
        order = np.lexsort((pos, j))
        pos, first = pos[order], first[order]
        counts = np.maximum(last[order] - first + 1, 0)
        ends = np.cumsum(counts)
        blocks = np.repeat(first - ends + counts, counts) + np.arange(int(ends[-1]))
        touch = cache.touch
        hits = 0
        for p, index in zip(np.repeat(pos, counts).tolist(), blocks.tolist()):
            hits += touch(runs[p], index)
        return hits, int(blocks.size) - hits


class BlockCache(_CacheCommon):
    """Sharded LRU residency ledger over immutable SSTable blocks.

    Parameters
    ----------
    capacity_blocks:
        Total blocks resident across all stripes, honoured exactly: the
        capacity divides across stripes with the remainder spread one
        block at a time.
    num_stripes:
        Independently locked LRU segments (power of two not required).
    miss_latency:
        Seconds slept per miss, simulating the storage device. The
        default ``0.0`` keeps tests instant; benchmarks raise it to make
        the cost the filters and the cache save visible in wall-clock
        time.
    """

    def __init__(
        self,
        capacity_blocks: int = 1024,
        *,
        num_stripes: int = 8,
        miss_latency: float = 0.0,
    ) -> None:
        self._check_settings(capacity_blocks, num_stripes, miss_latency)
        self._num_stripes = min(int(num_stripes), int(capacity_blocks))
        # Distribute the capacity exactly: the first (capacity % stripes)
        # stripes hold one extra block, so the total never rounds down.
        base, extra = divmod(int(capacity_blocks), self._num_stripes)
        self._stripe_caps = [
            base + (1 if i < extra else 0) for i in range(self._num_stripes)
        ]
        self._stripes = [_Stripe() for _ in range(self._num_stripes)]
        self._miss_latency = float(miss_latency)

    # ------------------------------------------------------------------
    # Block residency
    # ------------------------------------------------------------------
    def touch(self, run: SSTable, index: int) -> bool:
        """Read block ``index`` of ``run`` through the cache; returns
        whether it was resident (a hit). A miss pays :meth:`_fetch` and
        admits the block, evicting the stripe's least recently used."""
        key = (run.uid, index)
        stripe_id = hash(key) % self._num_stripes
        stripe = self._stripes[stripe_id]
        with stripe.lock:
            if key in stripe.blocks:
                stripe.blocks.move_to_end(key)
                stripe.hits += 1
                return True
        # Pay the miss outside the lock: a slow simulated fetch must not
        # block hits on other blocks of the same stripe.
        self._fetch(run)
        with stripe.lock:
            stripe.misses += 1
            stripe.blocks[key] = None
            stripe.blocks.move_to_end(key)
            while len(stripe.blocks) > self._stripe_caps[stripe_id]:
                stripe.blocks.popitem(last=False)
        return False

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    @property
    def capacity_blocks(self) -> int:
        return sum(self._stripe_caps)

    @property
    def num_stripes(self) -> int:
        return self._num_stripes

    def __len__(self) -> int:
        """Blocks currently resident."""
        return sum(len(stripe.blocks) for stripe in self._stripes)

    @property
    def hits(self) -> int:
        return sum(stripe.hits for stripe in self._stripes)

    @property
    def misses(self) -> int:
        return sum(stripe.misses for stripe in self._stripes)

    def clear(self) -> None:
        """Evict everything and zero the counters (benchmark hygiene)."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.blocks.clear()
                stripe.hits = 0
                stripe.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockCache(capacity={self.capacity_blocks}, "
            f"stripes={self._num_stripes}, resident={len(self)}, "
            f"hit_ratio={self.hit_ratio:.2f})"
        )


# ----------------------------------------------------------------------
# Shared-memory slab cache
# ----------------------------------------------------------------------
#: Slot u64 fields. A slot is padded to one 64-byte row, so a writer
#: updating one slot never shares a cache line with its neighbours.
_F_VERSION = 0   # seqlock: odd while a writer is mid-update
_F_UID = 1       # 64-bit run identity (shared_id, or salted local uid)
_F_BLOCK = 2     # block index within the run
_F_USED = 3      # 1 while the slot holds a block (0 == empty slot)
_F_TICK = 4      # LRU clock (advisory; racy updates are fine)
_SLOT_FIELDS = 8

#: Slab-header u64 fields.
_H_MAGIC = 0
_H_NSLOTS = 1
_H_NSETS = 2
_H_TICK = 3
_H_MISS_LATENCY = 4  # float64 bits: seconds slept per miss
_HDR_FIELDS = 8
_HDR_BYTES = _HDR_FIELDS * 8

_SLAB_MAGIC = 0x52_53_4C_41_42_35  # "RSLAB5"

_U64 = 0xFFFFFFFFFFFFFFFF


def _mix_key(uid64: int, block: int) -> int:
    """Deterministic (process-independent) 64-bit mix of a block key —
    python's salted ``hash()`` cannot place slots consistently across
    attached processes."""
    return (
        uid64 * 0x9E3779B97F4A7C15 + (block + 1) * 0xC2B2AE3D27D4EB4F
    ) & _U64


class SharedBlockCache(_CacheCommon):
    """A block residency ledger that lives in one shared-memory slab.

    Shares :class:`BlockCache`'s API (``touch`` / ``scan`` / counters),
    so :class:`~repro.lsm.store.LSMStore` and the serving layer use
    either interchangeably. The slab is divided into ``capacity_blocks``
    slots, each holding one block's identity, grouped into small
    set-associative sets (~``WAYS`` slots per set, LRU within the set by
    an advisory tick); admission takes one of ``num_stripes``
    cross-process locks, readers are lock-free behind per-slot seqlock
    versions. The slab header records ``miss_latency``, so every
    attachment charges the owner's simulated device cost.

    Identity: runs restored from a checkpoint carry a stable
    ``shared_id`` digest of their run-file name, so every attached
    process keys the same file's blocks identically — one worker's
    admission is every worker's hit. Runs that were never persisted
    have no cross-process identity; their keys are salted with a
    per-attachment nonce so they can still use the slab's capacity
    without ever colliding across processes.

    Hit/miss counters are per attachment (each process sees the traffic
    it generated); aggregate accounting flows through the per-store
    :class:`~repro.lsm.store.IoStats` exactly as with the private cache.
    """

    WAYS = 4

    def __init__(
        self,
        capacity_blocks: int = 1024,
        *,
        num_stripes: int = 8,
        miss_latency: float = 0.0,
    ) -> None:
        self._check_settings(capacity_blocks, num_stripes, miss_latency)
        nslots = int(capacity_blocks)
        nsets = max(1, nslots // self.WAYS)
        size = _HDR_BYTES + nslots * _SLOT_FIELDS * 8
        self._bind(
            shared_memory.SharedMemory(create=True, size=size),
            [MPLock() for _ in range(min(int(num_stripes), nsets))],
            owner=True,
        )
        self._hdr[_H_MAGIC] = _SLAB_MAGIC
        self._hdr[_H_NSLOTS] = nslots
        self._hdr[_H_NSETS] = nsets
        self._hdr.view(np.float64)[_H_MISS_LATENCY] = float(miss_latency)
        self._geometry()

    @classmethod
    def attach(
        cls, name: str, locks: List[Any], *, unregister: bool = False
    ) -> "SharedBlockCache":
        """Attach to an existing slab by segment ``name``.

        ``locks`` must be the creator's stripe locks (inherited through
        ``multiprocessing.Process`` args). With ``unregister=True`` the
        attachment is removed from this process's ``resource_tracker``
        so a *spawned* worker exiting does not destroy the segment it
        merely borrowed — the creating process owns cleanup.
        """
        shm = shared_memory.SharedMemory(name=name)
        if unregister:
            try:  # pragma: no cover - start-method dependent
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        cache = cls.__new__(cls)
        cache._bind(shm, locks, owner=False)
        if int(cache._hdr[_H_MAGIC]) != _SLAB_MAGIC:
            cache.close()
            raise InvalidParameterError(f"{name} is not a SharedBlockCache slab")
        cache._geometry()
        return cache

    def _bind(self, shm, locks: List[Any], *, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._locks = list(locks)
        self._local_salt = int.from_bytes(os.urandom(8), "little") | 1
        self._hits = 0
        self._misses = 0
        self._closed = False
        self._buf = shm.buf
        self._hdr = np.frombuffer(self._buf, dtype=np.uint64, count=_HDR_FIELDS)

    def _geometry(self) -> None:
        self._nslots = int(self._hdr[_H_NSLOTS])
        self._nsets = int(self._hdr[_H_NSETS])
        self._miss_latency = float(self._hdr.view(np.float64)[_H_MISS_LATENCY])
        self._slots = np.frombuffer(
            self._buf, dtype=np.uint64, offset=_HDR_BYTES,
            count=self._nslots * _SLOT_FIELDS,
        ).reshape(self._nslots, _SLOT_FIELDS)
        base, extra = divmod(self._nslots, self._nsets)
        bounds = [0]
        for i in range(self._nsets):
            bounds.append(bounds[-1] + base + (1 if i < extra else 0))
        self._set_bounds = bounds

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def _uid64(self, run: SSTable) -> int:
        shared = getattr(run, "shared_id", None)
        if shared is not None:
            return int(shared) & _U64
        return (self._local_salt + run.uid * 0x100000001B3) & _U64

    def _next_tick(self) -> int:
        # Racy read-modify-write across processes: lost increments only
        # blur the advisory LRU ordering, never correctness.
        tick = int(self._hdr[_H_TICK]) + 1
        self._hdr[_H_TICK] = tick
        return tick

    # ------------------------------------------------------------------
    # Block residency
    # ------------------------------------------------------------------
    def touch(self, run: SSTable, index: int) -> bool:
        """Read block ``index`` of ``run`` through the slab; returns
        whether it was resident (a hit). A hit only refreshes the slot's
        tick; a miss pays :meth:`_fetch` and admits the block."""
        if self._closed:
            raise InvalidParameterError("SharedBlockCache is closed")
        uid64 = self._uid64(run)
        set_id = _mix_key(uid64, index) % self._nsets
        slots = self._slots
        for slot in range(self._set_bounds[set_id], self._set_bounds[set_id + 1]):
            v1 = int(slots[slot, _F_VERSION])
            if v1 & 1:
                continue  # writer mid-update
            if (
                int(slots[slot, _F_UID]) != uid64
                or int(slots[slot, _F_BLOCK]) != index
                or not int(slots[slot, _F_USED])
            ):
                continue
            if int(slots[slot, _F_VERSION]) != v1:
                continue  # overwritten mid-read; fall through to miss
            slots[slot, _F_TICK] = self._next_tick()
            self._hits += 1
            return True
        self._fetch(run)
        self._misses += 1
        self._admit(set_id, uid64, index)
        return False

    def _admit(self, set_id: int, uid64: int, index: int) -> None:
        lo, hi = self._set_bounds[set_id], self._set_bounds[set_id + 1]
        slots = self._slots
        lock = self._locks[set_id % len(self._locks)]
        with lock:
            victim = lo
            for slot in range(lo, hi):
                if not int(slots[slot, _F_USED]):
                    victim = slot
                    break
                if (
                    int(slots[slot, _F_UID]) == uid64
                    and int(slots[slot, _F_BLOCK]) == index
                ):
                    return  # raced: another process already admitted it
                if int(slots[slot, _F_TICK]) < int(slots[victim, _F_TICK]):
                    victim = slot
            slots[victim, _F_VERSION] = int(slots[victim, _F_VERSION]) + 1
            slots[victim, _F_UID] = uid64
            slots[victim, _F_BLOCK] = index
            slots[victim, _F_USED] = 1
            slots[victim, _F_TICK] = self._next_tick()
            slots[victim, _F_VERSION] = int(slots[victim, _F_VERSION]) + 1

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Segment name other processes attach by."""
        return self._shm.name

    @property
    def locks(self) -> List[Any]:
        """The stripe locks, for handing to worker processes."""
        return self._locks

    @property
    def capacity_blocks(self) -> int:
        return self._nslots

    @property
    def num_stripes(self) -> int:
        return len(self._locks)

    def __len__(self) -> int:
        """Blocks currently resident in the slab (all attachments)."""
        return int(self._slots[:, _F_USED].sum())

    @property
    def hits(self) -> int:
        """Hits served to *this* attachment."""
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    def clear(self) -> None:
        """Empty every slot and zero this attachment's counters."""
        for stripe, lock in enumerate(self._locks):
            with lock:
                for set_id in range(stripe, self._nsets, len(self._locks)):
                    lo, hi = self._set_bounds[set_id], self._set_bounds[set_id + 1]
                    for slot in range(lo, hi):
                        self._slots[slot, _F_VERSION] = (
                            int(self._slots[slot, _F_VERSION]) + 2
                        )
                        self._slots[slot, _F_USED] = 0
        self._hits = 0
        self._misses = 0

    def close(self) -> None:
        """Detach from the slab; the creating attachment also unlinks
        the segment so no ``shared_memory`` leaks past the owner."""
        if self._closed:
            return
        self._closed = True
        # Drop every exported view before closing the mapping, or the
        # mmap refuses to unmap ("cannot close exported pointers").
        self._hdr = None
        self._slots = None
        self._buf = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"resident={len(self)}"
        return f"SharedBlockCache(capacity={self._nslots}, {state})"
