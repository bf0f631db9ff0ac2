"""Concurrent serving layer over the sharded engine.

PR 1 left the engine single-threaded with one deliberate seam: the
:class:`~repro.engine.scheduler.CompactionScheduler` "the one a thread
pool would plug into". This module plugs it in.
:class:`RangeQueryService` wraps a :class:`~repro.engine.ShardedEngine`
with the three pieces a serving tier adds:

* **a thread pool with per-shard reader/writer locks** — shards own
  disjoint key ranges, so readers of different shards never touch the
  same state and run fully in parallel; readers of the *same* shard
  share its read lock; a writer (or the compaction worker) takes that
  shard's write lock exclusively. Cross-shard batches fan out across
  the pool, one task per (shard, chunk), and re-merge on the calling
  thread;
* **a background compaction worker** — a daemon thread that pops shards
  off the engine's :class:`CompactionScheduler` and runs one bounded
  policy-planned compaction *step* per write-lock acquisition (the
  single-threaded engine drains the queue *between* batches instead),
  keeping compaction latency off the query path — and, under the sliced
  leveled policy, keeping any single lock hold proportional to one
  step's rewrite rather than a whole-shard merge;
* **one block cache** in front of the simulated SSTable disk, attached
  to every shard, with hit/miss counters folded into the engine's
  :class:`~repro.lsm.store.IoStats` — the sharded in-process
  :class:`~repro.lsm.cache.BlockCache` in thread mode, one
  :class:`~repro.lsm.cache.SharedBlockCache` slab in process mode;
* optionally, with ``mode="process"``, **a pool of per-shard snapshot
  worker processes** (:mod:`repro.engine.workers`) that answer
  CPU-bound batch probes outside the GIL. Workers hold the shard's runs
  read-only from the last checkpoint and receive query columns / return
  verdict columns as raw bytes over their pipes. The parent routes a
  query to a worker only while (a) the shard's run set is unchanged
  since the checkpoint (the checkpoint-epoch handshake:
  :attr:`~repro.lsm.store.LSMStore.runs_version` must match the synced
  version — any flush or compaction invalidates) and (b) the shard's
  memtable has no entry inside the query range (checked with one
  vectorised ``searchsorted``); everything else — and all write traffic
  — stays on the locked in-process path, so results are exact under any
  interleaving.

Locking discipline (the reason the service cannot deadlock): every code
path that holds more than one shard lock acquires them in ascending
shard-id order, and the compaction worker only ever holds one. The WAL
serialises its own appends, and the scheduler its own queue, so those
can be hit from any thread.

Call the service from *outside* the pool: a service method invoked from
within one of its own query tasks would wait on the pool it is running
in. Mutations are linearised per key by the shard write lock; the
engine's I/O statistics remain best-effort under concurrent readers.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.batch import (
    memtable_overlaps,
    route_single_shard,
    shard_batch_empty,
    validate_batch_bounds,
)
from repro.engine.engine import ShardedEngine
from repro.engine.workers import ShardWorkerPool, WorkerError
from repro.errors import InvalidParameterError
from repro.lsm.cache import BlockCache, SharedBlockCache
from repro.lsm.store import IoStats

#: Lock stripes of a cache the service builds.
CACHE_STRIPES = 8


class RWLock:
    """A reader/writer lock with writer preference.

    Many readers may hold the lock together; a writer holds it alone.
    Arriving writers block *new* readers (readers already in proceed),
    so a steady stream of probes cannot starve compaction or writes —
    the failure mode a serving tier actually hits.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Guard:
        __slots__ = ("_acquire", "_release")

        def __init__(self, acquire, release) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> None:
            self._acquire()

        def __exit__(self, *exc) -> None:
            self._release()

    def read_locked(self) -> "_Guard":
        return self._Guard(self.acquire_read, self.release_read)

    def write_locked(self) -> "_Guard":
        return self._Guard(self.acquire_write, self.release_write)


class RangeQueryService:
    """Thread-pool serving front end for a :class:`ShardedEngine`.

    Parameters
    ----------
    engine:
        The engine to serve. The service takes over its compaction
        scheduler; do not drive the engine directly (or from a second
        service) while this one is open.
    num_threads:
        Pool size for query fan-out. One extra daemon thread runs
        compactions in the background regardless.
    cache_blocks:
        Block-cache capacity (in SSTable blocks) shared by all shards;
        ``0`` disables the cache. Thread mode builds a
        :class:`~repro.lsm.cache.BlockCache`; process mode builds one
        :class:`~repro.lsm.cache.SharedBlockCache` slab that the parent
        *and* every snapshot worker attach to, so one admission warms
        all processes. The service detaches the cache it built on
        :meth:`close` (and unlinks a slab). A cache already attached to
        the engine (via :meth:`ShardedEngine.attach_block_cache`) is
        kept as-is and this parameter is ignored — the service never
        replaces a cache the caller configured; in process mode it must
        be a :class:`~repro.lsm.cache.SharedBlockCache`.
    miss_latency:
        Seconds a built cache sleeps per miss, simulating the storage
        device.
    compaction_poll:
        Idle back-off of the compaction worker between queue checks.
    mode:
        ``"thread"`` (default) answers batches on the thread pool alone;
        ``"process"`` adds the snapshot worker processes of
        :mod:`repro.engine.workers` for CPU-bound batch probes and
        requires a *persistent* engine (the workers open the shards from
        its checkpoint directory). Opening the service in process mode
        checkpoints the engine once so the workers start in sync.
    num_workers:
        Worker processes in process mode (default: ``num_threads``,
        capped at the shard count). Ignored in thread mode.
    """

    def __init__(
        self,
        engine: ShardedEngine,
        *,
        num_threads: int = 4,
        cache_blocks: int = 4096,
        miss_latency: float = 0.0,
        compaction_poll: float = 0.01,
        mode: str = "thread",
        num_workers: Optional[int] = None,
    ) -> None:
        if num_threads < 1:
            raise InvalidParameterError("num_threads must be >= 1")
        if compaction_poll <= 0:
            raise InvalidParameterError("compaction_poll must be positive")
        if mode not in ("thread", "process"):
            raise InvalidParameterError(f"unknown serving mode {mode!r}")
        if mode == "process" and engine.directory is None:
            raise InvalidParameterError(
                "mode='process' needs a persistent engine: the snapshot "
                "workers open the shards from its checkpoint directory"
            )
        cache = engine.block_cache
        if mode == "process" and cache is not None and not isinstance(
            cache, SharedBlockCache
        ):
            raise InvalidParameterError(
                "mode='process' serves from one SharedBlockCache slab, but "
                f"the engine has a {type(cache).__name__} attached"
            )
        self._engine = engine
        self._mode = mode
        self._num_threads = int(num_threads)
        self._locks = [RWLock() for _ in engine.shards]
        self._cache = cache
        self._owns_cache = cache is None and bool(cache_blocks)
        if self._owns_cache:
            cache_class = SharedBlockCache if mode == "process" else BlockCache
            self._cache = cache_class(
                cache_blocks, num_stripes=CACHE_STRIPES, miss_latency=miss_latency
            )
            engine.attach_block_cache(self._cache)
        self._workers: Optional[ShardWorkerPool] = None
        self._synced_versions: List[int] = []
        self._stats_mutex = threading.Lock()
        self._worker_queries = 0
        self._local_queries = 0
        if mode == "process":
            # Seed the workers with a fresh checkpoint, then fork them
            # *before* any thread of ours exists (fork safety). Workers
            # attach to the slab, so their run reads pay the same
            # simulated device cost as the in-process path.
            try:
                engine.checkpoint()
                self._workers = ShardWorkerPool(
                    engine.directory,
                    engine.num_shards,
                    num_workers if num_workers is not None else self._num_threads,
                    shared_cache=self._cache,
                )
                self._sync_workers()
            except BaseException:
                # The constructor owns the slab until __init__ returns:
                # release it (and the engine's reference to it) rather
                # than leaking the shared-memory segment.
                self._release_cache()
                raise
        self._pool = ThreadPoolExecutor(
            max_workers=self._num_threads, thread_name_prefix="repro-query"
        )
        self._poll = float(compaction_poll)
        self._stop = threading.Event()
        self._closed = False
        # _work_mutex makes (queue pop, in-flight flag) transitions atomic
        # so wait_for_compactions cannot observe "queue empty" while a
        # popped shard is still being compacted.
        self._work_mutex = threading.Lock()
        self._inflight = False
        self._background_compactions = 0
        self._compactor = threading.Thread(
            target=self._compaction_loop, name="repro-compactor", daemon=True
        )
        self._compactor.start()

    def _release_cache(self) -> None:
        """Detach the cache this service built; unlink it if a slab."""
        if self._owns_cache:
            self._owns_cache = False
            self._engine.attach_block_cache(None)
            if isinstance(self._cache, SharedBlockCache):
                self._cache.close()
            self._cache = None

    def _sync_workers(self) -> None:
        """Checkpoint-epoch handshake: point workers at the new snapshot.

        Caller must hold all write locks (or be the constructor, before
        any concurrency exists): the engine was just checkpointed, so the
        on-disk generation matches the in-memory run sets, and recording
        each shard's ``runs_version`` here makes the staleness check in
        :meth:`_shard_empty_process` exact.
        """
        assert self._workers is not None
        from repro.engine import persist

        manifest = persist.load_manifest(self._engine.directory)
        assert manifest is not None
        self._workers.reload(manifest["generation"])
        self._synced_versions = [
            store.runs_version for store in self._engine.shards
        ]

    # ------------------------------------------------------------------
    # Point operations
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("service is closed")

    def _submit(self, fn, *args):
        """``pool.submit`` that reports a racing ``close()`` coherently.

        A caller can pass :meth:`_check_open` and lose the race with a
        concurrent ``close()``; the executor then refuses new work with
        a bare ``RuntimeError``. Translate it to the same exception every
        other post-close call raises.
        """
        try:
            return self._pool.submit(fn, *args)
        except RuntimeError as exc:
            raise InvalidParameterError("service is closed") from exc

    def get(self, key: int) -> Optional[Any]:
        """Point lookup under the owning shard's read lock."""
        self._check_open()
        sid = self._engine.router.shard_of(key)
        with self._locks[sid].read_locked():
            return self._engine.shards[sid].get(key)

    def put(
        self, key: int, value: Any, *, expires_at: Optional[int] = None
    ) -> None:
        """Insert or overwrite a key under its shard's write lock."""
        self._check_open()
        sid = self._engine.router.shard_of(key)
        with self._locks[sid].write_locked():
            self._engine.put(key, value, expires_at=expires_at)

    def delete(self, key: int) -> None:
        """Delete a key under its shard's write lock."""
        self._check_open()
        sid = self._engine.router.shard_of(key)
        with self._locks[sid].write_locked():
            self._engine.delete(key)

    @contextlib.contextmanager
    def _read_locked_span(self, lo: int, hi: int) -> Iterator[None]:
        """Hold the read lock of every shard ``[lo, hi]`` spans, taken in
        id order (deadlock-free) and released in reverse."""
        acquired: List[RWLock] = []
        try:
            for sid in self._engine.router.shards_spanning(lo, hi):
                self._locks[sid].acquire_read()
                acquired.append(self._locks[sid])
            yield
        finally:
            for lock in reversed(acquired):
                lock.release_read()

    def range_empty(self, lo: int, hi: int) -> bool:
        """Exact emptiness probe, atomic across the shards it spans.

        All overlapped shards' read locks are taken (in id order) before
        the first segment is probed, so a cross-shard probe sees one
        consistent cut of the keyspace even while writers queue up.
        """
        self._check_open()
        with self._read_locked_span(lo, hi):
            return all(
                self._engine.shards[sid].range_empty(seg_lo, seg_hi)
                for sid, seg_lo, seg_hi in self._engine.router.split(lo, hi)
            )

    def range_scan(self, lo: int, hi: int) -> List[Tuple[int, Any]]:
        """All live pairs in ``[lo, hi]``, atomic across spanned shards.

        Same locking discipline as :meth:`range_empty`: every overlapped
        shard's read lock is held (in id order) for the whole scan, so
        the result is one consistent cut of the keyspace.
        """
        self._check_open()
        with self._read_locked_span(lo, hi):
            out: List[Tuple[int, Any]] = []
            for sid, seg_lo, seg_hi in self._engine.router.split(lo, hi):
                out.extend(self._engine.shards[sid].range_scan(seg_lo, seg_hi))
            return out

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------
    def _chunks(
        self, sid: int, q_lo: np.ndarray, q_hi: np.ndarray, qid: np.ndarray, chunk: int
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        for start in range(0, qid.size, chunk):
            stop = start + chunk
            yield sid, q_lo[start:stop], q_hi[start:stop], qid[start:stop]

    def _shard_task(
        self, sid: int, q_lo: np.ndarray, q_hi: np.ndarray, qid: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One (shard, chunk) task: with a planner attached, the negative
        cache's lookup, the kernel and its record all run in this one
        read-lock hold."""
        with self._locks[sid].read_locked():
            store = self._engine.shards[sid]
            planner = self._engine.planner
            if planner is None:
                return qid, self._shard_kernel(sid, store, q_lo, q_hi)
            return qid, planner.shard_empty(
                sid, store, q_lo, q_hi,
                partial(self._shard_kernel, sid, store),
            )

    def _shard_kernel(
        self, sid: int, store, q_lo: np.ndarray, q_hi: np.ndarray
    ) -> np.ndarray:
        """Process or local kernel; caller holds the shard's read lock."""
        process = self._workers is not None
        planner = self._engine.planner
        if planner is not None:
            process = planner.choose_mode(
                store, q_lo, q_hi, process_available=process
            ) == "process"
        if process:
            return self._shard_empty_process(sid, q_lo, q_hi)
        return shard_batch_empty(store, q_lo, q_hi)

    def _shard_empty_process(
        self, sid: int, q_lo: np.ndarray, q_hi: np.ndarray
    ) -> np.ndarray:
        """Process-mode shard kernel; caller holds the shard's read lock.

        Routes the sub-batch to the shard's snapshot worker when it is
        allowed to answer — the run set is unchanged since the last
        checkpoint (epoch check) and, per query, the memtable has no
        entry in range — and answers everything else with the in-process
        exact kernel. Worker-side I/O counters fold back into the
        shard's ledger so ``stats`` stays one coherent view.
        """
        store = self._engine.shards[sid]
        assert self._workers is not None
        if store.runs_version != self._synced_versions[sid]:
            # Stale epoch: a flush/compaction changed the run set after
            # the checkpoint. Serve locally until the next checkpoint.
            with self._stats_mutex:
                self._local_queries += int(q_lo.size)
            return shard_batch_empty(store, q_lo, q_hi)
        overlap = memtable_overlaps(store, q_lo, q_hi)
        remote = ~overlap
        verdicts = np.empty(q_lo.size, dtype=bool)
        n_remote = int(remote.sum())
        if n_remote:
            try:
                rv, deltas = self._workers.query(sid, q_lo[remote], q_hi[remote])
            except WorkerError:
                # A dead worker must never fail a query: answer locally
                # (and keep doing so — the pool marks the worker down).
                with self._stats_mutex:
                    self._local_queries += int(q_lo.size)
                return shard_batch_empty(store, q_lo, q_hi)
            verdicts[remote] = rv
            observer = store.query_observer
            if observer is not None:
                # Worker-answered queries still feed the auto-tuner's
                # per-shard window (the in-process kernel reports its
                # own sub-batches from inside shard_batch_empty).
                observer(q_lo[remote], q_hi[remote], rv)
            ledger = store.stats
            # Chunked fan-out runs several tasks per shard under shared
            # read locks, so the ledger fold takes the stats mutex — the
            # '+=' on plain ints is not atomic across pool threads.
            with self._stats_mutex:
                ledger.reads_performed += deltas[0]
                ledger.reads_avoided += deltas[1]
                ledger.wasted_reads += deltas[2]
                ledger.cache_hits += deltas[3]
                ledger.cache_misses += deltas[4]
                self._worker_queries += n_remote
        if overlap.any():
            verdicts[overlap] = shard_batch_empty(
                store, q_lo[overlap], q_hi[overlap]
            )
            with self._stats_mutex:
                self._local_queries += int(overlap.sum())
        return verdicts

    def batch_range_empty(
        self, los: np.ndarray | List[int], his: np.ndarray | List[int]
    ) -> np.ndarray:
        """Vectorised ``range_empty`` over a batch, fanned out per shard.

        Queries are routed to shards in bulk, each shard's sub-batch is
        split into pool tasks (so a skewed batch still uses every
        thread), and the per-task results re-merge on the calling
        thread. The rare query that straddles a shard boundary runs as
        its own task through :meth:`range_empty`, which holds every
        spanned shard's read lock at once — so each *query* sees one
        consistent cut of the keyspace even while writers interleave
        (different queries of the batch may see different cuts, exactly
        as a loop of scalar calls would). With no concurrent writers the
        output is identical to :meth:`ShardedEngine.batch_range_empty`;
        compactions queued by interleaved writers happen on the
        background worker instead of stalling the batch. With a planner
        attached, duplicates fold first and each shard task runs the
        negative cache within its read-lock hold
        (:meth:`~repro.engine.planner.BatchPlanner.shard_empty`).
        """
        self._check_open()
        los, his = validate_batch_bounds(self._engine.universe, los, his)
        if los.size == 0:
            return np.zeros(0, dtype=bool)
        planner = self._engine.planner
        if planner is not None:
            empty = planner.execute(los, his, self._fanout_batch)
        else:
            empty = self._fanout_batch(los, his)
        tuner = self._engine.autotuner
        if tuner is not None:
            # The serving tier's between-batches slot: any backend switch
            # lands as a factory swap plus a queued compaction, which the
            # background worker rebuilds under the shard's write lock.
            tuner.maybe_retune()
        return empty

    def _fanout_batch(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Route, chunk, fan out and re-merge one validated batch."""
        singles, straddlers = route_single_shard(self._engine.router, los, his)
        # Aim for ~2 tasks per thread so the slowest chunk cannot leave
        # the rest of the pool idle for long.
        chunk = max(64, -(-int(los.size) // (2 * self._num_threads)))
        futures = [
            self._submit(self._shard_task, *task)
            for sid, (q_lo, q_hi, qid) in singles.items()
            for task in self._chunks(sid, q_lo, q_hi, qid, chunk)
        ]
        straddler_futures = [
            (qid, self._submit(self.range_empty, int(los[qid]), int(his[qid])))
            for qid in straddlers
        ]
        empty = np.ones(los.size, dtype=bool)
        for future in futures:
            qid, sub_empty = future.result()
            empty[qid[~sub_empty]] = False
        for qid, future in straddler_futures:
            empty[qid] = future.result()
        return empty

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _all_write_locks(self) -> Iterator[None]:
        for lock in self._locks:  # ascending shard id: deadlock-free
            lock.acquire_write()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release_write()

    def flush_all(self) -> None:
        """Flush every shard's memtable (all write locks held)."""
        self._check_open()
        with self._all_write_locks():
            self._engine.flush_all()

    def advance_clock(self, now: int) -> None:
        """Advance the TTL clock with the keyspace quiesced.

        Expiry changes what every shard answers at once, so the advance
        runs under all write locks: readers observe entries age out
        atomically. Compactions it triggers (fully-expired bottom runs)
        drain on the background worker, and in process mode the bumped
        ``runs_version`` diverts batches to the exact local path until
        the next checkpoint re-syncs the snapshot workers.
        """
        self._check_open()
        with self._all_write_locks():
            self._engine.advance_clock(now)

    def checkpoint(self) -> None:
        """Snapshot the engine to disk with the keyspace quiesced.

        In process mode this is also the epoch boundary: once the
        snapshot is on disk the workers reload it synchronously, so
        shards dirtied by flushes/compactions since the previous
        checkpoint flow back onto the worker path.
        """
        self._check_open()
        with self._all_write_locks():
            self._engine.checkpoint()
            if self._workers is not None:
                self._sync_workers()

    def wait_for_compactions(self, timeout: float = 10.0) -> bool:
        """Block until the background worker has no queued or running
        compaction; returns ``False`` on timeout (or immediately, with
        the current queue state, once the service is closed — a stopped
        worker will never drain what is left)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._work_mutex:
                idle = not self._inflight and len(self._engine.scheduler) == 0
            if idle:
                return True
            remaining = deadline - time.monotonic()
            if self._closed or remaining <= 0:
                return False
            time.sleep(min(self._poll / 2, remaining))

    def _compaction_loop(self) -> None:
        """Drain the scheduler one bounded step per lock acquisition.

        The worker takes a shard's write lock for a *single*
        policy-planned compaction step — one merge unit set, one slice
        rebuild — then releases it and re-queues the shard if its policy
        still sees pressure. Queries blocked behind the writer therefore
        wait for one step's rewrite, never for a whole-shard rebuild
        (the full-merge policy's single step *is* the whole merge; the
        tiered/leveled policies exist to make the steps small).
        """
        scheduler = self._engine.scheduler
        while not self._stop.is_set():
            wait = scheduler.throttle_wait()
            if wait > 0:
                # Rate limiter in debt: the queued shards stay queued and
                # the worker sleeps until roughly the refill point (or
                # its ordinary poll, whichever comes first).
                self._stop.wait(min(self._poll, wait))
                continue
            with self._work_mutex:
                item = scheduler.pop()
                if item is not None:
                    self._inflight = True
            if item is None:
                self._stop.wait(self._poll)
                continue
            sid, store = item
            try:
                with self._locks[sid].write_locked():
                    if store.needs_compaction and scheduler.run_step(store):
                        self._background_compactions += 1
            finally:
                with self._work_mutex:
                    # Re-queue *before* dropping the in-flight flag so
                    # wait_for_compactions can never observe "queue empty,
                    # nothing in flight" while steps remain.
                    if store.needs_compaction:
                        scheduler.notify(sid, store)
                    self._inflight = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, checkpoint: bool = False) -> None:
        """Stop the worker and pool; optionally checkpoint first.

        The engine itself stays usable (single-threaded) after the
        service closes. A cache the service built is detached from the
        engine — a shared-memory slab is also unlinked, once the workers
        borrowing it are gone — so a later service builds its own; a
        caller-attached cache stays attached.
        """
        if self._closed:
            return
        if checkpoint:
            self.checkpoint()
        self._closed = True
        self._stop.set()
        self._compactor.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        if self._workers is not None:
            self._workers.close()
        self._release_cache()

    def __enter__(self) -> "RangeQueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ShardedEngine:
        return self._engine

    @property
    def strings(self):
        """String-keyed facade over this service (engine needs a codec)."""
        from repro.engine.strings import StringView

        return StringView(self, self._engine.key_codec)

    @property
    def num_threads(self) -> int:
        return self._num_threads

    @property
    def mode(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._mode

    @property
    def num_workers(self) -> int:
        """Snapshot worker processes (0 in thread mode)."""
        return self._workers.num_workers if self._workers is not None else 0

    @property
    def worker_queries(self) -> int:
        """Batch queries answered by snapshot workers (process mode)."""
        return self._worker_queries

    @property
    def local_queries(self) -> int:
        """Process-mode batch queries that fell back to the locked
        in-process path (stale epoch, memtable overlap, worker failure).
        Always 0 in thread mode — thread-mode queries are not tallied."""
        return self._local_queries

    @property
    def cache(self) -> Optional[BlockCache | SharedBlockCache]:
        return self._cache

    @property
    def background_compactions(self) -> int:
        """Compactions the worker thread has run."""
        return self._background_compactions

    @property
    def stats(self) -> IoStats:
        """The engine's aggregate I/O ledger (incl. cache hits/misses)."""
        return self._engine.stats

    def stats_snapshot(self) -> dict:
        """One structured, JSON-serialisable view of the serving tier.

        Everything the ``[serve]`` summary line, the network protocol's
        ``stats`` op, and the front door's admission control read comes
        from here — queue depth and compaction backlog (the
        backpressure signals), cache hit rate, the worker/local split,
        and the engine's I/O ledger — so operators and machines see the
        same numbers. Counters are best-effort under concurrency,
        exactly like :attr:`stats`.
        """
        stats = self._engine.stats
        with self._work_mutex:
            backlog = len(self._engine.scheduler)
            inflight = self._inflight
        snapshot = {
            "mode": self._mode,
            "threads": self._num_threads,
            "workers": self.num_workers,
            "closed": self._closed,
            "compaction": {
                "queue_depth": backlog,
                "inflight": inflight,
                "backlog": backlog + int(inflight),
                "background_steps": self._background_compactions,
                "total_steps": stats.compactions,
                "throttled_steps": (
                    self._engine.scheduler.compactions_throttled
                ),
                "rate_limit": (
                    self._engine.scheduler.rate_limiter.rate
                    if self._engine.scheduler.rate_limiter is not None
                    else None
                ),
            },
            "queries": {
                "worker": self._worker_queries,
                "local": self._local_queries,
            },
            "cache": None,
            "io": {
                "reads_performed": stats.reads_performed,
                "reads_avoided": stats.reads_avoided,
                "wasted_reads": stats.wasted_reads,
                "flushes": stats.flushes,
                "entries_flushed": stats.entries_flushed,
                "entries_compacted": stats.entries_compacted,
                "bytes_compacted": stats.bytes_compacted,
                "write_amplification": stats.write_amplification,
            },
            "engine": {
                "shards": self._engine.num_shards,
                "runs": self._engine.run_count,
                "filter_bits": self._engine.filter_bits_total,
                "levels": self._engine.level_stats(),
            },
            "planner": (
                self._engine.planner.stats_snapshot()
                if self._engine.planner is not None else None
            ),
        }
        if self._cache is not None:
            snapshot["cache"] = {
                "hits": stats.cache_hits,
                "misses": stats.cache_misses,
                "hit_ratio": stats.cache_hit_ratio,
                "resident_blocks": len(self._cache),
                "capacity_blocks": self._cache.capacity_blocks,
            }
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeQueryService(mode={self._mode!r}, "
            f"threads={self._num_threads}, workers={self.num_workers}, "
            f"shards={self._engine.num_shards}, "
            f"cache={self._cache!r}, closed={self._closed})"
        )
