"""Per-shard snapshot worker processes for the process-mode service.

CPU-bound batch probes do not scale across threads in CPython: the
filter kernels are numpy-heavy but interleaved with enough interpreter
work that the GIL serialises them. This module gives
:class:`~repro.engine.service.RangeQueryService` a ``mode="process"``
back end that sidesteps the GIL entirely:

* a :class:`ShardWorkerPool` spawns ``num_workers`` child processes;
  worker ``w`` owns shards ``{sid : sid % num_workers == w}`` and loads
  them **read-only from the engine's last checkpoint** — run files plus
  their serialised filters, no WAL, no memtable, no filter factory (so
  nothing unpicklable ever crosses the process boundary);
* query payloads travel through ``multiprocessing.shared_memory`` ring
  buffers: the parent writes ``lo``/``hi`` ``uint64`` columns into a
  request slot, the worker writes a verdict bitmap (plus an I/O-stats
  delta) into the matching response slot. Only a tiny ``(tag, seq,
  slot, sid, count)`` tuple crosses the control pipe per chunk — the
  columns themselves are **never pickled**;
* the ring has ``slot_count`` slots, so the parent pipelines up to that
  many chunks per worker while earlier chunks are still being computed;
* a **checkpoint-epoch handshake** keeps workers honest: the parent
  only routes a query to a worker while the owning shard's
  :attr:`~repro.lsm.store.LSMStore.runs_version` still equals the
  version recorded when the snapshot was taken. The version keys off
  the shard's whole level topology — a flush, a tiered cascade or a
  single leveled slice rewrite all bump it — so any compaction *step*
  silently sends that shard's traffic back to the locked in-process
  path until the next checkpoint re-syncs the workers
  (:meth:`ShardWorkerPool.reload`). Workers load whatever topology the
  manifest records and never compact it: they own no policy, only read-only runs.

Workers answer *run-set* emptiness. That equals full emptiness exactly
when the shard's memtable has no entry (live or tombstone) inside the
query range — which the service checks per query column with one
``searchsorted`` — because an out-of-range tombstone cannot shadow an
in-range key. Queries with memtable overlap stay on the in-process
exact path.

Processes are started with the ``fork`` method where the platform has
it (no pickling, instant start) and ``spawn`` elsewhere; every argument
handed to a worker is a plain string/int so both work. Start workers
before spinning up unrelated threads when forking — the pool is created
in the service constructor before its compaction thread for exactly
that reason.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import warnings
from collections import deque
from multiprocessing import shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.cache import SharedBlockCache

#: Per-chunk I/O counters a worker ships back: (reads_performed,
#: reads_avoided, wasted_reads, cache_hits, cache_misses).
_STAT_FIELDS = 5

#: Backstop for a *live but hung* worker. Death is detected within one
#: poll slice regardless, so this only bounds genuine livelock; it is
#: deliberately generous because a single ring chunk can legitimately
#: take minutes when every verification pays a simulated device sleep
#: (e.g. slot_capacity x miss_latency).
_POLL_TIMEOUT = 600.0
_POLL_SLICE = 1.0  # liveness-check granularity while waiting


class WorkerError(RuntimeError):
    """A worker process died or answered out of protocol."""


def _attach(name: str, *, unregister: bool) -> shared_memory.SharedMemory:
    """Attach to an existing segment, fixing up resource tracking.

    Attaching registers the segment with the attaching process's
    resource tracker (CPython < 3.13). Under the ``spawn`` start method
    the child owns a *separate* tracker which would unlink the segment —
    and warn — at child exit even though the parent still owns it, so
    the child unregisters right away. Under ``fork`` the child shares
    the parent's tracker and must *not* unregister: the name has to stay
    registered until the parent's ``unlink``.
    """
    shm = shared_memory.SharedMemory(name=name)
    if unregister:
        try:  # pragma: no cover - tracker layout differs across builds
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    return shm


def _ring_views(
    buf_req: memoryview, buf_resp: memoryview, slot_count: int, slot_capacity: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Typed views over the two ring segments: (bounds, verdicts, stats)."""
    bounds = np.ndarray(
        (slot_count, slot_capacity, 2), dtype=np.uint64, buffer=buf_req
    )
    verdict_bytes = slot_count * slot_capacity
    verdicts = np.ndarray(
        (slot_count, slot_capacity), dtype=np.uint8, buffer=buf_resp[:verdict_bytes]
    )
    stats = np.ndarray(
        (slot_count, _STAT_FIELDS),
        dtype=np.uint64,
        buffer=buf_resp[verdict_bytes:],
    )
    return bounds, verdicts, stats


def worker_main(
    conn,
    directory: str,
    owned_sids: Sequence[int],
    req_name: str,
    resp_name: str,
    slot_count: int,
    slot_capacity: int,
    start_method: str = "fork",
    shared_cache_name: Optional[str] = None,
    shared_cache_locks: Optional[Sequence[object]] = None,
) -> None:
    """Entry point of a snapshot worker process.

    Serves two requests: ``("reload", generation)`` re-opens the owned
    shards from the checkpoint directory and acks ``("ready",
    generation)``; ``("query", seq, slot, sid, count)`` answers the
    bound columns in request slot ``slot`` through the same
    :func:`~repro.engine.batch.shard_batch_empty` kernel the in-process
    path runs (memtable empty, so the verdicts are run-set emptiness)
    and acks ``("done", seq, slot, count)`` once the verdict bitmap and
    stats delta are in the response slot.

    With ``shared_cache_name`` set the worker *attaches* to the
    parent's :class:`~repro.lsm.cache.SharedBlockCache` slab
    (``shared_cache_locks`` are the creator's stripe locks, inherited
    through the process args): every worker — and the parent's locked
    in-process path — then reads and warms one cache, so a block
    admitted anywhere is a hit everywhere. The slab header carries the
    owner's ``miss_latency``, so worker-side run verification pays the
    same simulated device cost as the in-process path, and cache
    hit/miss counts ship back in the stats delta. The attachment
    survives reloads; the parent owns the slab's lifetime and the
    worker only closes its attachment. Without a slab the worker reads
    its runs uncached.
    """
    # Imported here, not at module top: under the spawn start method the
    # child pays these imports once at boot, and under fork they are
    # already resolved — either way the hot loop below never imports.
    from repro.engine import persist
    from repro.engine.batch import shard_batch_empty
    from repro.lsm.cache import SharedBlockCache

    req = _attach(req_name, unregister=start_method != "fork")
    resp = _attach(resp_name, unregister=start_method != "fork")
    bounds, verdicts, stats = _ring_views(
        req.buf, resp.buf, slot_count, slot_capacity
    )
    cache = None
    if shared_cache_name is not None:
        cache = SharedBlockCache.attach(
            shared_cache_name,
            list(shared_cache_locks or []),
            unregister=start_method != "fork",
        )
    stores: Dict[int, object] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:  # parent died: nothing left to serve
                break
            tag = msg[0]
            if tag == "stop":
                break
            if tag == "reload":
                generation = msg[1]
                try:
                    manifest = persist.load_manifest(directory)
                    if manifest is None:
                        raise InvalidParameterError(f"no manifest in {directory}")
                    if manifest["generation"] != generation:
                        raise InvalidParameterError(
                            f"manifest generation {manifest['generation']} != "
                            f"expected {generation}"
                        )
                    stores = {
                        # Workers only read, so they own no filter factory:
                        # every run restores its filter from its blob.
                        sid: persist.load_shard(directory, manifest, sid)
                        for sid in owned_sids
                    }
                    for store in stores.values():
                        store.attach_cache(cache)
                    conn.send(("ready", generation))
                except Exception as exc:  # noqa: BLE001 - forwarded to parent
                    conn.send(("error", f"reload failed: {exc!r}"))
            elif tag == "query":
                _, seq, slot, sid, count = msg
                store = stores.get(sid)
                if store is None:
                    conn.send(("error", f"shard {sid} not loaded"))
                    continue
                q_lo = bounds[slot, :count, 0]
                q_hi = bounds[slot, :count, 1]
                ledger = store.stats
                before = (
                    ledger.reads_performed,
                    ledger.reads_avoided,
                    ledger.wasted_reads,
                    ledger.cache_hits,
                    ledger.cache_misses,
                )
                empty = shard_batch_empty(store, q_lo, q_hi)
                verdicts[slot, :count] = empty
                stats[slot, 0] = ledger.reads_performed - before[0]
                stats[slot, 1] = ledger.reads_avoided - before[1]
                stats[slot, 2] = ledger.wasted_reads - before[2]
                stats[slot, 3] = ledger.cache_hits - before[3]
                stats[slot, 4] = ledger.cache_misses - before[4]
                conn.send(("done", seq, slot, count))
            else:
                conn.send(("error", f"unknown request {tag!r}"))
    finally:
        conn.close()
        if cache is not None:
            cache.close()  # attachment only; the parent owns the slab
        req.close()
        resp.close()


class _WorkerHandle:
    """Parent-side state for one worker process (one user at a time)."""

    __slots__ = (
        "process", "conn", "req_shm", "resp_shm",
        "bounds", "verdicts", "stats", "lock", "alive",
    )

    def __init__(self, process, conn, req_shm, resp_shm, slot_count, slot_capacity):
        self.process = process
        self.conn = conn
        self.req_shm = req_shm
        self.resp_shm = resp_shm
        self.bounds, self.verdicts, self.stats = _ring_views(
            req_shm.buf, resp_shm.buf, slot_count, slot_capacity
        )
        self.lock = threading.Lock()
        self.alive = True

    def send(self, msg) -> None:
        """One protocol request; a dead worker surfaces as WorkerError."""
        try:
            self.conn.send(msg)
        except (OSError, ValueError) as exc:  # BrokenPipeError is an OSError
            raise WorkerError(f"worker pipe send failed: {exc!r}") from exc

    def recv(self):
        """One protocol reply, failing fast on death, patiently on load.

        Polls in short slices so a dead worker surfaces within about a
        second, while a *live* worker grinding through an expensive
        chunk (simulated device sleeps) is waited on up to the hung
        backstop rather than being falsely retired.
        """
        deadline = time.monotonic() + _POLL_TIMEOUT
        try:
            while not self.conn.poll(_POLL_SLICE):
                if not self.process.is_alive():
                    raise WorkerError("worker process died")
                if time.monotonic() > deadline:
                    raise WorkerError("worker hung past the backstop timeout")
            msg = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(f"worker process died: {exc!r}") from exc
        if msg[0] == "error":
            raise WorkerError(msg[1])
        return msg


class ShardWorkerPool:
    """Read-only snapshot workers behind shared-memory query rings.

    Parameters
    ----------
    directory:
        The persistent engine's checkpoint directory.
    num_shards:
        Shard count of the engine; shards are dealt to workers
        round-robin (``sid % num_workers``).
    num_workers:
        Worker processes to spawn (capped at ``num_shards`` — an idle
        worker owning no shard would be pure overhead).
    slot_count / slot_capacity:
        Ring geometry per worker: how many chunks may be in flight and
        how many queries fit one chunk.
    shared_cache:
        A parent-owned :class:`~repro.lsm.cache.SharedBlockCache` every
        worker attaches to (``None``: workers read uncached). One slab
        serves all workers and the parent: an admission anywhere is a
        hit everywhere, total cache memory stays one slab, and the
        slab's own ``miss_latency`` is the device cost every worker pays.
    """

    def __init__(
        self,
        directory: str | Path,
        num_shards: int,
        num_workers: int,
        *,
        slot_count: int = 4,
        slot_capacity: int = 8192,
        shared_cache: Optional["SharedBlockCache"] = None,
    ) -> None:
        if num_workers < 1:
            raise InvalidParameterError("num_workers must be >= 1")
        if slot_count < 1 or slot_capacity < 1:
            raise InvalidParameterError("ring geometry must be positive")
        self._directory = str(directory)
        self._num_workers = min(int(num_workers), int(num_shards))
        self._slot_count = int(slot_count)
        self._slot_capacity = int(slot_capacity)
        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self._start_method)
        self._handles: List[_WorkerHandle] = []
        self._closed = False
        req_bytes = self._slot_count * self._slot_capacity * 16
        resp_bytes = self._slot_count * (self._slot_capacity + _STAT_FIELDS * 8)
        try:
            for w in range(self._num_workers):
                owned = tuple(
                    sid for sid in range(num_shards) if sid % self._num_workers == w
                )
                # Segments created this iteration are released here on any
                # failure before they are wrapped in a handle; close()
                # below only knows about completed handles.
                req_shm = resp_shm = None
                try:
                    req_shm = shared_memory.SharedMemory(create=True, size=req_bytes)
                    resp_shm = shared_memory.SharedMemory(create=True, size=resp_bytes)
                    parent_conn, child_conn = self._ctx.Pipe()
                    process = self._ctx.Process(
                        target=worker_main,
                        args=(
                            child_conn, self._directory, owned,
                            req_shm.name, resp_shm.name,
                            self._slot_count, self._slot_capacity,
                            self._start_method,
                            shared_cache.name if shared_cache is not None else None,
                            list(shared_cache.locks) if shared_cache is not None else None,
                        ),
                        name=f"repro-shard-worker-{w}",
                        daemon=True,
                    )
                    process.start()
                except BaseException:
                    for shm in (req_shm, resp_shm):
                        if shm is not None:
                            shm.close()
                            shm.unlink()
                    raise
                child_conn.close()
                self._handles.append(
                    _WorkerHandle(
                        process, parent_conn, req_shm, resp_shm,
                        self._slot_count, self._slot_capacity,
                    )
                )
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self._num_workers

    def worker_of(self, sid: int) -> int:
        return sid % self._num_workers

    # ------------------------------------------------------------------
    # Epoch handshake
    # ------------------------------------------------------------------
    def reload(self, generation: int) -> int:
        """Synchronously re-open every worker's shards at ``generation``.

        Sends all reload commands first, then collects all acks, so the
        (file-bound) reloads overlap across workers. Must be called with
        the keyspace quiesced — the service does so under all write
        locks, right after the checkpoint that produced ``generation``.

        Failure-isolated per worker: a worker that dies or answers out
        of protocol is marked down (its shards fall back to the caller's
        in-process path at query time) while the remaining workers keep
        serving. Returns the number of workers alive afterwards; the
        caller decides whether zero is fatal.
        """
        self._check_open()
        for handle in self._handles:
            with handle.lock:
                if not handle.alive:
                    continue
                try:
                    handle.send(("reload", generation))
                except WorkerError:
                    handle.alive = False
        alive = 0
        for w, handle in enumerate(self._handles):
            with handle.lock:
                if not handle.alive:
                    continue
                try:
                    tag, got = handle.recv()
                    if tag != "ready" or got != generation:
                        raise WorkerError(f"unexpected reload ack {(tag, got)!r}")
                    alive += 1
                except (WorkerError, ValueError) as exc:
                    # Mark it down rather than raising: the protocol with
                    # this worker may be desynchronised, but every other
                    # worker acked in lockstep and stays usable.
                    handle.alive = False
                    warnings.warn(
                        f"snapshot worker {w} lost during reload ({exc}); "
                        "its shards will be served in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return alive

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise WorkerError("worker pool is closed")

    def query(
        self, sid: int, q_lo: np.ndarray, q_hi: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Run-set emptiness of each ``[q_lo[j], q_hi[j]]`` on shard ``sid``.

        Streams the bound columns through the owning worker's ring —
        chunks of ``slot_capacity`` queries, up to ``slot_count`` in
        flight — and reassembles the verdict bitmap in order. Returns
        ``(verdicts, stats_delta)`` where ``stats_delta`` is the
        worker-side ``(reads_performed, reads_avoided, wasted_reads,
        cache_hits, cache_misses)`` attributable to this call. Raises
        :class:`WorkerError` if the worker died or desynchronised; the
        caller falls back to the in-process path.
        """
        self._check_open()
        handle = self._handles[self.worker_of(sid)]
        n = int(q_lo.size)
        verdicts = np.empty(n, dtype=bool)
        totals = [0] * _STAT_FIELDS
        cap = self._slot_capacity
        with handle.lock:
            if not handle.alive:
                raise WorkerError("worker previously failed")
            try:
                inflight: deque = deque()
                seq = 0
                for start in range(0, n, cap):
                    stop = min(start + cap, n)
                    if len(inflight) == self._slot_count:
                        self._collect(handle, inflight, verdicts, totals)
                    slot = seq % self._slot_count
                    count = stop - start
                    handle.bounds[slot, :count, 0] = q_lo[start:stop]
                    handle.bounds[slot, :count, 1] = q_hi[start:stop]
                    handle.send(("query", seq, slot, sid, count))
                    inflight.append((seq, slot, start, stop))
                    seq += 1
                while inflight:
                    self._collect(handle, inflight, verdicts, totals)
            except WorkerError:
                handle.alive = False
                raise
            except (ValueError, TypeError) as exc:
                # A malformed reply (e.g. a stale ack after a lost reload)
                # means the protocol stream is unusable; retire the worker
                # so the caller's local fallback takes over.
                handle.alive = False
                raise WorkerError(f"worker protocol desync: {exc!r}") from exc
        return verdicts, tuple(totals)

    def _collect(self, handle: _WorkerHandle, inflight, verdicts, totals) -> None:
        """Receive one completion and scatter its slot into the output."""
        seq, slot, start, stop = inflight.popleft()
        tag, got_seq, got_slot, count = handle.recv()
        if tag != "done" or got_seq != seq or got_slot != slot or count != stop - start:
            raise WorkerError(
                f"out-of-order reply {(tag, got_seq, got_slot, count)!r}, "
                f"expected seq {seq}"
            )
        verdicts[start:stop] = handle.verdicts[slot, :count].astype(bool)
        for f in range(_STAT_FIELDS):
            totals[f] += int(handle.stats[slot, f])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and release the shared-memory rings."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=timeout)
            handle.conn.close()
            # Views alias the shm buffers; drop them before closing.
            handle.bounds = handle.verdicts = handle.stats = None  # type: ignore[assignment]
            for shm in (handle.req_shm, handle.resp_shm):
                try:
                    shm.close()
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - double close
                    pass

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardWorkerPool(workers={self._num_workers}, "
            f"ring={self._slot_count}x{self._slot_capacity}, "
            f"closed={self._closed})"
        )
