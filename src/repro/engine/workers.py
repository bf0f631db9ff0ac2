"""Per-shard snapshot worker processes for the process-mode service.

CPU-bound batch probes do not scale across threads in CPython: the
filter kernels are numpy-heavy but interleaved with enough interpreter
work that the GIL serialises them. This module gives
:class:`~repro.engine.service.RangeQueryService` a ``mode="process"``
back end that sidesteps the GIL entirely:

* a :class:`ShardWorkerPool` spawns ``num_workers`` child processes;
  worker ``w`` owns shards ``{sid : sid % num_workers == w}`` and loads
  them **read-only from the engine's last checkpoint** — run files,
  each rebuilding its filter from the spec it records; no WAL, no
  memtable, no filter factory (so nothing unpicklable ever crosses the
  process boundary);
* each sub-batch travels over the worker's ``multiprocessing`` pipe as
  one request/reply pair: a small ``("query", sid)`` header, then the
  ``(2, n)`` ``uint64`` bound columns as raw bytes
  (``Connection.send_bytes``); the worker answers with a ``("done", n,
  stats_delta)`` header and the verdict column, also raw. The columns
  themselves are **never pickled**, and the parent only ever sends to
  an idle worker, under that worker's lock;
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
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.cache import SharedBlockCache

#: Per-request I/O counters a worker ships back, as deltas of these
#: :class:`~repro.lsm.store.IoStats` fields.
_STAT_FIELDS = (
    "reads_performed", "reads_avoided", "wasted_reads", "cache_hits", "cache_misses",
)

#: Backstop for a *live but hung* worker. Death is detected within one
#: poll slice regardless, so this only bounds genuine livelock; it is
#: deliberately generous because a single request can legitimately
#: take minutes when every verification pays a simulated device sleep
#: (e.g. batch size x miss_latency).
_POLL_TIMEOUT = 600.0
_POLL_SLICE = 1.0  # liveness-check granularity while waiting


class WorkerError(RuntimeError):
    """A worker process died or answered out of protocol."""


def worker_main(
    conn,
    directory: str,
    owned_sids: Sequence[int],
    start_method: str = "fork",
    shared_cache_name: Optional[str] = None,
    shared_cache_locks: Optional[Sequence[object]] = None,
) -> None:
    """Entry point of a snapshot worker process.

    Serves two requests: ``("reload", generation)`` re-opens the owned
    shards from the checkpoint directory and acks ``("ready",
    generation)``; ``("query", sid)`` is followed by the ``(2, n)``
    ``uint64`` bound columns as one raw message, which the worker
    answers through the same
    :func:`~repro.engine.batch.shard_batch_empty` kernel the in-process
    path runs (memtable empty, so the verdicts are run-set emptiness).
    It replies ``("done", n, stats_delta)`` and then the ``n`` verdict
    bytes, again raw.

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
                        # every run rebuilds its filter from its recorded spec.
                        sid: persist.load_shard(directory, manifest, sid)
                        for sid in owned_sids
                    }
                    for store in stores.values():
                        store.attach_cache(cache)
                    conn.send(("ready", generation))
                except Exception as exc:  # noqa: BLE001 - forwarded to parent
                    conn.send(("error", f"reload failed: {exc!r}"))
            elif tag == "query":
                # Read the columns before any reply, so an error keeps
                # the request/reply stream in step.
                bounds = np.frombuffer(conn.recv_bytes(), dtype=np.uint64)
                sid = msg[1]
                store = stores.get(sid)
                if store is None:
                    conn.send(("error", f"shard {sid} not loaded"))
                    continue
                q_lo, q_hi = bounds.reshape(2, -1)
                ledger = store.stats
                before = [getattr(ledger, f) for f in _STAT_FIELDS]
                empty = shard_batch_empty(store, q_lo, q_hi)
                delta = tuple(
                    getattr(ledger, f) - b for f, b in zip(_STAT_FIELDS, before)
                )
                conn.send(("done", int(q_lo.size), delta))
                conn.send_bytes(np.asarray(empty, dtype=np.uint8))
            else:
                conn.send(("error", f"unknown request {tag!r}"))
    finally:
        conn.close()
        if cache is not None:
            cache.close()  # attachment only; the parent owns the slab


class _WorkerHandle:
    """Parent-side state for one worker process (one user at a time)."""

    __slots__ = ("process", "conn", "lock", "alive")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True

    def send(self, msg, payload: Optional[np.ndarray] = None) -> None:
        """One protocol request, then ``payload``'s raw bytes if given;
        a dead worker surfaces as WorkerError."""
        try:
            self.conn.send(msg)
            if payload is not None:
                self.conn.send_bytes(payload)
        except (OSError, ValueError) as exc:  # BrokenPipeError is an OSError
            raise WorkerError(f"worker pipe send failed: {exc!r}") from exc

    def recv(self, into: Optional[np.ndarray] = None):
        """One protocol reply, failing fast on death, patiently on load.

        Polls in short slices so a dead worker surfaces within about a
        second, while a *live* worker grinding through an expensive
        request (simulated device sleeps) is waited on up to the hung
        backstop rather than being falsely retired. With ``into`` the
        reply is a raw message read straight into that ``uint8`` array,
        and the byte count is returned.
        """
        deadline = time.monotonic() + _POLL_TIMEOUT
        try:
            while not self.conn.poll(_POLL_SLICE):
                if not self.process.is_alive():
                    raise WorkerError("worker process died")
                if time.monotonic() > deadline:
                    raise WorkerError("worker hung past the backstop timeout")
            if into is not None:
                return self.conn.recv_bytes_into(into)
            msg = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerError(f"worker process died: {exc!r}") from exc
        except multiprocessing.BufferTooShort as exc:
            raise WorkerError("worker reply longer than its header said") from exc
        if msg[0] == "error":
            raise WorkerError(msg[1])
        return msg


class ShardWorkerPool:
    """Read-only snapshot workers answering batches over their pipes.

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
        shared_cache: Optional["SharedBlockCache"] = None,
    ) -> None:
        if num_workers < 1:
            raise InvalidParameterError("num_workers must be >= 1")
        self._directory = str(directory)
        self._num_workers = min(int(num_workers), int(num_shards))
        methods = multiprocessing.get_all_start_methods()
        self._start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self._start_method)
        self._handles: List[_WorkerHandle] = []
        self._closed = False
        try:
            for w in range(self._num_workers):
                owned = tuple(
                    sid for sid in range(num_shards) if sid % self._num_workers == w
                )
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=worker_main,
                    args=(
                        child_conn, self._directory, owned, self._start_method,
                        shared_cache.name if shared_cache is not None else None,
                        list(shared_cache.locks) if shared_cache is not None else None,
                    ),
                    name=f"repro-shard-worker-{w}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._handles.append(_WorkerHandle(process, parent_conn))
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

        Sends the bound columns to the owning worker in one request and
        reads its verdict column back. Returns ``(verdicts,
        stats_delta)`` where ``stats_delta`` is the worker-side
        ``(reads_performed, reads_avoided, wasted_reads, cache_hits,
        cache_misses)`` attributable to this call. Raises
        :class:`WorkerError` if the worker died or desynchronised; the
        caller falls back to the in-process path.
        """
        self._check_open()
        handle = self._handles[self.worker_of(sid)]
        n = int(q_lo.size)
        verdicts = np.empty(n, dtype=bool)
        with handle.lock:
            if not handle.alive:
                raise WorkerError("worker previously failed")
            try:
                handle.send(
                    ("query", sid),
                    np.stack((q_lo, q_hi)).astype(np.uint64, copy=False),
                )
                tag, count, delta = handle.recv()
                if tag != "done" or count != n:
                    raise WorkerError(
                        f"unexpected reply {(tag, count)!r} to {n} ranges"
                    )
                got = handle.recv(into=verdicts.view(np.uint8))
                if got != n:
                    raise WorkerError(f"{got} verdict bytes for {n} ranges")
            except WorkerError:
                handle.alive = False
                raise
            except (ValueError, TypeError) as exc:
                # A malformed reply (e.g. a stale ack after a lost reload)
                # means the protocol stream is unusable; retire the worker
                # so the caller's local fallback takes over.
                handle.alive = False
                raise WorkerError(f"worker protocol desync: {exc!r}") from exc
        return verdicts, tuple(delta)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker and close its pipe."""
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

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardWorkerPool(workers={self._num_workers}, "
            f"closed={self._closed})"
        )
