"""The sharded, persistent, batch-capable storage engine.

:class:`ShardedEngine` composes the pieces of this package into the
system the paper's introduction gestures at — a key-value store serving
heavy range-query traffic behind in-memory filters:

* the universe is range-partitioned across N independent
  :class:`~repro.lsm.store.LSMStore` shards (:mod:`.sharding`), so
  writes scale out and a range query touches only the shards it
  overlaps;
* every acknowledged mutation hits a write-ahead log first
  (:mod:`.wal`); checkpoints snapshot all runs *with their filters* to a
  directory (:mod:`.persist`), and :meth:`open` recovers
  snapshot-plus-log after a crash;
* emptiness probes arrive in batches (:mod:`.batch`) and hit each run's
  filter through the vectorised batch API — Grafite's
  ``O(log(L/eps))`` query of Theorem 3.4 amortised over the batch;
* compaction is always deferred: each shard announces pressure through
  its ``compaction_hook`` to a scheduler (:mod:`.scheduler`), which is
  drained between batches — or, under the concurrent serving layer
  (:mod:`.service`), by a real background compaction thread. Writes
  never poll for pressure.

The engine itself is single-threaded; wrap it in a
:class:`~repro.engine.service.RangeQueryService` to serve it from a
thread pool with per-shard reader/writer locking and a block cache.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.strings import StringKeyCodec
from repro.engine import persist
from repro.engine.batch import batch_range_empty
from repro.engine.scheduler import CompactionScheduler, TokenBucket
from repro.engine.sharding import ShardRouter
from repro.engine.wal import OP_CLOCK, OP_PUT, WriteAheadLog
from repro.errors import CorruptionError, InvalidParameterError
from repro.filters.registry import FilterSpec
from repro.lsm.compaction import CompactionPolicy, resolve_policy
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.store import IoStats, LSMStore
from repro.lsm.ttl import ExpiringValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.autotune import AutoTuner
    from repro.engine.planner import BatchPlanner
    from repro.engine.strings import StringView
    from repro.lsm.cache import BlockCache


class ShardedEngine:
    """A sharded LSM engine with durability and batch queries.

    Parameters
    ----------
    universe:
        Exclusive key-universe bound (at most ``2^64``; the WAL and run
        formats store keys as u64).
    num_shards:
        Number of contiguous key-range partitions.
    memtable_limit / compaction_fanout:
        Passed through to every shard's :class:`LSMStore`.
    filter_spec:
        The filter every flushed run gets: a named backend from
        :mod:`repro.filters.registry` plus its knobs, or ``None`` for
        unfiltered runs. Recorded in the manifest, so :meth:`open`
        mounts the same filter without the caller re-supplying it.
    directory:
        ``None`` keeps the engine in memory. A path makes it persistent:
        mutations are write-ahead logged there and :meth:`checkpoint`
        snapshots the runs. Use :meth:`open` to recover an existing
        directory — passing one that already holds an engine here raises.
    sync_wal:
        fsync the WAL on every mutation (durable against power loss).
    compaction:
        The per-shard compaction policy: a registered name (``"full"``,
        ``"tiered"``, ``"leveled"``), a
        :class:`~repro.lsm.compaction.CompactionPolicy` instance shared
        by every shard, or ``None`` for the backward-compatible
        full-merge default. Recorded in the manifest, so :meth:`open`
        mounts the same policy without the caller re-supplying it.
    compaction_rate:
        Optional compaction throughput ceiling in *entries rewritten
        per second*: installs a
        :class:`~repro.engine.scheduler.TokenBucket` on the scheduler,
        which defers further steps while the bucket is in debt — so
        deferred compaction cannot monopolise the shards under
        sustained ingest. ``None`` (default) leaves compaction
        unthrottled. An operational knob (like ``sync_wal``), not part
        of the manifest.
    key_codec:
        Optional :class:`~repro.core.strings.StringKeyCodec` declaring
        the engine string-keyed. Its universe must equal ``universe``;
        :attr:`strings` then exposes the string-keyed facade over the
        integer API. Recorded in the manifest, so :meth:`open` restores
        the codec without the caller re-supplying the width.
    """

    def __init__(
        self,
        universe: int = 2**64,
        *,
        num_shards: int = 4,
        memtable_limit: int = 1024,
        compaction_fanout: int = 4,
        filter_spec: Optional[FilterSpec] = None,
        directory: Optional[str | Path] = None,
        sync_wal: bool = False,
        compaction: "str | CompactionPolicy | None" = None,
        compaction_rate: Optional[float] = None,
        key_codec: Optional[StringKeyCodec] = None,
    ) -> None:
        if universe > 2**64:
            raise InvalidParameterError(
                "the engine stores keys as u64: universe must be <= 2^64"
            )
        if key_codec is not None and key_codec.universe != universe:
            raise InvalidParameterError(
                f"key_codec width {key_codec.width} implies universe "
                f"{key_codec.universe}, engine universe is {universe}"
            )
        self._router = ShardRouter(universe, num_shards)
        self._memtable_limit = int(memtable_limit)
        self._fanout = int(compaction_fanout)
        self._filter_spec = filter_spec
        self._factory = filter_spec.factory() if filter_spec else None
        self._autotuner: Optional["AutoTuner"] = None
        self._planner: Optional["BatchPlanner"] = None
        self._block_cache: Optional["BlockCache"] = None
        self._scheduler = CompactionScheduler(
            rate_limiter=(
                TokenBucket(compaction_rate)
                if compaction_rate is not None else None
            )
        )
        self._policy = resolve_policy(compaction)
        self._key_codec = key_codec
        self._ttl_now = 0  # logical TTL clock; advances via advance_clock
        self._shards: List[LSMStore] = [
            LSMStore(
                universe,
                memtable_limit=memtable_limit,
                compaction_fanout=compaction_fanout,
                filter_factory=self._factory,
                auto_compact=False,
                compaction_policy=self._policy,
            )
            for _ in range(num_shards)
        ]
        self._wire_compaction_hooks()
        self._wal: Optional[WriteAheadLog] = None
        self._directory: Optional[Path] = None
        self._rolled_back = False
        if directory is not None:
            self._directory = Path(directory)
            if persist.load_manifest(self._directory) is not None:
                raise InvalidParameterError(
                    f"{directory} already holds an engine; use ShardedEngine.open"
                )
            self._directory.mkdir(parents=True, exist_ok=True)
            # Manifest first, so a crash before the first checkpoint still
            # leaves enough topology on disk for open() to recover.
            persist.save_snapshot(self._directory, self._params(), self._shards)
            self._wal = WriteAheadLog(self._directory / "wal.log", sync=sync_wal)
            for op, key, value in self._wal.recovered:
                # A stray pre-manifest log (crash during __init__): replay.
                self._apply(op, key, value)

    def _wire_compaction_hooks(self) -> None:
        """Point every shard's compaction hook at the scheduler.

        The hook is the only way pressure reaches the queue: a shard
        announces it on a flush or clock advance that leaves work behind
        and on an explicit compaction or filter-rebuild request, however
        the call reached the store (an engine mutation, a replayed WAL
        record, the auto-tuner or a caller poking the store directly).
        """
        for sid, store in enumerate(self._shards):
            store.compaction_hook = (
                lambda s, sid=sid: self._scheduler.notify(sid, s)
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: str | Path,
        *,
        sync_wal: bool = False,
        compaction_rate: Optional[float] = None,
    ) -> "ShardedEngine":
        """Recover a persistent engine: snapshot, then WAL replay.

        Every run's filter is rebuilt from the spec its run file
        records, from the same keys with the same seed, so a reopened
        engine answers every query exactly as before the crash/shutdown. The manifest names the engine's
        ``filter_spec``, so runs flushed after the reopen (WAL replay
        included) get the same filter the engine was created with.

        Corruption is never served. If the newest checkpoint fails
        verification — manifest checksum, run checksum, a referenced
        run file missing or unparseable — and the directory retains an
        intact previous epoch (``MANIFEST.prev.json``; the snapshot
        writer keeps both epochs' run files on disk), the engine rolls
        back to that epoch automatically: the previous manifest is
        promoted, the corrupt one kept as ``MANIFEST.corrupt.json``,
        the current WAL is still replayed on top, and
        :attr:`rolled_back` is ``True`` (plus a ``UserWarning`` naming
        the damage). Writes acknowledged between the two checkpoints
        and not in the current WAL are lost — that is the documented
        cost of a rolled-back epoch, and the explicit alternative to a
        silently wrong answer. With no intact epoch left, the original
        :class:`~repro.errors.CorruptionError` propagates.

        The loaded shards are swept once into the compaction scheduler:
        a snapshot may hold pressure that no hook has announced.
        """
        directory = Path(directory)
        rolled_back = False
        try:
            manifest = persist.load_manifest(directory)
            if manifest is None:
                raise InvalidParameterError(f"no engine manifest in {directory}")
            engine = cls._mount_epoch(directory, manifest)
        except CorruptionError as newest_damage:
            try:
                manifest = persist.promote_previous_epoch(directory)
                engine = cls._mount_epoch(directory, manifest)
            except CorruptionError:
                # Neither epoch is intact: surface the *newest* damage —
                # that is the checkpoint the operator thought they had.
                raise newest_damage
            rolled_back = True
            warnings.warn(
                f"newest checkpoint in {directory} failed verification "
                f"({newest_damage}); rolled back to the retained previous "
                f"epoch (generation {manifest.get('generation')}) — writes "
                "between the two checkpoints that are not in the WAL are "
                "lost",
                UserWarning,
                stacklevel=2,
            )
        engine._rolled_back = rolled_back
        engine._directory = directory
        if compaction_rate is not None:
            engine._scheduler.set_rate_limiter(TokenBucket(compaction_rate))
        engine._wal = WriteAheadLog(directory / "wal.log", sync=sync_wal)
        for op, key, value in engine._wal.recovered:
            engine._apply(op, key, value)
        # Queued so a read-only workload still drains them between batches.
        for sid, store in enumerate(engine._shards):
            engine._scheduler.notify(sid, store)
        return engine

    @classmethod
    def _mount_epoch(
        cls, directory: Path, manifest: Dict[str, Any]
    ) -> "ShardedEngine":
        """Build an engine from one manifest's topology (no WAL yet).

        Raises :class:`~repro.errors.CorruptionError` if the manifest's
        filter spec names no buildable filter or any referenced run fails
        verification — the caller decides whether an earlier epoch can be
        promoted instead.
        """
        spec_params = manifest["filter_spec"]
        codec_params = manifest["key_codec"]
        try:
            filter_spec = (
                FilterSpec.from_params(spec_params) if spec_params is not None
                else None
            )
        except InvalidParameterError as exc:
            # The crc held, but no writer produces this spec: the epoch
            # is damaged, so the caller can still roll back.
            raise CorruptionError(
                f"{directory}: manifest filter spec is invalid: {exc}"
            ) from exc
        engine = cls(
            manifest["universe"],
            num_shards=manifest["num_shards"],
            memtable_limit=manifest["memtable_limit"],
            compaction_fanout=manifest["compaction_fanout"],
            filter_spec=filter_spec,
            compaction=resolve_policy(manifest["compaction"]),
            key_codec=(
                StringKeyCodec.from_params(codec_params)
                if codec_params is not None else None
            ),
        )
        # The shards get the restored clock themselves via
        # persist.load_shards → load_shard.
        engine._ttl_now = int(manifest["ttl_now"])
        engine._shards = persist.load_shards(
            directory,
            manifest,
            filter_factory=engine._factory,
            compaction_policy=engine._policy,
        )
        engine._wire_compaction_hooks()
        return engine

    def scrub(self) -> Dict[str, Any]:
        """Verify every persisted artifact of this engine's directory.

        Delegates to :func:`repro.engine.persist.scrub_snapshot`; see
        there for the report shape. Requires a persistent engine.
        """
        if self._directory is None:
            raise InvalidParameterError("scrub requires a persistent engine")
        return persist.scrub_snapshot(self._directory)

    @property
    def rolled_back(self) -> bool:
        """Whether :meth:`open` recovered by rolling back to the
        previous checkpoint epoch because the newest one was corrupt."""
        return self._rolled_back

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _apply(self, op: int, key: int, value: Any) -> None:
        """Apply a replayed WAL record without re-logging it."""
        if op == OP_CLOCK:
            # The key field carries the logical time. Replay tolerates
            # records at or behind the snapshot-restored clock (a record
            # logged just before the checkpoint that superseded it).
            if key > self._ttl_now:
                self._advance_clock_local(int(key))
            return
        store = self._shards[self._router.shard_of(key)]
        if op == OP_PUT:
            store.put(key, value)
        else:
            store.delete(key)

    def put(self, key: int, value: Any, *, expires_at: Optional[int] = None) -> None:
        """Insert or overwrite a key (logged before applied).

        ``expires_at`` stamps the entry with a logical expiry time: the
        entry stops answering every read the moment the TTL clock
        (:meth:`advance_clock`) reaches the stamp — shadowing older
        versions exactly like a tombstone — and compaction removes it
        physically later. The stamp rides the WAL and snapshot formats
        unchanged (the value is stored wrapped in
        :class:`~repro.lsm.ttl.ExpiringValue`).
        """
        store = self._shards[self._router.shard_of(key)]  # validates first
        if value is TOMBSTONE:
            raise InvalidParameterError("use delete() instead of writing the tombstone")
        if expires_at is not None:
            value = ExpiringValue(value, expires_at)
        if self._wal is not None:
            self._wal.log_put(key, value)
        store.put(key, value)

    def delete(self, key: int) -> None:
        """Delete a key (logged before applied)."""
        store = self._shards[self._router.shard_of(key)]  # validates first
        if self._wal is not None:
            self._wal.log_delete(key)
        store.delete(key)

    # ------------------------------------------------------------------
    # TTL clock
    # ------------------------------------------------------------------
    def _advance_clock_local(self, now: int) -> None:
        """Move every shard's clock forward without re-logging."""
        self._ttl_now = now
        for store in self._shards:
            store.set_ttl_now(now)  # announces any age-out work it leaves

    def advance_clock(self, now: int) -> None:
        """Advance the logical TTL clock (monotone; logged before applied).

        Entries whose ``expires_at`` stamp is at or below the new time
        become invisible to every read path at once, exactly; compaction
        then retires them physically — fully-expired bottom runs age out
        whole key ranges in metadata-only steps. The advance is logged
        to the WAL (and recorded in checkpoint manifests), so recovery
        can never resurrect an entry that had already expired.
        """
        now = int(now)
        if now < self._ttl_now:
            raise InvalidParameterError(
                f"TTL clock may not go backwards ({self._ttl_now} -> {now})"
            )
        if now == self._ttl_now:
            return
        if self._wal is not None:
            self._wal.log_clock(now)
        self._advance_clock_local(now)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: int) -> Optional[Any]:
        """Point lookup, routed to the owning shard."""
        return self._shards[self._router.shard_of(key)].get(key)

    def range_scan(self, lo: int, hi: int) -> List[Tuple[int, Any]]:
        """All live pairs in ``[lo, hi]``; splits at shard boundaries.

        Shards own disjoint contiguous ranges, so per-shard results
        concatenate in key order without a merge.
        """
        out: List[Tuple[int, Any]] = []
        for sid, seg_lo, seg_hi in self._router.split(lo, hi):
            out.extend(self._shards[sid].range_scan(seg_lo, seg_hi))
        return out

    def range_empty(self, lo: int, hi: int) -> bool:
        """Exact emptiness probe; short-circuits across shards."""
        return all(
            self._shards[sid].range_empty(seg_lo, seg_hi)
            for sid, seg_lo, seg_hi in self._router.split(lo, hi)
        )

    def batch_range_empty(
        self, los: np.ndarray | List[int], his: np.ndarray | List[int]
    ) -> np.ndarray:
        """Vectorised :meth:`range_empty` over a batch of ranges.

        Drains deferred compactions first (the "between batches" slot),
        then answers through :func:`repro.engine.batch.batch_range_empty`,
        which validates the bounds once: a batch of at most
        :data:`~repro.engine.batch.SCALAR_CUTOFF` ranges takes the
        straight scalar path, a larger one the planner (when attached)
        and the filter-pruned columnar path. With an auto-tuner
        attached, the batch's workload telemetry may retarget shard
        filter factories afterwards — rebuilds happen at the *next*
        between-batches slot, never inside this one.
        """
        self.drain_compactions()
        result = batch_range_empty(self, los, his)
        if self._autotuner is not None:
            self._autotuner.maybe_retune()
        return result

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush_all(self) -> None:
        """Flush every shard's memtable into level-0 runs."""
        for store in self._shards:
            store.flush()

    def drain_compactions(self, max_steps: Optional[int] = None) -> int:
        """Run deferred compaction steps now; returns how many ran."""
        return self._scheduler.drain(max_steps)

    def attach_block_cache(self, cache: Optional["BlockCache"]) -> None:
        """Put a shared block cache in front of every shard's run reads.

        Pass ``None`` to detach. Attaching never changes query results
        (runs are immutable); it only changes which block fetches touch
        the simulated disk, visible in :attr:`stats` as
        ``cache_hits`` / ``cache_misses``.
        """
        self._block_cache = cache
        for store in self._shards:
            store.attach_cache(cache)

    def attach_autotuner(self, tuner: Optional["AutoTuner"]) -> None:
        """Install (or remove, with ``None``) a per-shard auto-tuner.

        The tuner subscribes to each shard's batch-query telemetry and
        is given a chance to retarget filter factories after every
        batch (:meth:`batch_range_empty`, or the serving layer's batch
        path). Attaching never changes query results — filters only
        prune, and the exact verification path is backend-agnostic.
        """
        if self._autotuner is not None:
            self._autotuner.detach()
        self._autotuner = tuner
        if tuner is not None:
            tuner.attach(self)

    def attach_planner(self, planner: Optional["BatchPlanner"]) -> None:
        """Install (or remove, with ``None``) a batch query planner.

        With one attached, :meth:`batch_range_empty` runs every batch
        of more than :data:`~repro.engine.batch.SCALAR_CUTOFF` ranges
        (the serving layer's: every batch) through the planner's dedup
        pass, and each shard's sub-batch through its negative-result
        cache in the same lock hold that executes it
        (:mod:`repro.engine.planner`). Attaching never changes query
        results: the planner only reuses verdicts whose validity
        conditions (``runs_version`` tag + memtable-overlap check) hold
        at lookup time.
        """
        if self._planner is not None:
            self._planner.detach()
        self._planner = planner
        if planner is not None:
            planner.attach(self)

    def checkpoint(self) -> None:
        """Flush, snapshot all runs + filters to disk, reset the WAL."""
        if self._directory is None or self._wal is None:
            raise InvalidParameterError("checkpoint requires a persistent engine")
        self.flush_all()
        persist.save_snapshot(self._directory, self._params(), self._shards)
        self._wal.reset()

    def close(self, *, checkpoint: bool = True) -> None:
        """Shut down cleanly; by default checkpoints first."""
        if self._wal is not None:
            if checkpoint:
                self.checkpoint()
            self._wal.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception, skip the checkpoint: recovery replays the WAL,
        # which is exactly the crash semantics callers are testing.
        self.close(checkpoint=exc_type is None)

    def _params(self) -> dict:
        return {
            "universe": self._router.universe,
            "num_shards": self._router.num_shards,
            "memtable_limit": self._memtable_limit,
            "compaction_fanout": self._fanout,
            "compaction": self._policy.to_params(),
            "filter_spec": (
                self._filter_spec.to_params() if self._filter_spec else None
            ),
            "ttl_now": self._ttl_now,
            "key_codec": (
                self._key_codec.to_params() if self._key_codec else None
            ),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shards(self) -> List[LSMStore]:
        return self._shards

    @property
    def scheduler(self) -> CompactionScheduler:
        return self._scheduler

    @property
    def compaction_policy(self) -> CompactionPolicy:
        """The policy every shard's compaction follows."""
        return self._policy

    def level_stats(self) -> List[Dict[str, int]]:
        """Cross-shard level topology: per level, total runs/entries
        (summed over shards) plus the policy budget when levels are
        budgeted. Row 0 is L0; depth is the deepest shard's."""
        merged: List[Dict[str, int]] = []
        for store in self._shards:
            for row in store.level_stats():
                li = row["level"]
                while len(merged) <= li:
                    merged.append({"level": len(merged), "runs": 0,
                                   "entries": 0})
                agg = merged[li]
                agg["runs"] += row["runs"]
                agg["entries"] += row["entries"]
                if "slices" in row:
                    agg["slices"] = agg.get("slices", 0) + row["slices"]
                if "budget" in row:
                    # Per-shard budget; the cross-shard ceiling is the sum.
                    agg["budget"] = agg.get("budget", 0) + row["budget"]
        return merged

    @property
    def block_cache(self) -> Optional["BlockCache"]:
        return self._block_cache

    @property
    def filter_spec(self) -> Optional[FilterSpec]:
        """The registry spec the engine was built with (``None`` for an
        unfiltered engine)."""
        return self._filter_spec

    @property
    def autotuner(self) -> Optional["AutoTuner"]:
        return self._autotuner

    @property
    def planner(self) -> Optional["BatchPlanner"]:
        """The attached batch query planner, or ``None``."""
        return self._planner

    @property
    def ttl_now(self) -> int:
        """Current logical TTL clock (see :meth:`advance_clock`)."""
        return self._ttl_now

    @property
    def key_codec(self) -> Optional[StringKeyCodec]:
        """The string-key codec the engine was built with, or ``None``."""
        return self._key_codec

    @property
    def strings(self) -> "StringView":
        """String-keyed facade over this engine (requires a key codec)."""
        from repro.engine.strings import StringView

        return StringView(self, self._key_codec)

    @property
    def universe(self) -> int:
        return self._router.universe

    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def directory(self) -> Optional[Path]:
        return self._directory

    @property
    def stats(self) -> IoStats:
        """Aggregated I/O ledger across all shards."""
        return IoStats.aggregate(store.stats for store in self._shards)

    @property
    def per_shard_stats(self) -> List[IoStats]:
        return [store.stats for store in self._shards]

    @property
    def run_count(self) -> int:
        return sum(store.run_count for store in self._shards)

    @property
    def filter_bits_total(self) -> int:
        return sum(store.filter_bits_total for store in self._shards)

    def __len__(self) -> int:
        """Number of live keys across all shards (scans; for tests/demos)."""
        return sum(len(store) for store in self._shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self._directory) if self._directory else "memory"
        return (
            f"ShardedEngine(shards={self.num_shards}, u={self.universe}, "
            f"runs={self.run_count}, at={where!r})"
        )
