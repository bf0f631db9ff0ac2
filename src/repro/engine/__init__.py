"""repro.engine — a sharded, persistent, batch-query storage engine.

This package scales the single-shard in-memory :class:`repro.lsm.LSMStore`
into the system the paper motivates (§1, §6.7): a RocksDB-style store
serving heavy range-query traffic behind in-memory filters.

* :class:`~repro.engine.engine.ShardedEngine` — the façade: key-range
  sharding, WAL durability, checkpoints, batch queries; its filter is a
  :class:`~repro.filters.registry.FilterSpec` named in the manifest;
* :class:`~repro.engine.sharding.ShardRouter` — contiguous key-range
  partitioning and cross-shard query splitting;
* :class:`~repro.engine.wal.WriteAheadLog` — torn-tail-tolerant
  durability log;
* :mod:`~repro.engine.persist` — snapshot format for runs *and* their
  filters (reopened engines answer queries identically);
* :func:`~repro.engine.batch.batch_range_empty` — vectorised emptiness
  probes through the filters' batch API (sub-batches of a few ranges
  take a scalar loop instead);
* :class:`~repro.engine.scheduler.CompactionScheduler` — deferred
  compaction drained between batches (thread-safe queue);
* :class:`~repro.engine.service.RangeQueryService` — the concurrent
  serving layer: thread-pool query fan-out behind per-shard
  reader/writer locks, a background compaction worker, and one block
  cache per serving mode in front of the simulated disk;
* :class:`~repro.engine.workers.ShardWorkerPool` — process-mode back
  end: per-shard snapshot workers behind ``multiprocessing``
  shared-memory query rings, invalidated by the checkpoint-epoch
  handshake (``mode="process"`` on the service);
* :class:`~repro.engine.autotune.AutoTuner` — per-shard filter backend
  auto-tuning from live workload telemetry (range lengths + windowed
  false-positive rate), switching between the robust Grafite default
  and the heuristic backends of :mod:`repro.filters.registry` where
  they win;
* :class:`~repro.engine.planner.BatchPlanner` — the batch query
  planner: a dedup pass, an epoch-tagged
  negative-result cache keyed by ``runs_version``, and the process-mode
  service's worker-or-local dispatch per sub-batch (``attach_planner``
  on the engine; ``--plan`` on the CLI).
"""

from repro.engine.autotune import AutoTunePolicy, AutoTuner, Decision
from repro.engine.batch import (
    ColumnarPlan,
    batch_range_empty,
    route_columnar,
    shard_batch_empty,
)
from repro.engine.engine import ShardedEngine
from repro.engine.persist import (
    PREV_MANIFEST_NAME,
    load_manifest,
    load_shards,
    promote_previous_epoch,
    run_from_bytes,
    run_to_bytes,
    save_snapshot,
    scrub_snapshot,
)
from repro.engine.planner import (
    BatchPlan,
    BatchPlanner,
    NegativeRangeCache,
    plan_batch,
)
from repro.engine.scheduler import CompactionScheduler, TokenBucket
from repro.engine.service import RangeQueryService, RWLock
from repro.engine.sharding import ShardRouter
from repro.engine.strings import StringView
from repro.engine.wal import OP_CLOCK, OP_DELETE, OP_PUT, WriteAheadLog
from repro.engine.workers import ShardWorkerPool, WorkerError

__all__ = [
    "AutoTunePolicy",
    "AutoTuner",
    "BatchPlan",
    "BatchPlanner",
    "ColumnarPlan",
    "CompactionScheduler",
    "Decision",
    "NegativeRangeCache",
    "OP_CLOCK",
    "OP_DELETE",
    "OP_PUT",
    "PREV_MANIFEST_NAME",
    "RWLock",
    "RangeQueryService",
    "ShardRouter",
    "ShardWorkerPool",
    "ShardedEngine",
    "StringView",
    "TokenBucket",
    "WorkerError",
    "WriteAheadLog",
    "batch_range_empty",
    "load_manifest",
    "load_shards",
    "plan_batch",
    "promote_previous_epoch",
    "route_columnar",
    "run_from_bytes",
    "run_to_bytes",
    "save_snapshot",
    "scrub_snapshot",
    "shard_batch_empty",
]
