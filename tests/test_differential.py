"""Differential test harness: random op streams vs. a sorted-dict oracle.

Hand-written example tests stop finding bugs exactly where this PR
lives — interleavings of flushes, compactions, checkpoints, recovery and
range queries. This harness replays *seeded random operation streams*
(put / delete / flush / compact / checkpoint / reopen / range_empty /
get / batched probes) simultaneously against a trivially correct oracle
(a dict plus a sorted key list) and against the real system:

* the single-threaded :class:`ShardedEngine` (in-memory, persistent,
  and with a block cache attached),
* the concurrent :class:`RangeQueryService` at 1, 2 and 8 worker
  threads (mutations are applied sequentially so results stay
  deterministic; queries still fan out across the pool and race the
  background compaction worker),
* the process-mode :class:`RangeQueryService` at 1 and 4 snapshot
  worker processes: the stream's checkpoints re-sync the workers
  (epoch handshake) while its flushes/compactions invalidate them
  mid-stream, so every batch exercises the worker/local routing
  decision against the oracle,
* heuristic filter backends (SuRF, SNARF) mounted through the
  :class:`~repro.filters.registry.FilterSpec` path, in memory and
  persistent — the persistent streams checkpoint and restore the
  heuristic filters' serialised blobs on every reopen,
* the auto-tuned service (``serve --autotune``'s configuration): the
  per-shard tuner retargets backends between batches while the stream
  churns flushes and compactions underneath it.

Every query result is compared the moment it is produced; any
divergence fails with the op index and the offending range, which —
because streams are seeded — reproduces deterministically. Set
``REPRO_DIFF_SEED`` to explore a different stream (CI pins it). After
every op the single-threaded engine targets also check that no
compaction pressure is stranded: each shard that needs compaction is
already queued on the scheduler.

This file is the repo's standing correctness oracle: when a new engine
feature lands, teach ``gen_ops``/``Target`` about it and every
configuration inherits the coverage.
"""

import bisect
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.engine import (
    AutoTunePolicy,
    AutoTuner,
    BatchPlanner,
    RangeQueryService,
    ShardedEngine,
)
from repro.filters.registry import FilterSpec, backend_names
from repro.lsm import BlockCache

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20240731"))
UNIVERSE = 2**20
N_OPS = 5000
BATCH_FLUSH = 64  # pending probes per batch_range_empty comparison


#: The filter of every stream that names no other backend.
GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=12, max_range_size=256, seed=5)


#: Heuristic backends run through the oracle (ISSUE 4): their filters now
#: persist as blobs, so the persistent streams reload them byte-for-byte.
HEURISTIC_SPECS = {
    "surf": FilterSpec(backend="surf", bits_per_key=14, seed=5),
    "snarf": FilterSpec(backend="snarf", bits_per_key=12, seed=5),
}


class Oracle:
    """Sorted-dict reference implementation of the engine's contract."""

    def __init__(self) -> None:
        self._data: Dict[int, Any] = {}
        self._keys: List[int] = []

    def put(self, key: int, value: Any) -> None:
        if key not in self._data:
            bisect.insort(self._keys, key)
        self._data[key] = value

    def delete(self, key: int) -> None:
        if key in self._data:
            del self._data[key]
            self._keys.pop(bisect.bisect_left(self._keys, key))

    def get(self, key: int) -> Optional[Any]:
        return self._data.get(key)

    def range_empty(self, lo: int, hi: int) -> bool:
        idx = bisect.bisect_left(self._keys, lo)
        return idx >= len(self._keys) or self._keys[idx] > hi

    def items(self) -> List[Tuple[int, Any]]:
        return [(k, self._data[k]) for k in self._keys]

    def __len__(self) -> int:
        return len(self._data)


def gen_ops(rng: np.random.Generator, n_ops: int, *, persistent: bool):
    """One seeded operation stream; maintenance ops only where legal."""
    ops = []
    live: List[int] = []  # keys probably present (cheap adversarial reuse)
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.42:
            key = (
                int(live[rng.integers(len(live))])
                if live and rng.random() < 0.25
                else int(rng.integers(UNIVERSE))
            )
            ops.append(("put", key, int(rng.integers(1 << 30))))
            live.append(key)
        elif roll < 0.55:
            key = (
                int(live[rng.integers(len(live))])
                if live and rng.random() < 0.7
                else int(rng.integers(UNIVERSE))
            )
            ops.append(("delete", key))
        elif roll < 0.72:
            ops.append(("range_empty",) + _random_range(rng))
        elif roll < 0.82:
            key = (
                int(live[rng.integers(len(live))])
                if live and rng.random() < 0.5
                else int(rng.integers(UNIVERSE))
            )
            ops.append(("get", key))
        elif roll < 0.94:
            ops.append(("enqueue_probe",) + _random_range(rng))
        elif roll < 0.96:
            ops.append(("flush",))
        elif roll < 0.98:
            ops.append(("compact",))
        elif persistent and roll < 0.995:
            ops.append(("checkpoint",))
        elif persistent:
            ops.append(("reopen",))
    return ops


def _random_range(rng: np.random.Generator) -> Tuple[int, int]:
    if rng.random() < 0.05:  # boundary ranges
        return (0, int(rng.integers(1, UNIVERSE))) if rng.random() < 0.5 else (
            int(rng.integers(UNIVERSE)), UNIVERSE - 1
        )
    lo = int(rng.integers(UNIVERSE))
    width = int(rng.integers(1, 2048))
    return lo, min(lo + width, UNIVERSE - 1)


class Target:
    """Adapter giving every configuration the same op vocabulary."""

    name = "base"

    def put(self, key, value):  # pragma: no cover - interface
        raise NotImplementedError

    def delete(self, key):  # pragma: no cover - interface
        raise NotImplementedError

    def get(self, key):  # pragma: no cover - interface
        raise NotImplementedError

    def range_empty(self, lo, hi):  # pragma: no cover - interface
        raise NotImplementedError

    def batch_range_empty(self, los, his):  # pragma: no cover - interface
        raise NotImplementedError

    def flush(self):
        pass

    def compact(self):
        pass

    def checkpoint(self):
        pass

    def reopen(self):
        pass

    def stranded_shards(self):
        """Shards needing compaction that the scheduler has not queued."""
        return []

    def finish(self):
        """Quiesce and return the full live (key, value) dump."""
        raise NotImplementedError  # pragma: no cover - interface


class EngineTarget(Target):
    def __init__(
        self, *, directory=None, cache=False, num_shards=4, spec=None,
        autotune=False, compaction=None, planner=False,
    ):
        spec = spec or GRAFITE_SPEC
        self.name = (
            f"engine(persistent={directory is not None}, cache={cache}, "
            f"spec={spec.backend}, "
            f"autotune={autotune}, compaction={compaction or 'full'}, "
            f"planner={planner})"
        )
        self._directory = directory
        self._autotune = autotune
        self._planner = planner
        self.engine = ShardedEngine(
            UNIVERSE,
            num_shards=num_shards,
            memtable_limit=96,
            compaction_fanout=3,
            filter_spec=spec,
            directory=directory,
            compaction=compaction,
        )
        self._attach_helpers()
        if cache:
            self.engine.attach_block_cache(BlockCache(256, num_stripes=4))

    def _attach_helpers(self):
        if self._autotune:
            self.engine.attach_autotuner(
                AutoTuner(AutoTunePolicy(min_window=128))
            )
        if self._planner:
            # A tiny cache capacity forces constant eviction churn on
            # top of the runs_version invalidation the stream provides.
            self.engine.attach_planner(BatchPlanner(cache_capacity=512))

    def put(self, key, value):
        self.engine.put(key, value)

    def delete(self, key):
        self.engine.delete(key)

    def get(self, key):
        return self.engine.get(key)

    def range_empty(self, lo, hi):
        return self.engine.range_empty(lo, hi)

    def batch_range_empty(self, los, his):
        return self.engine.batch_range_empty(los, his)

    def flush(self):
        self.engine.flush_all()

    def compact(self):
        self.engine.drain_compactions()

    def checkpoint(self):
        self.engine.checkpoint()

    def reopen(self):
        # Crash-style restart: no checkpoint, recovery must replay the WAL.
        # The spec comes back from the manifest, the filters from their
        # blobs.
        cache = self.engine.block_cache
        self.engine.close(checkpoint=False)
        self.engine = ShardedEngine.open(self._directory)
        self._attach_helpers()
        if cache is not None:
            self.engine.attach_block_cache(cache)

    def stranded_shards(self):
        # The compaction hook is the only way pressure reaches the
        # scheduler, so a shard under pressure must already be queued.
        pending = self.engine.scheduler.pending_shards
        return [
            sid for sid, store in enumerate(self.engine.shards)
            if store.needs_compaction and sid not in pending
        ]

    def finish(self):
        return self.engine.range_scan(0, UNIVERSE - 1)


class ServiceTarget(Target):
    def __init__(
        self, num_threads: int, *, directory=None, mode="thread", workers=None,
        spec=None, autotune=False, compaction=None, planner=False,
    ):
        spec = spec or GRAFITE_SPEC
        self.name = (
            f"service(threads={num_threads}, mode={mode}, workers={workers}, "
            f"spec={spec.backend}, "
            f"autotune={autotune}, compaction={compaction or 'full'}, "
            f"planner={planner})"
        )
        self._threads = num_threads
        self._directory = directory
        self._mode = mode
        self._workers = workers
        self._autotune = autotune
        self._planner = planner
        self.engine = ShardedEngine(
            UNIVERSE,
            num_shards=4,
            memtable_limit=96,
            compaction_fanout=3,
            filter_spec=spec,
            directory=directory,
            compaction=compaction,
        )
        if autotune:
            self.engine.attach_autotuner(AutoTuner(AutoTunePolicy(min_window=128)))
        if planner:
            self.engine.attach_planner(BatchPlanner(cache_capacity=512))
        self.service = RangeQueryService(
            self.engine, num_threads=num_threads, cache_blocks=256,
            compaction_poll=0.002, mode=mode, num_workers=workers,
        )

    def put(self, key, value):
        self.service.put(key, value)

    def delete(self, key):
        self.service.delete(key)

    def get(self, key):
        return self.service.get(key)

    def range_empty(self, lo, hi):
        return self.service.range_empty(lo, hi)

    def batch_range_empty(self, los, his):
        return self.service.batch_range_empty(los, his)

    def flush(self):
        self.service.flush_all()

    def compact(self):
        # Compaction is the background worker's job; just give it a beat.
        self.service.wait_for_compactions(timeout=10.0)

    def checkpoint(self):
        self.service.checkpoint()

    def reopen(self):
        self.service.close()
        self.engine.close(checkpoint=False)
        self.engine = ShardedEngine.open(self._directory)
        if self._autotune:
            self.engine.attach_autotuner(AutoTuner(AutoTunePolicy(min_window=128)))
        if self._planner:
            self.engine.attach_planner(BatchPlanner(cache_capacity=512))
        self.service = RangeQueryService(
            self.engine, num_threads=self._threads, cache_blocks=256,
            compaction_poll=0.002, mode=self._mode, num_workers=self._workers,
        )

    def finish(self):
        assert self.service.wait_for_compactions(timeout=20.0)
        self.service.close()
        return self.engine.range_scan(0, UNIVERSE - 1)


def replay(target: Target, ops) -> None:
    """Apply one op stream, checking every query against the oracle."""
    oracle = Oracle()
    pending: List[Tuple[int, int]] = []

    def drain_pending():
        if not pending:
            return
        los = np.asarray([lo for lo, _ in pending], dtype=np.uint64)
        his = np.asarray([hi for _, hi in pending], dtype=np.uint64)
        got = target.batch_range_empty(los, his)
        want = [oracle.range_empty(lo, hi) for lo, hi in pending]
        mismatches = [
            (q, pending[q], bool(got[q]), want[q])
            for q in range(len(pending))
            if bool(got[q]) != want[q]
        ]
        assert not mismatches, (
            f"{target.name}: batch divergence at op {index}: {mismatches[:5]}"
        )
        pending.clear()

    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "put":
            target.put(op[1], op[2])
            oracle.put(op[1], op[2])
        elif kind == "delete":
            target.delete(op[1])
            oracle.delete(op[1])
        elif kind == "get":
            got, want = target.get(op[1]), oracle.get(op[1])
            assert got == want, (
                f"{target.name}: get({op[1]}) = {got!r}, oracle {want!r} "
                f"at op {index}"
            )
        elif kind == "range_empty":
            got, want = target.range_empty(op[1], op[2]), oracle.range_empty(
                op[1], op[2]
            )
            assert got == want, (
                f"{target.name}: range_empty{op[1:]} = {got}, oracle {want} "
                f"at op {index}"
            )
        elif kind == "enqueue_probe":
            pending.append((op[1], op[2]))
            if len(pending) >= BATCH_FLUSH:
                drain_pending()
        else:  # maintenance ops never change query answers
            getattr(target, kind)()
        stranded = target.stranded_shards()
        assert not stranded, (
            f"{target.name}: shards {stranded} need compaction but are not "
            f"queued at op {index}"
        )
    drain_pending()
    assert target.finish() == oracle.items(), f"{target.name}: final state diverged"


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def test_oracle_self_check():
    oracle = Oracle()
    oracle.put(5, "a")
    oracle.put(9, "b")
    oracle.delete(5)
    assert oracle.get(5) is None and oracle.get(9) == "b"
    assert oracle.range_empty(0, 8) and not oracle.range_empty(0, 9)
    assert oracle.items() == [(9, "b")]


@pytest.mark.parametrize("cache", [False, True])
def test_differential_engine_in_memory(cache):
    rng = np.random.default_rng(SEED)
    replay(EngineTarget(cache=cache), gen_ops(rng, N_OPS, persistent=False))


def test_differential_engine_persistent(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    replay(
        EngineTarget(directory=tmp_path / "db"),
        gen_ops(rng, N_OPS, persistent=True),
    )


@pytest.mark.parametrize("num_threads", [1, 2, 8])
def test_differential_service(num_threads):
    rng = np.random.default_rng(SEED + 2)
    replay(
        ServiceTarget(num_threads), gen_ops(rng, N_OPS, persistent=False)
    )


def test_differential_service_persistent(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    replay(
        ServiceTarget(2, directory=tmp_path / "db"),
        gen_ops(rng, N_OPS, persistent=True),
    )


@pytest.mark.parametrize("workers", [1, 4])
def test_differential_service_process(tmp_path, workers):
    """Process mode against the oracle, checkpoint-epoch churn included.

    The persistent stream carries checkpoints (which hand fresh snapshots
    to the workers mid-stream), flushes/compactions (which invalidate
    them), reopens (which rebuild the whole pool) and a steady write mix
    (so the per-query memtable-overlap fallback fires): every batched
    probe must still match the sorted-dict oracle bit for bit.
    """
    rng = np.random.default_rng(SEED + 5 + workers)
    replay(
        ServiceTarget(2, directory=tmp_path / "db", mode="process", workers=workers),
        gen_ops(rng, N_OPS, persistent=True),
    )


@pytest.mark.parametrize("backend", sorted(HEURISTIC_SPECS))
def test_differential_engine_heuristic_in_memory(backend):
    """Heuristic backends ride the generic batch fallback; answers must
    still match the oracle bit for bit (filters only ever prune)."""
    rng = np.random.default_rng(SEED + 11)
    replay(
        EngineTarget(spec=HEURISTIC_SPECS[backend]),
        gen_ops(rng, N_OPS // 2, persistent=False),
    )


@pytest.mark.parametrize("backend", sorted(HEURISTIC_SPECS))
def test_differential_engine_heuristic_persistent(tmp_path, backend):
    """Persistent streams exercise checkpoint and reopen of heuristic
    backends: every checkpoint records each run's SuRF/SNARF spec and
    every reopen rebuilds the filters from it (the engine's spec comes
    back from the manifest)."""
    rng = np.random.default_rng(SEED + 13)
    replay(
        EngineTarget(directory=tmp_path / "db", spec=HEURISTIC_SPECS[backend]),
        gen_ops(rng, N_OPS // 2, persistent=True),
    )


@pytest.mark.parametrize("backend", backend_names())
def test_differential_service_every_backend(backend):
    """`serve --filter <backend>` exactness for the whole registry: a
    shorter stream than the deep suites above, but every backend answers
    the identical op mix through the concurrent service."""
    rng = np.random.default_rng(SEED + 19)
    replay(
        ServiceTarget(2, spec=FilterSpec(backend=backend, bits_per_key=14, seed=5)),
        gen_ops(rng, N_OPS // 5, persistent=False),
    )


def test_differential_service_autotune():
    """`serve --autotune`'s exactness: the tuner retargets shards between
    batches while the stream interleaves flushes/compactions."""
    rng = np.random.default_rng(SEED + 17)
    replay(
        ServiceTarget(2, spec=HEURISTIC_SPECS["snarf"], autotune=True),
        gen_ops(rng, N_OPS // 2, persistent=False),
    )


def test_differential_engine_planner():
    """The planned batch path against the oracle: dedup and
    negative-cache replays must answer the identical op mix bit for
    bit while the stream's flushes/compactions bump ``runs_version``
    (evicting entries) and its writes dirty memtables (disqualifying
    hits without a version bump)."""
    rng = np.random.default_rng(SEED + 37)
    replay(
        EngineTarget(planner=True), gen_ops(rng, N_OPS, persistent=False)
    )


def test_differential_engine_planner_persistent(tmp_path):
    """Planner + persistence: reopens rebuild the engine (the replacement
    engine gets a fresh planner attached) and WAL replay must not leave
    stale negative-cache state anywhere."""
    rng = np.random.default_rng(SEED + 41)
    replay(
        EngineTarget(directory=tmp_path / "db", planner=True),
        gen_ops(rng, N_OPS, persistent=True),
    )


@pytest.mark.parametrize("num_threads", [2, 8])
def test_differential_service_planner(num_threads):
    """`serve --plan`'s configuration: dedup runs on the service's
    calling thread, each shard task looks up, executes and records in
    one read-lock hold, and sub-batches take the scalar or the columnar
    lane of the shard kernel by size mid-stream."""
    rng = np.random.default_rng(SEED + 43)
    replay(
        ServiceTarget(num_threads, planner=True),
        gen_ops(rng, N_OPS, persistent=False),
    )


def test_differential_service_planner_process(tmp_path):
    """Planner over process mode: ``choose_mode`` routes big clean
    sub-batches to snapshot workers and overlapping/small ones to the
    local kernels, under checkpoint-epoch churn."""
    rng = np.random.default_rng(SEED + 47)
    replay(
        ServiceTarget(
            2, directory=tmp_path / "db", mode="process", workers=2,
            planner=True,
        ),
        gen_ops(rng, N_OPS // 2, persistent=True),
    )


def _policy(kind):
    """Differential-sized policy instances: tiny slices so the leveled
    topology is real (many slices, partial rewrites) at 96-entry
    memtables instead of degenerating to one slice."""
    from repro.lsm import LeveledPolicy

    return LeveledPolicy(slice_target=64) if kind == "leveled" else kind


@pytest.mark.parametrize("kind", ["tiered", "leveled"])
def test_differential_engine_compaction_policies(kind):
    """The non-default compaction policies answer the identical op mix:
    tiered cascades and leveled slice rewrites never change a result."""
    rng = np.random.default_rng(SEED + 23)
    replay(
        EngineTarget(compaction=_policy(kind)),
        gen_ops(rng, N_OPS // 2, persistent=False),
    )


@pytest.mark.parametrize("kind", ["tiered", "leveled"])
def test_differential_engine_compaction_policies_persistent(tmp_path, kind):
    """Persistent streams under tiered/leveled: checkpoints snapshot the
    level/slice topology (manifest v2), reopens restore it (the policy
    itself comes back from the manifest — reopen passes no policy), and
    WAL replay lands on the restored levels."""
    rng = np.random.default_rng(SEED + 29)
    replay(
        EngineTarget(directory=tmp_path / "db", compaction=_policy(kind)),
        gen_ops(rng, N_OPS // 2, persistent=True),
    )


@pytest.mark.parametrize("kind", ["tiered", "leveled"])
def test_differential_service_compaction_policies(kind):
    """The concurrent service's background worker drains bounded steps
    under shard write locks while queries fan out — per-policy."""
    rng = np.random.default_rng(SEED + 31)
    replay(
        ServiceTarget(2, compaction=_policy(kind)),
        gen_ops(rng, N_OPS // 2, persistent=False),
    )


def test_second_seed_engine_and_service():
    """A second stream per run guards against a luckily easy primary seed."""
    rng = np.random.default_rng(SEED ^ 0xDEC0DE)
    ops = gen_ops(rng, N_OPS // 2, persistent=False)
    replay(EngineTarget(), ops)
    replay(ServiceTarget(4), ops)


# ----------------------------------------------------------------------
# Scenario-driven streams (ISSUE 9): the declarative workload suite of
# :mod:`repro.workloads.scenarios` feeds this same oracle discipline.
# ----------------------------------------------------------------------
def _scan_heavy_ttl():
    """Registry ``scan-heavy`` with a TTL clock layered on: scans race
    compaction-side expiry, and every verdict must stay exact against
    the TTL-aware oracle."""
    from dataclasses import asdict

    from repro.workloads.scenarios import Scenario, TTLConfig, get_scenario

    base = asdict(get_scenario("scan-heavy"))
    base.update(name="scan-heavy-ttl", ttl=TTLConfig(
        expire_fraction=0.5, lifetime=(4, 48), tick_every=48,
    ))
    return Scenario(**base)


@pytest.mark.parametrize("num_threads", [1, 8])
def test_differential_scenario_update_heavy(num_threads):
    """Update-heavy mix (55% inserts, 15% deletes) through the service:
    hot-key churn with memtable/compaction races at both a serial and a
    wide thread pool, bit-exact against the sorted-dict oracle."""
    from repro.workloads.scenarios import run_scenario

    report = run_scenario(
        "update-heavy", mode="service", seed=SEED,
        num_threads=num_threads, scale=0.5,
    )
    assert report.ok, (
        f"scenario diverged ({report.mismatches} mismatches, "
        f"final_match={report.final_match}): {report.mismatch_samples[:5]}"
    )
    assert report.checks > 0 and report.counts["delete"] > 0


@pytest.mark.parametrize("num_threads", [1, 8])
def test_differential_scenario_scan_heavy_ttl(num_threads):
    """Scan-heavy mix with TTL expiry: half the inserts carry deadlines,
    the logical clock ticks mid-stream, and expired keys must vanish
    from scans and probes exactly when the oracle says so."""
    from repro.workloads.scenarios import run_scenario

    report = run_scenario(
        _scan_heavy_ttl(), mode="service", seed=SEED,
        num_threads=num_threads, scale=0.5,
    )
    assert report.ok, (
        f"scenario diverged ({report.mismatches} mismatches, "
        f"final_match={report.final_match}): {report.mismatch_samples[:5]}"
    )
    assert report.ttl_now > 0 and report.counts["scan"] > 0
