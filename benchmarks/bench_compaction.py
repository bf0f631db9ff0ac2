"""Compaction-policy write-amplification + probe-throughput bench.

The question ISSUE 5 opened, held as a standing regression gate: does
the sliced :class:`~repro.lsm.compaction.LeveledPolicy` actually buy the
write-amplification reduction it exists for, without giving back batch
probe throughput?

The workload is a **sustained clustered ingest with interleaved probe
batches** — the regime where slicing pays. Keys arrive in moving
clusters (a time-series / log-structured pattern: each burst lands in a
narrow, advancing key band), so a level-0 run's span covers a thin
stripe of the keyspace. Full merge rewrites the entire accumulated
store on every compaction; leveled rewrites only the slices the stripe
overlaps. Probe batches are uncorrelated range-emptiness queries over
the whole universe, issued between ingest bursts exactly like the
serving path (each batch is also the deferred scheduler's drain slot —
compaction work happens where it would in production).

Gates enforced by the CI perf-smoke step (and recorded in
``BENCH_compaction.json`` either way):

* ``leveled entries_compacted < 0.6 x full-merge`` on the identical
  ingest (measured via the new ``IoStats`` write counters — this is a
  deterministic counter comparison, not a timing);
* leveled batch range-empty throughput ``>= 0.9 x`` full-merge
  (best-of-N timing on identical query batches; the sliced topology's
  extra runs must be paid for by the vectorised bounds skip);
* correctness: all three policies answer the full probe stream
  identically (they share one oracle-checked result).
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Tuple

import numpy as np

import _common
from _common import (
    SEED, merge_bench_json, register_report, timing_stats, write_bench_json,
)
from repro.analysis.report import format_table
from repro.engine import ShardedEngine, TokenBucket
from repro.lsm import LeveledPolicy

UNIVERSE = 2**32
# Floors are sized so the policies genuinely diverge even at the CI's
# REPRO_SCALE=0.5: enough flushes per shard for several compaction
# rounds, or the write-amp comparison degenerates to one shared merge.
N_BURSTS = max(16, int(24 * _common.SCALE))
BURST_KEYS = max(1_200, int(2_000 * _common.SCALE))
PROBE_BATCH = max(500, int(4_000 * _common.SCALE))
MEMTABLE = 512
FANOUT = 4
SLICE_TARGET = 1024
RANGE = 64
POLICIES = ("full", "tiered", "leveled")

#: Floors/ceilings enforced by the CI perf-smoke step.
WRITE_AMP_CEILING = 0.6   # leveled entries_compacted vs full-merge
THROUGHPUT_FLOOR = 0.9    # leveled probe q/s vs full-merge


def _policy(name: str):
    return LeveledPolicy(slice_target=SLICE_TARGET) if name == "leveled" else name


def _cluster_keys(rng: np.random.Generator, burst: int) -> np.ndarray:
    """One ingest burst: keys clustered in a narrow advancing band.

    The band walks the keyspace (think timestamps or log offsets with
    jitter): burst ``b`` draws from a window ``~2^24`` wide positioned
    at ``b``'s fraction of the universe, so consecutive level-0 runs
    overlap only a thin stripe of any sliced level.
    """
    band = UNIVERSE // (N_BURSTS + 2)
    base = band * burst
    return base + rng.integers(0, band, BURST_KEYS, dtype=np.uint64)


def _probe_bounds(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    los = rng.integers(0, UNIVERSE - RANGE, PROBE_BATCH, dtype=np.uint64)
    return los, los + np.uint64(RANGE - 1)


@functools.lru_cache(maxsize=None)
def run_policy(policy: str) -> Dict[str, object]:
    """Drive the sustained ingest+probe workload under one policy."""
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=MEMTABLE,
        compaction_fanout=FANOUT,
        filter_spec=None,   # write-amp is a storage property; filters
        compaction=_policy(policy),  # only add timing noise here
    )
    rng = np.random.default_rng(SEED)
    verdicts: List[np.ndarray] = []
    for burst in range(N_BURSTS):
        for key in _cluster_keys(rng, burst):
            engine.put(int(key), b"v")
        # The between-batches slot: probes drain deferred steps first.
        los, his = _probe_bounds(rng)
        verdicts.append(engine.batch_range_empty(los, his))
    engine.flush_all()
    engine.drain_compactions()
    stats = engine.stats
    # Steady-state probe timing on the settled store, identical batches.
    t_rng = np.random.default_rng(SEED + 99)
    t_lo, t_hi = _probe_bounds(t_rng)
    timing = timing_stats(
        lambda: engine.batch_range_empty(t_lo, t_hi), ops=PROBE_BATCH, repeat=5
    )
    return {
        "policy": policy,
        "entries_flushed": stats.entries_flushed,
        "entries_compacted": stats.entries_compacted,
        "bytes_compacted": stats.bytes_compacted,
        "compaction_steps": stats.compactions,
        "write_amplification": stats.write_amplification,
        "probe_qps": timing["op_s"],
        "probe_p50_s": timing["p50_s"],
        "probe_p99_s": timing["p99_s"],
        "runs_final": engine.run_count,
        "live_keys": len(engine),
        "verdicts": np.concatenate(verdicts),
        "steady_verdicts": engine.batch_range_empty(t_lo, t_hi),
    }


@functools.lru_cache(maxsize=None)
def _report() -> Dict[str, Dict[str, object]]:
    cells = {policy: run_policy(policy) for policy in POLICIES}
    reference = cells["full"]
    for policy, cell in cells.items():
        assert bool(
            (cell["verdicts"] == reference["verdicts"]).all()
        ), f"{policy} diverged from full-merge on the probe stream"
        assert bool(
            (cell["steady_verdicts"] == reference["steady_verdicts"]).all()
        ), f"{policy} diverged on the settled store"
    rows = []
    for policy in POLICIES:
        cell = cells[policy]
        rows.append([
            policy,
            f"{cell['compaction_steps']}",
            f"{cell['entries_compacted']:,}",
            f"{cell['entries_compacted'] / max(1, reference['entries_compacted']):.2f}x",
            f"{cell['write_amplification']:.2f}",
            f"{cell['probe_qps']:,.0f}",
            f"{cell['runs_final']}",
        ])
    register_report(
        "compaction",
        format_table(
            ["policy", "steps", "entries compacted", "vs full", "write amp",
             "probe q/s", "runs"],
            rows,
            title=(
                f"Compaction policies on clustered sustained ingest "
                f"({N_BURSTS} bursts x {BURST_KEYS:,} keys, memtable "
                f"{MEMTABLE}, fanout {FANOUT}, slice {SLICE_TARGET}, "
                f"{PROBE_BATCH:,}-query batches)"
            ),
        ),
    )
    write_bench_json(
        "compaction",
        results={
            policy: {k: v for k, v in cell.items()
                     if not isinstance(v, np.ndarray)}
            for policy, cell in cells.items()
        },
        config={
            "n_bursts": N_BURSTS,
            "burst_keys": BURST_KEYS,
            "probe_batch": PROBE_BATCH,
            "memtable_limit": MEMTABLE,
            "fanout": FANOUT,
            "slice_target": SLICE_TARGET,
            "range_size": RANGE,
            "write_amp_ceiling": WRITE_AMP_CEILING,
            "throughput_floor": THROUGHPUT_FLOOR,
        },
    )
    return cells


def test_leveled_write_amp_beats_full_merge():
    """ISSUE 5 acceptance bar: on the sustained clustered ingest the
    sliced leveled policy must rewrite < 0.6x the entries full merge
    does — a deterministic counter gate, no timing involved."""
    cells = _report()
    ratio = (
        cells["leveled"]["entries_compacted"]
        / max(1, cells["full"]["entries_compacted"])
    )
    assert ratio < WRITE_AMP_CEILING, (
        f"leveled compacted {ratio:.2f}x of full-merge's entries "
        f"(ceiling {WRITE_AMP_CEILING}) — slicing is not bounding rewrites"
    )


def test_tiered_write_amp_beats_full_merge():
    """Tiered merges one level per step; it must also rewrite less than
    the monolithic full merge on sustained ingest (looser, sanity bar)."""
    cells = _report()
    assert (
        cells["tiered"]["entries_compacted"]
        < cells["full"]["entries_compacted"]
    )


def test_leveled_probe_throughput_within_10pct():
    """The other half of the acceptance bar: the sliced topology's extra
    runs must not cost batch probe throughput — the vectorised bounds
    skip keeps non-overlapping slices free. Best-of-5 on identical
    batches against the settled stores."""
    cells = _report()
    ratio = cells["leveled"]["probe_qps"] / cells["full"]["probe_qps"]
    assert ratio >= THROUGHPUT_FLOOR, (
        f"leveled probes at {ratio:.2f}x of full-merge throughput "
        f"(floor {THROUGHPUT_FLOOR}x)"
    )


def test_write_amp_is_measured_first_class():
    """The IoStats write counters behind the gate are self-consistent:
    every policy flushed the same user entries, and write_amplification
    is exactly (flushed + compacted) / flushed."""
    cells = _report()
    flushed = {cell["entries_flushed"] for cell in cells.values()}
    assert len(flushed) == 1, cells
    for cell in cells.values():
        expected = (
            (cell["entries_flushed"] + cell["entries_compacted"])
            / cell["entries_flushed"]
        )
        assert abs(cell["write_amplification"] - expected) < 1e-9


# ----------------------------------------------------------------------
# ISSUE 10: deep leveled tree (L2+) under sustained ingest
# ----------------------------------------------------------------------
# A longer, finer-grained ingest than the cell above: many small flushes
# over an accumulating store is the regime where full merge's rewrite
# cost grows with the store while a budgeted deep tree's grows with its
# (logarithmic) depth. Probe batches interleave with ingest exactly as
# in serving; compaction drains between them like the service's
# background worker, bounded by the rate limiter — so the timed probes
# see the topology the policy and its throttling actually leave behind
# (deferred work = extra live runs to check).
SUSTAIN_BURSTS = max(64, int(96 * _common.SCALE))
SUSTAIN_KEYS = max(400, int(600 * _common.SCALE))
SUSTAIN_PROBES = max(512, int(2_000 * _common.SCALE))
SUSTAIN_MEMTABLE = 128
SUSTAIN_SLICE = 512
DEEP_LEVEL_FANOUT = 4
DEEP_L1_BUDGET = 1024
#: The deep cell's rate limiter runs on a **logical clock**: time
#: advances with ingest progress (``keys_put / INGEST_KEYS_PER_S``),
#: not the host's wall clock. A bench replays hours of arrivals in
#: seconds, so a wall-clock bucket either never refills (one deferred
#: cascade freezes compaction for the whole run) or never throttles;
#: modelling arrival time makes the limiter's behaviour — and the gate
#: below — deterministic and host-speed independent.
INGEST_KEYS_PER_S = 100_000.0
#: Entries/logical-second of compaction the limiter admits. Sized above
#: steady-state rewrite demand (so the tree never falls behind and runs
#: never pile up) but with a small burst, so a multi-level cascade is
#: spread across several serving slots instead of monopolising one.
DEEP_COMPACTION_RATE = 500_000.0
DEEP_COMPACTION_BURST = 2_000.0

#: ISSUE 10 gates.
DEEP_WRITE_AMP_CEILING = 0.6   # deep entries_compacted vs full-merge
DEEP_P99_CEILING = 1.1         # deep ingest-time probe p99 vs leveled (PR 5)


def _sustain_policy(name: str):
    if name == "leveled":
        return LeveledPolicy(slice_target=SUSTAIN_SLICE)
    if name == "deep":
        return LeveledPolicy(
            slice_target=SUSTAIN_SLICE,
            level_fanout=DEEP_LEVEL_FANOUT,
            l1_budget=DEEP_L1_BUDGET,
        )
    return name


def _sustain_cluster(rng: np.random.Generator, burst: int) -> np.ndarray:
    band = UNIVERSE // (SUSTAIN_BURSTS + 2)
    base = band * burst
    return base + rng.integers(0, band, SUSTAIN_KEYS, dtype=np.uint64)


#: Ingest passes per cell. Everything in a pass is deterministic — the
#: seeded workload, and the limiter because it runs on the logical
#: clock — so slot ``i`` does identical probe + compaction work in
#: every pass; the elementwise minimum over passes is the usual
#: best-of-N de-noising, applied per slot so structural spikes survive
#: while host hiccups (one slow sample flips a 64-sample p99) do not.
SUSTAIN_PASSES = 3


def _sustain_pass(policy: str):
    """One full ingest pass; returns (slot times, verdicts, engine)."""
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=SUSTAIN_MEMTABLE,
        compaction_fanout=FANOUT,
        filter_spec=None,
        compaction=_sustain_policy(policy),
    )
    keys_put = [0]
    if policy == "deep":
        engine.scheduler.set_rate_limiter(TokenBucket(
            DEEP_COMPACTION_RATE,
            burst=DEEP_COMPACTION_BURST,
            clock=lambda: keys_put[0] / INGEST_KEYS_PER_S,
        ))
    rng = np.random.default_rng(SEED + 7)
    verdicts: List[np.ndarray] = []
    slot_times: List[float] = []
    for burst in range(SUSTAIN_BURSTS):
        for key in _sustain_cluster(rng, burst):
            engine.put(int(key), b"v")
            keys_put[0] += 1
        # Compaction happens here, between serving, exactly as the
        # service's background worker would run it — untimed, but
        # bounded by the rate limiter, so work it defers stays visible
        # to the *timed* probes as extra runs to check. What the gate
        # measures is the serving-path cost of the topology the policy
        # (and its throttling) actually leaves behind.
        engine.drain_compactions()
        los = rng.integers(0, UNIVERSE - RANGE, SUSTAIN_PROBES, dtype=np.uint64)
        his = los + np.uint64(RANGE - 1)
        start = time.perf_counter()
        verdicts.append(engine.batch_range_empty(los, his))
        slot_times.append(time.perf_counter() - start)
    return np.asarray(slot_times), np.concatenate(verdicts), engine


def _sustain_cell(policy: str, passes) -> Dict[str, object]:
    """Assemble one cell from its (interleaved) ingest passes."""
    slot_times = np.minimum.reduce([times for times, _, _ in passes])
    verdicts = passes[0][1]
    for _, other, _ in passes[1:]:
        assert bool((other == verdicts).all()), "non-deterministic pass"
    engine = passes[0][2]
    throttles = engine.scheduler.compactions_throttled
    # Settle completely (untimed, unthrottled) so the write-amp counter
    # reflects the cascade's full cost and the final topology is stable.
    engine.scheduler.set_rate_limiter(None)
    engine.flush_all()
    engine.drain_compactions()
    stats = engine.stats
    levels = engine.level_stats()
    return {
        "policy": policy,
        "entries_flushed": stats.entries_flushed,
        "entries_compacted": stats.entries_compacted,
        "write_amplification": stats.write_amplification,
        "compaction_steps": stats.compactions,
        "compaction_throttles": throttles,
        "slot_p50_s": float(np.percentile(slot_times, 50)),
        "slot_p99_s": float(np.percentile(slot_times, 99)),
        "depth": len(levels) - 1,
        "levels": levels,
        "runs_final": engine.run_count,
        "live_keys": len(engine),
        "verdicts": verdicts,
    }


@functools.lru_cache(maxsize=None)
def _sustain_report() -> Dict[str, Dict[str, object]]:
    # Passes interleave across policies (pass 0 of every cell, then pass
    # 1, ...) so slow process-wide drift — thermal throttling, allocator
    # growth — lands on all cells equally instead of taxing whichever
    # cell happens to run last.
    policies = ("full", "leveled", "deep")
    passes: Dict[str, list] = {p: [] for p in policies}
    for _ in range(SUSTAIN_PASSES):
        for p in policies:
            passes[p].append(_sustain_pass(p))
    cells = {p: _sustain_cell(p, passes[p]) for p in policies}
    oracle = cells["full"]
    for policy, cell in cells.items():
        assert bool(
            (cell["verdicts"] == oracle["verdicts"]).all()
        ), f"{policy} diverged from the full-merge oracle"
    rows = [
        [
            p,
            f"{cell['entries_compacted']:,}",
            f"{cell['entries_compacted'] / max(1, oracle['entries_compacted']):.2f}x",
            f"{cell['write_amplification']:.2f}",
            f"{cell['slot_p99_s'] * 1e3:.1f}",
            f"{cell['depth']}",
            f"{cell['compaction_throttles']}",
        ]
        for p, cell in cells.items()
    ]
    register_report(
        "storage_sustained",
        format_table(
            ["policy", "entries compacted", "vs full", "write amp",
             "slot p99 (ms)", "depth", "throttles"],
            rows,
            title=(
                f"Deep leveled tree under sustained ingest "
                f"({SUSTAIN_BURSTS} bursts x {SUSTAIN_KEYS:,} keys, "
                f"memtable {SUSTAIN_MEMTABLE}, slice {SUSTAIN_SLICE}, "
                f"l1 budget {DEEP_L1_BUDGET} x{DEEP_LEVEL_FANOUT}, "
                f"rate {DEEP_COMPACTION_RATE:,.0f}/s logical)"
            ),
        ),
    )
    merge_bench_json(
        "storage",
        section="sustained_ingest",
        results={
            p: {k: v for k, v in cell.items() if not isinstance(v, np.ndarray)}
            for p, cell in cells.items()
        },
        config={
            "bursts": SUSTAIN_BURSTS,
            "burst_keys": SUSTAIN_KEYS,
            "probe_batch": SUSTAIN_PROBES,
            "memtable_limit": SUSTAIN_MEMTABLE,
            "fanout": FANOUT,
            "slice_target": SUSTAIN_SLICE,
            "level_fanout": DEEP_LEVEL_FANOUT,
            "l1_budget": DEEP_L1_BUDGET,
            "compaction_rate": DEEP_COMPACTION_RATE,
            "compaction_burst": DEEP_COMPACTION_BURST,
            "ingest_keys_per_s": INGEST_KEYS_PER_S,
            "write_amp_ceiling": DEEP_WRITE_AMP_CEILING,
            "p99_ceiling": DEEP_P99_CEILING,
        },
    )
    return cells


def test_deep_leveled_write_amp_beats_full_merge():
    """ISSUE 10 acceptance bar: on the sustained ingest the deep (L2+)
    leveled tree must rewrite <= 0.6x the entries full merge does, even
    counting every cascading push-down. Deterministic counter gate."""
    cells = _sustain_report()
    ratio = (
        cells["deep"]["entries_compacted"]
        / max(1, cells["full"]["entries_compacted"])
    )
    assert ratio <= DEEP_WRITE_AMP_CEILING, (
        f"deep leveled compacted {ratio:.2f}x of full-merge's entries "
        f"(ceiling {DEEP_WRITE_AMP_CEILING}) — budget push-downs are "
        "rewriting too much"
    )


def test_deep_leveled_grows_levels():
    """The write-amp number is only meaningful if the tree actually went
    deep: the settled store must hold data on L2 or beyond."""
    cells = _sustain_report()
    assert cells["deep"]["depth"] >= 2, cells["deep"]["levels"]
    deep_rows = [
        row for row in cells["deep"]["levels"]
        if row["level"] >= 2 and row["entries"] > 0
    ]
    assert deep_rows, cells["deep"]["levels"]


def test_deep_leveled_probe_p99_holds_under_ingest():
    """ISSUE 10 acceptance bar: ingest-time probe p99 no worse than
    1.1x the PR 5 single-level leveled baseline. The deep tree probes
    more levels, and whatever its rate limiter defers is still live as
    extra L0 runs — both costs land in the timed probes, and together
    they must stay within 10% of the flat leveled topology."""
    cells = _sustain_report()
    ratio = cells["deep"]["slot_p99_s"] / cells["leveled"]["slot_p99_s"]
    assert ratio <= DEEP_P99_CEILING, (
        f"deep leveled ingest-time probe p99 is {ratio:.2f}x the leveled "
        f"baseline (ceiling {DEEP_P99_CEILING}x)"
    )
