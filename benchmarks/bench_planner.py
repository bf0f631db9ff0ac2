"""Batch query planner bench: probe reduction at equal verdicts.

The planner (:mod:`repro.engine.planner`) fronts the columnar batch
path with a dedup pass and a ``runs_version``-tagged
negative-result cache. This bench drives the workload shape the net
front door's batching windows actually produce — Zipfian
duplicate-heavy batches mixed with a recurring set of provably-empty
probes — through a planner-attached engine and an identical plain one,
and counts **filter probes** (the engine ledger's
``total_filter_decisions``: every per-run prune-or-read decision) on
each side.

Gates enforced by the CI perf-smoke step (and recorded in
``BENCH_planner.json`` either way):

* **identical verdicts**: every planned batch is bit-identical to the
  unplanned one — the planner must never trade correctness for probes;
* **probe reduction**: the planned path spends at least
  :data:`PROBE_REDUCTION_FLOOR` (1.5x) fewer probes per query than the
  unplanned path on the mixed workload;
* **the cache is live**: the negative cache reports real hits — the
  reduction is dedup *and* replay, not dedup alone (the ``dedup_only``
  cell attributes the split).
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import _common
from _common import register_report, write_bench_json
from repro.analysis.report import format_table
from repro.engine import BatchPlanner, ShardedEngine
from repro.workloads.queries import uncorrelated_queries, zipfian_queries

UNIVERSE = 2**40
N_KEYS = max(2_000, int(8_000 * _common.SCALE))
SEED = _common.SEED
RANGE_SIZE = 32

#: Batches per pass — one per simulated batching-window flush.
N_BATCHES = 6
#: Passes over the batch list; pass 2+ replays the negative cache.
N_PASSES = 2
#: Zipfian (hot, duplicate-heavy, mostly non-empty) queries per batch.
N_ZIPF = max(200, int(600 * _common.SCALE))
#: Recurring provably-empty queries per batch (the negcache's diet).
N_EMPTY = max(100, int(300 * _common.SCALE))
#: Few hot anchors -> heavy exact duplication inside every batch.
N_HOT = 48

#: Gate enforced by the CI perf-smoke step.
PROBE_REDUCTION_FLOOR = 1.5


@functools.lru_cache(maxsize=None)
def _load_keys() -> np.ndarray:
    return _common.load_dataset(
        "uniform", N_KEYS, universe=UNIVERSE, seed=SEED
    )


@functools.lru_cache(maxsize=None)
def _batches() -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """The mixed batch list, identical for every cell.

    Each batch is a fresh Zipfian draw (duplicates *within* a batch)
    plus the same recurring uncorrelated — hence provably empty — query
    set (repeats *across* batches, which is what a negative cache can
    serve). Drawn once and cached so every cell answers byte-identical
    inputs.
    """
    keys = _load_keys()
    empties = uncorrelated_queries(
        N_EMPTY, RANGE_SIZE, UNIVERSE, keys=keys, seed=SEED + 7
    )
    e_lo = np.asarray([lo for lo, _ in empties], dtype=np.uint64)
    e_hi = np.asarray([hi for _, hi in empties], dtype=np.uint64)
    batches = []
    for b in range(N_BATCHES):
        z_lo, z_hi = zipfian_queries(
            keys, N_ZIPF, RANGE_SIZE, UNIVERSE,
            n_hot=N_HOT, seed=SEED + 10 + b,
        )
        batches.append((
            np.concatenate((z_lo, e_lo)), np.concatenate((z_hi, e_hi)),
        ))
    return tuple(batches)


def _build_engine() -> ShardedEngine:
    engine = ShardedEngine(UNIVERSE, num_shards=4, memtable_limit=4096)
    for key in _load_keys():
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    return engine


def _run_cell(planner: Optional[BatchPlanner]) -> Dict[str, object]:
    """Answer every batch ``N_PASSES`` times; count probes and time it."""
    engine = _build_engine()
    if planner is not None:
        engine.attach_planner(planner)
    verdicts: List[np.ndarray] = []
    probes_before = engine.stats.total_filter_decisions
    start = time.perf_counter()
    for _ in range(N_PASSES):
        for los, his in _batches():
            verdicts.append(engine.batch_range_empty(los, his))
    elapsed = time.perf_counter() - start
    probes = engine.stats.total_filter_decisions - probes_before
    n_queries = sum(int(los.size) for los, _ in _batches()) * N_PASSES
    snapshot = planner.stats_snapshot() if planner is not None else None
    return {
        "probes": int(probes),
        "queries": n_queries,
        "probes_per_query": probes / n_queries,
        "elapsed_s": elapsed,
        "op_s": n_queries / elapsed if elapsed else 0.0,
        "planner": snapshot,
        "_verdicts": verdicts,  # stripped before JSON
    }


@functools.lru_cache(maxsize=None)
def _report() -> Dict[str, Dict[str, object]]:
    cells = {
        "unplanned": _run_cell(None),
        "dedup_only": _run_cell(BatchPlanner(cache_capacity=0)),
        "planned": _run_cell(BatchPlanner()),
    }
    base = cells["unplanned"]["probes_per_query"]
    rows = []
    for name, cell in cells.items():
        planner = cell["planner"]
        negcache = (planner or {}).get("negative_cache") or {}
        rows.append([
            name,
            f"{cell['probes']:,}",
            f"{cell['probes_per_query']:.2f}",
            f"{base / cell['probes_per_query']:.2f}x",
            f"{cell['op_s']:,.0f}",
            (f"{planner['duplicates_folded']:,}" if planner else "-"),
            (f"{negcache['hit_rate']:.1%}" if negcache.get("enabled")
             else "-"),
        ])
    register_report(
        "planner",
        format_table(
            ["cell", "probes", "probes/query", "reduction", "q/s",
             "dups folded", "negcache hit"],
            rows,
            title=(
                f"Batch query planner ({N_BATCHES}x{N_PASSES} batches of "
                f"{N_ZIPF} zipf(n_hot={N_HOT}) + {N_EMPTY} recurring empty "
                f"queries, {N_KEYS:,} keys)"
            ),
        ),
    )
    write_bench_json(
        "planner",
        results={
            name: {k: v for k, v in cell.items() if k != "_verdicts"}
            for name, cell in cells.items()
        },
        config={
            "n_keys": N_KEYS,
            "range_size": RANGE_SIZE,
            "n_batches": N_BATCHES,
            "n_passes": N_PASSES,
            "n_zipf": N_ZIPF,
            "n_empty": N_EMPTY,
            "n_hot": N_HOT,
            "probe_reduction_floor": PROBE_REDUCTION_FLOOR,
        },
    )
    return cells


def test_verdicts_identical_planned_vs_unplanned():
    """The planner must never buy probes with wrong answers: every cell
    returns bit-identical verdict columns on the identical batch list."""
    cells = _report()
    want = cells["unplanned"]["_verdicts"]
    for name in ("dedup_only", "planned"):
        got = cells[name]["_verdicts"]
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g, w, err_msg=f"{name} batch {i}")


def test_probe_reduction_meets_floor():
    """The tentpole gate: on the duplicate-heavy mixed workload the full
    planner answers the same queries with at least
    ``PROBE_REDUCTION_FLOOR``x fewer filter probes per query."""
    cells = _report()
    reduction = (
        cells["unplanned"]["probes_per_query"]
        / cells["planned"]["probes_per_query"]
    )
    assert reduction >= PROBE_REDUCTION_FLOOR, (
        f"planner probe reduction {reduction:.2f}x "
        f"(floor {PROBE_REDUCTION_FLOOR}x): "
        f"planned {cells['planned']['probes_per_query']:.2f} vs "
        f"unplanned {cells['unplanned']['probes_per_query']:.2f} "
        f"probes/query"
    )


def test_negative_cache_is_live():
    """The reduction must include real cache replay, not dedup alone:
    the recurring empty queries hit from the second batch on, and the
    full planner beats the cache-less variant."""
    cells = _report()
    negcache = cells["planned"]["planner"]["negative_cache"]
    assert negcache["enabled"] and negcache["hits"] > 0
    assert negcache["hit_rate"] > 0.0
    assert (
        cells["planned"]["probes"] < cells["dedup_only"]["probes"]
    ), "negative cache bought no probes over dedup alone"
