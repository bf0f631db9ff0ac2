"""Engine throughput: batch probes vs. per-query loops, across shards.

The engine exists to serve probe traffic at throughput, so this bench
answers the two sizing questions an operator would ask:

* how do queries/sec scale with the **shard count** (routing cost vs.
  smaller per-shard runs), and
* what does the **batch size** buy — the vectorised Grafite path
  amortises python/dispatch overhead over the whole batch, so
  ``batch_range_empty`` should beat a loop of scalar ``range_empty``
  calls by a growing factor (the acceptance bar is >= 3x at a 10k
  batch).

The store is bulk-loaded once per shard count, flushed, and probed with
uncorrelated ranges (§6.1's workload), which are mostly empty — the
regime where filters, not disk reads, dominate the cost.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import _common
from _common import SEED, UNIVERSE, register_report, timing_stats, write_bench_json
from repro.analysis.report import format_table
from repro.engine import ShardedEngine
from repro.filters import FilterSpec
from repro.workloads.datasets import uniform
from repro.workloads.queries import uncorrelated_queries

N_KEYS = max(2_000, int(50_000 * _common.SCALE))
BIG_BATCH = max(1_000, int(10_000 * _common.SCALE))
SHARD_COUNTS = (1, 2, 4, 8)
BATCH_SIZES = (256, 2_048, BIG_BATCH)
RANGE = 32
BITS_PER_KEY = 16


_SPEC = FilterSpec(
    "grafite", bits_per_key=BITS_PER_KEY, max_range_size=RANGE, seed=SEED
)


@functools.lru_cache(maxsize=None)
def build_engine(num_shards: int) -> ShardedEngine:
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=num_shards,
        memtable_limit=max(512, N_KEYS // 8),
        compaction_fanout=4,
        filter_spec=_SPEC,
    )
    arrival = keys[np.random.default_rng(SEED + 1).permutation(keys.size)]
    for key in arrival:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    return engine


@functools.lru_cache(maxsize=None)
def probe_bounds(batch_size: int):
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    queries = uncorrelated_queries(
        batch_size, RANGE, UNIVERSE, keys=keys, seed=SEED + 2
    )
    los = np.asarray([lo for lo, _ in queries], dtype=np.uint64)
    his = np.asarray([hi for _, hi in queries], dtype=np.uint64)
    return los, his


@functools.lru_cache(maxsize=None)
def throughput_cell(num_shards: int, batch_size: int) -> dict:
    """Queries/sec for the batch path and the per-query loop."""
    engine = build_engine(num_shards)
    los, his = probe_bounds(batch_size)
    batch_stats = timing_stats(
        lambda: engine.batch_range_empty(los, his), ops=batch_size, repeat=3
    )
    loop_stats = timing_stats(
        lambda: [engine.range_empty(int(lo), int(hi)) for lo, hi in zip(los, his)],
        ops=batch_size,
        repeat=3,
    )
    batch = engine.batch_range_empty(los, his)
    loop = np.asarray(
        [engine.range_empty(int(lo), int(hi)) for lo, hi in zip(los, his)]
    )
    assert bool((batch == loop).all()), "batch path must agree with the scalar loop"
    return {
        "num_shards": num_shards,
        "batch_size": batch_size,
        "batch_qps": batch_stats["op_s"],
        "loop_qps": loop_stats["op_s"],
        "batch_p50_s": batch_stats["p50_s"],
        "batch_p99_s": batch_stats["p99_s"],
        "speedup": batch_stats["op_s"] / loop_stats["op_s"],
        "empty_fraction": float(batch.mean()),
    }


def _report():
    rows = []
    cells = []
    for num_shards in SHARD_COUNTS:
        for batch_size in BATCH_SIZES:
            cell = throughput_cell(num_shards, batch_size)
            cells.append(cell)
            rows.append(
                [
                    num_shards,
                    f"{batch_size:,}",
                    f"{cell['batch_qps']:,.0f}",
                    f"{cell['loop_qps']:,.0f}",
                    f"{cell['speedup']:.1f}x",
                    f"{cell['empty_fraction']:.3f}",
                ]
            )
    register_report(
        "engine_throughput",
        format_table(
            ["shards", "batch size", "batch q/s", "loop q/s", "speedup", "empty frac"],
            rows,
            title=(
                f"ShardedEngine emptiness probes ({N_KEYS:,} keys, Grafite "
                f"{BITS_PER_KEY} bpk, range {RANGE})"
            ),
        ),
    )
    write_bench_json(
        "engine_throughput",
        results=cells,
        config={
            "n_keys": N_KEYS,
            "bits_per_key": BITS_PER_KEY,
            "range_size": RANGE,
            "shard_counts": list(SHARD_COUNTS),
            "batch_sizes": list(BATCH_SIZES),
        },
    )


def test_vectorised_batch_beats_per_query_loop():
    """Acceptance bar: >= 3x over the scalar loop at the 10k batch size."""
    _report()
    for num_shards in SHARD_COUNTS:
        cell = throughput_cell(num_shards, BIG_BATCH)
        assert cell["speedup"] >= 3.0, (num_shards, cell)


def test_sharding_keeps_batch_path_correct():
    """Routing must not change answers: 1-shard and 8-shard engines agree."""
    los, his = probe_bounds(BATCH_SIZES[0])
    single = build_engine(1).batch_range_empty(los, his)
    sharded = build_engine(8).batch_range_empty(los, his)
    assert bool((single == sharded).all())


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_benchmark_batch_probes(benchmark, num_shards):
    engine = build_engine(num_shards)
    los, his = probe_bounds(BATCH_SIZES[1])
    benchmark(lambda: engine.batch_range_empty(los, his))
