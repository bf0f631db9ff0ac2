"""Service concurrency: thread-pool batch fan-out vs. the single-threaded engine.

The serving question this answers: once probe batches contend with real
storage latency, what do worker threads buy? Both paths — the
single-threaded :meth:`ShardedEngine.batch_range_empty` and the
:class:`RangeQueryService` pool — run the *identical* read stack: the
same shards, the same filters, and the same block cache configured with
a simulated per-miss device latency (the sleep releases the GIL, so
overlap is real parallelism even where python bytecode is not). The
workload is sized so the working set exceeds the cache — the regime
where a serving tier actually needs concurrency; a cache-resident
workload would measure pure python dispatch instead.

Grid: threads × batch size, on a shard count wide enough that cross-
shard fan-out has parallelism to find (every batch is cross-shard: its
queries collectively span all shards, and boundary-straddling queries
split and re-merge). The acceptance bar is the ISSUE 2 criterion: at
>= 4 threads the service must finish a 10k-query cross-shard batch
faster than the single-threaded engine path.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

import _common
from _common import SEED, UNIVERSE, register_report, write_bench_json
from repro.analysis.report import format_table
from repro.engine import RangeQueryService, ShardedEngine
from repro.filters import FilterSpec
from repro.lsm import BlockCache
from repro.workloads.datasets import uniform
from repro.workloads.queries import nonempty_queries, uncorrelated_queries

N_KEYS = max(4_000, int(60_000 * _common.SCALE))
BIG_BATCH = max(1_000, int(10_000 * _common.SCALE))
BATCH_SIZES = (max(256, BIG_BATCH // 4), BIG_BATCH)
THREAD_COUNTS = (1, 2, 4, 8)
NUM_SHARDS = 8
RANGE = 64
BITS_PER_KEY = 14
#: Simulated device latency per block-cache miss (an SSD read plus queueing).
MISS_LATENCY = 200e-6
#: Deliberately smaller than even one shard's working set so misses keep
#: occurring mid-batch — the regime where threads have latency to hide.
#: (The batch layer groups queries by shard, so a cache that holds one
#: shard's blocks would absorb everything after the first touch; scale
#: with the dataset so REPRO_SCALE keeps the same regime.)
CACHE_BLOCKS = max(4, N_KEYS // 4096)
#: Fraction of probes that hit stored keys (these always verify, i.e.
#: touch the "disk"; the empty rest mostly die in the filters).
NONEMPTY_FRACTION = 0.75


_SPEC = FilterSpec(
    "grafite", bits_per_key=BITS_PER_KEY, max_range_size=RANGE, seed=SEED
)


@functools.lru_cache(maxsize=None)
def build_engine() -> ShardedEngine:
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=NUM_SHARDS,
        memtable_limit=max(512, N_KEYS // 8),
        compaction_fanout=4,
        filter_spec=_SPEC,
    )
    arrival = keys[np.random.default_rng(SEED + 1).permutation(keys.size)]
    for key in arrival:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    # One shared cache for every measured path: same capacity, same
    # simulated latency, so only the threading differs between cells.
    engine.attach_block_cache(
        BlockCache(CACHE_BLOCKS, num_stripes=4, miss_latency=MISS_LATENCY)
    )
    return engine


@functools.lru_cache(maxsize=None)
def probe_bounds(batch_size: int):
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    n_hit = int(batch_size * NONEMPTY_FRACTION)
    hits = nonempty_queries(keys, n_hit, RANGE, UNIVERSE, seed=SEED + 2)
    empties = uncorrelated_queries(
        batch_size - n_hit, RANGE, UNIVERSE, keys=keys, seed=SEED + 3
    )
    queries = list(hits) + list(empties)
    rng = np.random.default_rng(SEED + 4)
    order = rng.permutation(len(queries))
    los = np.asarray([queries[i][0] for i in order], dtype=np.uint64)
    his = np.asarray([queries[i][1] for i in order], dtype=np.uint64)
    return los, his


def _time(engine: ShardedEngine, fn, repeat: int = 2) -> float:
    best = float("inf")
    for _ in range(repeat):
        engine.block_cache.clear()  # cold device every rep, fair to both
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@functools.lru_cache(maxsize=None)
def concurrency_cell(num_threads: int, batch_size: int) -> dict:
    """Wall-clock for the service at ``num_threads`` vs. the engine."""
    engine = build_engine()
    los, his = probe_bounds(batch_size)
    engine_seconds = _time(
        engine, lambda: engine.batch_range_empty(los, his)
    )
    reference = engine.batch_range_empty(los, his)
    with RangeQueryService(
        engine, num_threads=num_threads, cache_blocks=0
    ) as service:
        service_seconds = _time(
            engine, lambda: service.batch_range_empty(los, his)
        )
        got = service.batch_range_empty(los, his)
    assert bool((got == reference).all()), (
        "service results must match the single-threaded engine"
    )
    return {
        "engine_qps": batch_size / engine_seconds,
        "service_qps": batch_size / service_seconds,
        "speedup": engine_seconds / service_seconds,
        "empty_fraction": float(reference.mean()),
    }


def _report():
    rows = []
    cells = []
    for batch_size in BATCH_SIZES:
        for num_threads in THREAD_COUNTS:
            cell = concurrency_cell(num_threads, batch_size)
            cells.append({"batch_size": batch_size, "threads": num_threads, **cell})
            rows.append(
                [
                    f"{batch_size:,}",
                    num_threads,
                    f"{cell['engine_qps']:,.0f}",
                    f"{cell['service_qps']:,.0f}",
                    f"{cell['speedup']:.2f}x",
                    f"{cell['empty_fraction']:.3f}",
                ]
            )
    write_bench_json(
        "service_concurrency",
        results=cells,
        config={
            "n_keys": N_KEYS,
            "num_shards": NUM_SHARDS,
            "bits_per_key": BITS_PER_KEY,
            "range_size": RANGE,
            "miss_latency_s": MISS_LATENCY,
            "cache_blocks": CACHE_BLOCKS,
            "nonempty_fraction": NONEMPTY_FRACTION,
        },
    )
    register_report(
        "service_concurrency",
        format_table(
            [
                "batch size", "threads", "engine q/s (1 thread)",
                "service q/s", "speedup", "empty frac",
            ],
            rows,
            title=(
                f"RangeQueryService fan-out ({N_KEYS:,} keys, "
                f"{NUM_SHARDS} shards, Grafite {BITS_PER_KEY} bpk, "
                f"range {RANGE}, {MISS_LATENCY * 1e6:.0f}us miss latency, "
                f"{CACHE_BLOCKS}-block cache)"
            ),
        ),
    )


def test_four_threads_beat_single_threaded_engine_at_10k():
    """ISSUE 2 acceptance bar: >= 4 threads serve the 10k cross-shard
    batch faster than the single-threaded ShardedEngine path."""
    _report()
    best = max(
        concurrency_cell(t, BIG_BATCH)["speedup"] for t in THREAD_COUNTS if t >= 4
    )
    assert best > 1.0, f"expected a >= 4-thread speedup, best was {best:.2f}x"


def test_speedup_scales_with_threads():
    """More workers must not make the 10k batch slower: the 4-thread cell
    should beat the 1-thread *service* cell (pool overhead is constant)."""
    one = concurrency_cell(1, BIG_BATCH)["service_qps"]
    four = concurrency_cell(4, BIG_BATCH)["service_qps"]
    assert four > one, f"4 threads ({four:,.0f} q/s) <= 1 thread ({one:,.0f} q/s)"


@pytest.mark.benchmark(group="service-concurrency")
@pytest.mark.parametrize("num_threads", THREAD_COUNTS)
def test_bench_service_batch(benchmark, num_threads):
    engine = build_engine()
    los, his = probe_bounds(BATCH_SIZES[0])
    with RangeQueryService(
        engine, num_threads=num_threads, cache_blocks=0
    ) as service:
        benchmark(lambda: service.batch_range_empty(los, his))
