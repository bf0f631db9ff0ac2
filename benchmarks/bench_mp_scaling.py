"""Multi-process scaling + columnar-router regression bench.

Answers the two questions ISSUE 3 opened, and stands guard over both
answers as a perf-regression harness:

* **columnar vs. tuple fan-out** — the PR 2 batch path was "vectorised"
  yet still executed per-query python at two points: one interpreted
  big-int hash evaluation per *distinct query block* inside Grafite's
  batch probe (``np.fromiter`` over ``hash_block``) and a per-query
  python scan of the memtable. The frozen reference implementation of
  that path lives in this file (``_legacy_*``); the acceptance bar is
  the columnar pipeline beating it by >= 1.5x on the big cross-shard
  batch, so a silently re-introduced per-query loop fails CI;
* **process vs. thread serving** — on a CPU-bound batch the thread pool
  serialises on the GIL; ``mode="process"`` routes the same chunks to
  per-shard snapshot workers over their pipes. The bar is
  >= 2x over thread mode at 4 workers — asserted only where the host
  actually has >= 4 CPUs (the comparison is meaningless on fewer), and
  always recorded in the JSON artifact either way.

Every cell lands in ``BENCH_mp_scaling.json`` (op/s, p50/p99, config,
git sha) next to the human-readable table, seeding the machine-readable
perf trajectory. The popcount micro-kernel (``np.bitwise_count`` vs.
the byte-table walk) is measured into the same artifact.
"""

from __future__ import annotations

import functools
import os
import tempfile
from typing import Dict, List, Tuple

import numpy as np
import pytest

import _common
from _common import (
    SEED, UNIVERSE, merge_bench_json, register_report, timing_stats,
    write_bench_json,
)
from repro.analysis.report import format_table
from repro.core.grafite import Grafite
from repro.engine import RangeQueryService, ShardedEngine
from repro.engine.batch import validate_batch_bounds
from repro.filters import FilterSpec
from repro.succinct.bitvector import (
    HAS_BITWISE_COUNT,
    _popcount_words_table,
    popcount_words,
)
from repro.workloads.datasets import uniform
from repro.workloads.queries import uncorrelated_queries

N_KEYS = max(5_000, int(120_000 * _common.SCALE))
BIG_BATCH = max(2_000, int(100_000 * _common.SCALE))
WORKER_COUNTS = (1, 2, 4)
NUM_SHARDS = 4
RANGE = 32
BITS_PER_KEY = 16
#: Floors enforced by the CI perf-smoke step.
COLUMNAR_FLOOR = 1.5
PROCESS_FLOOR = 2.0

# The process-mode block cache: one shared-memory slab for every worker.
CACHE_WORKERS = 4
CACHE_BATCH = max(1_000, int(8_000 * _common.SCALE))
#: Fraction of probes aimed at the one hot shard — the skew that makes
#: cache *placement* matter: one worker owns nearly all the traffic.
HOT_FRACTION = 0.9
#: Simulated storage-device read latency per block-cache miss.
CACHE_MISS_LATENCY = 0.0002
#: The slab's hit ratio over the timed passes must reach this.
SLAB_HIT_FLOOR = 0.8

_TMP = tempfile.TemporaryDirectory(prefix="repro-mp-bench-")


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
        directory=os.path.join(_TMP.name, "db"),
    )
    arrival = keys[np.random.default_rng(SEED + 1).permutation(keys.size)]
    for key in arrival:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    return engine


@functools.lru_cache(maxsize=None)
def probe_bounds(batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """A CPU-bound cross-shard batch: uncorrelated, overwhelmingly empty,
    so the cost is filter kernels — not verification I/O."""
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    queries = uncorrelated_queries(
        batch_size, RANGE, UNIVERSE, keys=keys, seed=SEED + 2
    )
    los = np.asarray([lo for lo, _ in queries], dtype=np.uint64)
    his = np.asarray([hi for _, hi in queries], dtype=np.uint64)
    return los, his


# ----------------------------------------------------------------------
# Frozen PR 2 reference ("tuple fan-out") — DO NOT MODERNISE.
# ----------------------------------------------------------------------
# This replicates the pre-columnar hot path byte for byte where it
# matters: the dict-of-tuples shard routing, the per-distinct-block
# python hash evaluation, the decode-plus-searchsorted Elias-Fano
# probe, and the per-query python memtable scan. It exists so the
# columnar pipeline has a pinned baseline to beat; edits here would
# silently move the bar — which is also why it does NOT call the live
# router (a regression there would slow baseline and candidate alike
# and hide from the floor).
def _legacy_route_single_shard(router, los: np.ndarray, his: np.ndarray):
    """PR 2's ``route_single_shard``, frozen."""
    no_straddlers = np.zeros(0, dtype=np.int64)
    if router.num_shards == 1:
        return {0: (los, his, np.arange(los.size, dtype=np.int64))}, no_straddlers
    width = np.uint64(router.shard_width)
    sid_lo = (los // width).astype(np.int64)
    sid_hi = (his // width).astype(np.int64)
    single = sid_lo == sid_hi
    per_shard = {}
    if single.any():
        qids = np.flatnonzero(single)
        order = np.argsort(sid_lo[qids], kind="stable")
        qids = qids[order]
        sids = sid_lo[qids]
        cuts = np.flatnonzero(np.diff(sids)) + 1
        for group in np.split(qids, cuts):
            sid = int(sid_lo[group[0]])
            per_shard[sid] = (los[group], his[group], group)
    return per_shard, np.flatnonzero(~single)


def _legacy_ef_contains_batch(ef, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    if len(ef) == 0 or los.size == 0:
        return np.zeros(los.shape, dtype=bool)
    codes = ef.to_array()
    idx = np.searchsorted(codes, his, side="right")
    pred = codes[np.maximum(idx - 1, 0)]
    return (idx > 0) & (pred >= los) & (los <= his)


def _legacy_grafite_batch(filt: Grafite, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    if filt.key_count == 0:
        return np.zeros(los.size, dtype=bool)
    if filt.is_exact:
        return _legacy_ef_contains_batch(filt._ef, los, his)
    r = np.uint64(filt.reduced_universe)
    result = np.zeros(los.size, dtype=bool)
    full = (his - los) >= np.uint64(filt.reduced_universe - 1)
    result[full] = True
    qid = np.flatnonzero(~full)
    if qid.size == 0:
        return result
    q_lo, q_hi = los[qid], his[qid]
    lo_block = q_lo // r
    hi_block = q_hi // r
    split = lo_block != hi_block
    boundary = q_hi - (q_hi % r)
    seg_lo = np.concatenate([q_lo, boundary[split]])
    seg_hi = np.concatenate(
        [np.where(split, boundary - np.uint64(1), q_hi), q_hi[split]]
    )
    seg_qid = np.concatenate([qid, qid[split]])
    blocks, inverse = np.unique(seg_lo // r, return_inverse=True)
    offsets = np.fromiter(  # the per-distinct-block python loop of PR 2
        (filt._hash.hash_block(int(b)) for b in blocks),
        dtype=np.uint64,
        count=blocks.size,
    )[inverse]
    h_lo = (offsets + (seg_lo % r)) % r
    h_hi = (offsets + (seg_hi % r)) % r
    wrap = h_lo > h_hi
    int_lo = np.concatenate([np.where(wrap, np.uint64(0), h_lo), h_lo[wrap]])
    int_hi = np.concatenate(
        [h_hi, np.full(int(wrap.sum()), filt.reduced_universe - 1, dtype=np.uint64)]
    )
    int_qid = np.concatenate([seg_qid, seg_qid[wrap]])
    hits = _legacy_ef_contains_batch(filt._ef, int_lo, int_hi)
    np.logical_or.at(result, int_qid, hits)
    return result


def _legacy_shard_batch_empty(store, q_lo: np.ndarray, q_hi: np.ndarray) -> np.ndarray:
    maybe = np.zeros(q_lo.size, dtype=bool)
    memtable = store._memtable
    if len(memtable):
        for j in range(q_lo.size):  # the per-query python memtable scan
            for _ in memtable.scan(int(q_lo[j]), int(q_hi[j])):
                maybe[j] = True
                break
    runs = store._runs()
    for run in runs:
        if run.filter is None:
            maybe[:] = True
        elif isinstance(run.filter, Grafite):
            maybe |= _legacy_grafite_batch(run.filter, q_lo, q_hi)
        else:  # pragma: no cover - bench builds Grafite-filtered runs only
            maybe |= run.filter.may_contain_range_batch(q_lo, q_hi)
    empty = np.ones(q_lo.size, dtype=bool)
    for j in np.flatnonzero(maybe):
        if not store.range_empty(int(q_lo[j]), int(q_hi[j])):
            empty[j] = False
    return empty


def _legacy_batch_range_empty(engine: ShardedEngine, los, his) -> np.ndarray:
    los, his = validate_batch_bounds(engine.universe, los, his)
    empty = np.ones(los.size, dtype=bool)
    singles, straddlers = _legacy_route_single_shard(engine.router, los, his)
    for sid, (q_lo, q_hi, qid) in singles.items():
        sub = _legacy_shard_batch_empty(engine.shards[sid], q_lo, q_hi)
        empty[qid[~sub]] = False
    for qid in straddlers:  # python split per straddler, as in PR 2
        empty[qid] = all(
            engine.shards[sid].range_empty(seg_lo, seg_hi)
            for sid, seg_lo, seg_hi in engine.router.split(int(los[qid]), int(his[qid]))
        )
    return empty


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def router_cell() -> Dict[str, float]:
    """Columnar pipeline vs. the frozen tuple fan-out, single-threaded."""
    engine = build_engine()
    los, his = probe_bounds(BIG_BATCH)
    reference = engine.batch_range_empty(los, his)
    legacy = _legacy_batch_range_empty(engine, los, his)
    assert bool((reference == legacy).all()), "legacy reference diverged"
    columnar = timing_stats(
        lambda: engine.batch_range_empty(los, his), ops=BIG_BATCH, repeat=3
    )
    tuple_fanout = timing_stats(
        lambda: _legacy_batch_range_empty(engine, los, his), ops=BIG_BATCH, repeat=3
    )
    return {
        "batch_size": BIG_BATCH,
        "columnar_qps": columnar["op_s"],
        "columnar_p50_s": columnar["p50_s"],
        "columnar_p99_s": columnar["p99_s"],
        "legacy_qps": tuple_fanout["op_s"],
        "speedup": columnar["op_s"] / tuple_fanout["op_s"],
        "empty_fraction": float(reference.mean()),
    }


@functools.lru_cache(maxsize=None)
def mode_cell(mode: str, workers: int) -> Dict[str, float]:
    """Service throughput on the big batch at ``workers`` threads/processes."""
    engine = build_engine()
    los, his = probe_bounds(BIG_BATCH)
    reference = engine.batch_range_empty(los, his)
    with RangeQueryService(
        engine,
        num_threads=workers,
        cache_blocks=0,
        mode=mode,
        num_workers=workers,
    ) as service:
        got = service.batch_range_empty(los, his)
        assert bool((got == reference).all()), f"{mode} mode diverged"
        stats = timing_stats(
            lambda: service.batch_range_empty(los, his), ops=BIG_BATCH, repeat=3
        )
        worker_queries = service.worker_queries
    return {
        "mode": mode,
        "workers": workers,
        "qps": stats["op_s"],
        "p50_s": stats["p50_s"],
        "p99_s": stats["p99_s"],
        "worker_queries": worker_queries,
    }


# ----------------------------------------------------------------------
# The process-mode shared-memory block cache
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def build_cache_engine() -> ShardedEngine:
    """A persistent *unfiltered* engine: with no range filters every
    probe verifies against run blocks, so the block cache sits on the
    hot path and the simulated device latency on misses is the
    dominant serving cost."""
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED + 11)
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=NUM_SHARDS,
        memtable_limit=max(512, N_KEYS // 8),
        compaction_fanout=4,
        filter_spec=None,
        directory=os.path.join(_TMP.name, "cache-db"),
    )
    arrival = keys[np.random.default_rng(SEED + 12).permutation(keys.size)]
    for key in arrival:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    return engine


@functools.lru_cache(maxsize=None)
def hot_shard_blocks() -> int:
    """Block working set of the hot shard (shard 0)."""
    engine = build_cache_engine()
    return sum(run.block_count for run in engine.shards[0]._runs())


@functools.lru_cache(maxsize=None)
def skewed_probe_bounds() -> Tuple[np.ndarray, np.ndarray]:
    """A 90/10 hot/cold probe batch: most probes land on shard 0, the
    rest spread across the other shards, and every probe stays inside
    one shard so exactly one snapshot worker answers it. This is the
    skew that makes cache *placement* matter — one worker carries
    nearly all the traffic, and the shared slab lets the hot shard use
    the whole budget."""
    engine = build_cache_engine()
    width = int(engine.router.shard_width)
    rng = np.random.default_rng(SEED + 13)
    n_hot = int(CACHE_BATCH * HOT_FRACTION)
    n_cold = CACHE_BATCH - n_hot
    lo_hot = rng.integers(0, width - RANGE, n_hot, dtype=np.uint64)
    cold_shard = rng.integers(1, NUM_SHARDS, n_cold, dtype=np.uint64)
    lo_cold = cold_shard * np.uint64(width) + rng.integers(
        0, width - RANGE, n_cold, dtype=np.uint64
    )
    los = np.concatenate([lo_hot, lo_cold])
    rng.shuffle(los)
    his = los + np.uint64(RANGE - 1)
    return los, his


@functools.lru_cache(maxsize=None)
def cache_cell() -> Dict[str, float]:
    """4-worker process-mode serving through the one
    :class:`SharedBlockCache` slab the parent and every worker attach
    to, sized at twice the hot shard's block working set. One warm pass
    fills it for every process; the timed passes then measure its hit
    ratio, split into the parent's own hits and the workers' hits."""
    engine = build_cache_engine()
    los, his = skewed_probe_bounds()
    reference = engine.batch_range_empty(los, his)
    cache_blocks = max(8, hot_shard_blocks() // 2) * CACHE_WORKERS
    with RangeQueryService(
        engine,
        num_threads=CACHE_WORKERS,
        cache_blocks=cache_blocks,
        miss_latency=CACHE_MISS_LATENCY,
        mode="process",
        num_workers=CACHE_WORKERS,
    ) as service:
        got = service.batch_range_empty(los, his)  # warm pass
        assert bool((got == reference).all()), "cache cell diverged"
        before = engine.stats
        parent_before = service.cache.hits
        stats = timing_stats(
            lambda: service.batch_range_empty(los, his),
            ops=CACHE_BATCH,
            repeat=3,
        )
        after = engine.stats
        parent_hits = service.cache.hits - parent_before
    hits = after.cache_hits - before.cache_hits
    misses = after.cache_misses - before.cache_misses
    return {
        "cache_blocks": cache_blocks,
        "qps": stats["op_s"],
        "p50_s": stats["p50_s"],
        "p99_s": stats["p99_s"],
        "hits": hits,
        "misses": misses,
        "worker_hits": hits - parent_hits,
        "hit_ratio": hits / max(1, hits + misses),
    }


def popcount_cell(n_words: int = 1 << 20) -> Dict[str, float]:
    """The bitvector popcount kernel: hardware ufunc vs. table walk."""
    words = np.random.default_rng(SEED).integers(
        0, 2**64, n_words, dtype=np.uint64
    )
    assert bool((popcount_words(words) == _popcount_words_table(words)).all())
    table = timing_stats(lambda: _popcount_words_table(words), ops=n_words)
    active = timing_stats(lambda: popcount_words(words), ops=n_words)
    return {
        "n_words": n_words,
        "has_bitwise_count": HAS_BITWISE_COUNT,
        "active_words_per_s": active["op_s"],
        "table_words_per_s": table["op_s"],
        "speedup_over_table": table["best_s"] / active["best_s"],
    }


def _report() -> Dict[str, object]:
    router = router_cell()
    modes: List[Dict[str, float]] = [
        mode_cell(mode, workers)
        for workers in WORKER_COUNTS
        for mode in ("thread", "process")
    ]
    popcount = popcount_cell()
    cache = cache_cell()
    rows = [
        ["columnar router", "-", f"{router['columnar_qps']:,.0f}",
         f"{router['speedup']:.2f}x vs tuple fan-out"],
        ["tuple fan-out (PR 2)", "-", f"{router['legacy_qps']:,.0f}", "baseline"],
    ]
    by_key = {(c["mode"], c["workers"]): c for c in modes}
    for workers in WORKER_COUNTS:
        thread_qps = by_key[("thread", workers)]["qps"]
        process_qps = by_key[("process", workers)]["qps"]
        rows.append(
            ["thread mode", workers, f"{thread_qps:,.0f}", "-"]
        )
        rows.append(
            ["process mode", workers, f"{process_qps:,.0f}",
             f"{process_qps / thread_qps:.2f}x vs threads"]
        )
    rows.append(
        ["shared cache", CACHE_WORKERS, f"{cache['qps']:,.0f}",
         f"hit ratio {cache['hit_ratio']:.0%}"]
    )
    rows.append(
        ["popcount kernel",
         "bitwise_count" if popcount["has_bitwise_count"] else "table",
         f"{popcount['active_words_per_s']:,.0f} words/s",
         f"{popcount['speedup_over_table']:.2f}x vs table"]
    )
    register_report(
        "mp_scaling",
        format_table(
            ["path", "workers", "q/s", "relative"],
            rows,
            title=(
                f"Columnar + multi-process scaling ({N_KEYS:,} keys, "
                f"{NUM_SHARDS} shards, {BIG_BATCH:,}-query batch, "
                f"Grafite {BITS_PER_KEY} bpk, range {RANGE}, "
                f"{os.cpu_count()} CPUs)"
            ),
        ),
    )
    write_bench_json(
        "mp_scaling",
        results={
            "router": router,
            "modes": modes,
            "popcount": popcount,
            "floors": {
                "columnar_over_tuple": COLUMNAR_FLOOR,
                "process_over_thread": PROCESS_FLOOR,
                "process_floor_enforced": (os.cpu_count() or 1) >= 4,
            },
        },
        config={
            "n_keys": N_KEYS,
            "num_shards": NUM_SHARDS,
            "batch_size": BIG_BATCH,
            "bits_per_key": BITS_PER_KEY,
            "range_size": RANGE,
            "worker_counts": list(WORKER_COUNTS),
        },
    )
    merge_bench_json(
        "storage",
        section="shared_cache",
        results=cache,
        config={
            "n_keys": N_KEYS,
            "num_shards": NUM_SHARDS,
            "workers": CACHE_WORKERS,
            "batch_size": CACHE_BATCH,
            "hot_fraction": HOT_FRACTION,
            "miss_latency_s": CACHE_MISS_LATENCY,
            "hot_shard_blocks": hot_shard_blocks(),
            "range_size": RANGE,
            "slab_hit_floor": SLAB_HIT_FLOOR,
        },
    )
    return {"router": router, "modes": by_key, "cache": cache}


def test_columnar_router_beats_tuple_fanout():
    """ISSUE 3 acceptance bar: >= 1.5x over the frozen PR 2 fan-out at
    the big cross-shard batch — the anti-regression floor for per-query
    python loops on the batch path."""
    data = _report()
    speedup = data["router"]["speedup"]
    assert speedup >= COLUMNAR_FLOOR, (
        f"columnar router only {speedup:.2f}x over the tuple fan-out "
        f"(floor {COLUMNAR_FLOOR}x) — a per-query loop crept back in?"
    )


def test_process_mode_scales_past_threads():
    """ISSUE 3 acceptance bar: process mode >= 2x thread mode at 4
    workers on the CPU-bound batch. Only meaningful with >= 4 CPUs; on
    smaller hosts the cells are still recorded in the JSON artifact but
    the floor cannot be demanded of the hardware."""
    data = _report()
    thread_qps = data["modes"][("thread", 4)]["qps"]
    process_qps = data["modes"][("process", 4)]["qps"]
    ratio = process_qps / thread_qps
    if (os.cpu_count() or 1) < 4:
        pytest.skip(
            f"host has {os.cpu_count()} CPU(s); recorded ratio {ratio:.2f}x"
        )
    assert ratio >= PROCESS_FLOOR, (
        f"process mode only {ratio:.2f}x over thread mode at 4 workers "
        f"(floor {PROCESS_FLOOR}x)"
    )


def test_shared_cache_hits_accumulate_across_workers():
    """One warm pass fills the slab for every process: over the timed
    passes the slab must serve at least ``SLAB_HIT_FLOOR`` of the block
    reads, and the workers must score hits of their own — blocks that
    any process admitted."""
    cache = _report()["cache"]
    assert cache["hit_ratio"] >= SLAB_HIT_FLOOR, cache
    assert cache["worker_hits"] > 0, cache


def test_process_mode_uses_workers():
    """The scaling claim is vacuous if queries quietly fall back to the
    locked in-process path: on the clean post-checkpoint epoch every
    probe of the batch must be answered by a snapshot worker."""
    cell = mode_cell("process", 2)
    assert cell["worker_queries"] >= BIG_BATCH, cell


@pytest.mark.benchmark(group="mp-scaling")
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_bench_process_batch(benchmark, workers):
    engine = build_engine()
    los, his = probe_bounds(max(256, BIG_BATCH // 4))
    with RangeQueryService(
        engine, num_threads=workers, cache_blocks=0,
        mode="process", num_workers=workers,
    ) as service:
        benchmark(lambda: service.batch_range_empty(los, his))
