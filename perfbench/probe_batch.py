"""``probe-batch``: one closed-loop caller probing a full-merge store.

200k uniform keys are bulk-loaded into a persistent engine with the
``engine`` CLI defaults (full-merge compaction, planner attached,
checkpointed). The caller then sends fresh, duplicate-free batches in
rounds of 2000, 64 and 512 ranges (45% uncorrelated empty, 45%
correlated empty at D=0.8, 10% non-empty) until the window ends. A
two-second warm-up first fills the planner's negative cache to capacity,
after which latency no longer drifts.

* ``p50_ms`` / ``p90_ms``: 2000-range calls, the workload's bulk probe;
* ``low_*``: 64-range calls, where the per-call fixed cost weighs most;
* ``high_*``: 512-range calls, the network tier's largest coalesced batch.

A call's time is the process's CPU time over the call: the calls run in
this thread and wait on nothing but the CPU, and CPU time leaves out
what the wall clock also counts on a shared VM, the time the hypervisor
or another process holds the CPU. (In multi-minute episodes of it, four
runs in a row read a p90 twice the usual.) The reference kernel
(:mod:`speed`) runs before every round, and each call's time is scaled
by the host speed it gave around that round.
"""

from __future__ import annotations

import gc
import shutil
import time

import numpy as np

import common
from gen import RANGE_SIZE, make_keys, probe_batches
from layers import Layers, layer_metrics, layer_table
from oracle import Oracle, wrong_verdicts
from spans import Recorder
from speed import Speed

SIZES = (2000, 64, 512)
MAIN, LOW, HIGH = SIZES
ROUNDS_PER_SECOND = 30  # inputs drawn up front; ~1.5x what this host uses
WARMUP_S = 2.0  # the planner's negative cache fills to capacity first


def warm_up(engine, batches, span, verdicts, speed) -> int:
    """Untimed rounds until the planner's caches reach steady state;
    appends their verdicts and returns how many batches were used."""
    used = 0
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_S:
        speed.sample()
        for _ in SIZES:
            lo = batches[used]
            used += 1
            verdicts.append(engine.batch_range_empty(lo, lo + span))
    return used


def run(seed: int, seconds: float, trace: bool):
    keys = make_keys(seed, common.N_KEYS)
    sorted_keys = np.sort(keys)
    rounds = int(ROUNDS_PER_SECOND * (seconds + WARMUP_S))
    batches = probe_batches(seed, sorted_keys, list(SIZES) * rounds)
    span = np.uint64(RANGE_SIZE - 1)

    def build(i, speed):
        directory = common.fresh_dir(f"probe-batch-{i}")
        engine = common.build_engine(directory, "full")
        common.bulk_load(engine, keys, speed)

        def close():
            engine.close(checkpoint=False)
            shutil.rmtree(directory)
        return (engine, directory), close

    setup_s, (engine, directory), close = common.median_setup(build)
    rec = Recorder()
    layers = Layers(rec)
    if trace:
        layers.install()
    verdicts = []
    lat = {size: ([], []) for size in SIZES}  # size -> (untraced, traced)
    round_at = ([], [])  # (untraced, traced) round start times
    windows = []
    speed = Speed()
    gc.collect()
    gc.freeze()
    used = first = warm_up(engine, batches, span, verdicts, speed)
    wasted0 = engine.stats.wasted_reads
    start = time.perf_counter()
    for r in range(rounds - used // len(SIZES)):
        traced = trace and r % 2 == 1
        speed.sample()
        rec.enabled = traced
        round_start = time.perf_counter()
        round_at[traced].append(round_start)
        for size in SIZES:
            lo = batches[used]
            used += 1
            t0 = time.process_time()
            verdicts.append(engine.batch_range_empty(lo, lo + span))
            lat[size][traced].append(time.process_time() - t0)
        rec.enabled = False
        if traced:
            windows.append((round_start, time.perf_counter()))
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    gc.unfreeze()
    if used == len(batches):
        common.log(f"inputs exhausted after {elapsed:.2f}s; the window ended early")
    common.log(f"rounds={used // len(SIZES)} window_s={elapsed:.2f}")

    expected = Oracle(sorted_keys).empty(np.concatenate(batches[:used]))
    wrong = wrong_verdicts(np.concatenate(verdicts), expected)
    attempted = int(expected.size)
    queries = sum(batch.size for batch in batches[first:used])
    wasted = engine.stats.wasted_reads - wasted0

    def qps(traced, scale=1.0):
        n = sum(size * len(lat[size][traced]) for size in SIZES)
        return n / sum(float(np.sum(np.asarray(lat[size][traced]) * scale)) for size in SIZES)

    if trace:
        layers.uninstall()
        q_traced = sum(size * len(lat[size][True]) for size in SIZES)
        metrics, self_s = layer_metrics(rec.spans, rec.counters, windows,
                                        queries=q_traced, mutations=0)
        metrics["trace.ops_per_s_ratio"] = qps(True) / qps(False)
        metrics["trace.p50_ratio"] = float(np.median(lat[MAIN][True]) / np.median(lat[MAIN][False]))
        window_s = sum(b - a for a, b in windows)
        print(layer_table(self_s, window_s))
        rec.dump(common.WORK / f"trace-probe-batch-{seed}.json", windows=windows)
    else:
        scale = speed.scale_at(round_at[False])
        ms = {size: common.scaled_ms(lat[size][False], scale) for size in SIZES}
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": qps(False, scale),
            "p50_ms": common.sliced_pct(ms[MAIN], 50, "p50_ms"),
            "p90_ms": common.sliced_pct(ms[MAIN], 90, "p90_ms"),
            "low_p50_ms": common.sliced_pct(ms[LOW], 50, "low_p50_ms"),
            "low_p90_ms": common.sliced_pct(ms[LOW], 90, "low_p90_ms"),
            "high_p50_ms": common.sliced_pct(ms[HIGH], 50, "high_p50_ms"),
            "high_p90_ms": common.sliced_pct(ms[HIGH], 90, "high_p90_ms"),
            "wasted_reads_per_kq": wasted * 1e3 / queries,
            "write_amp": engine.stats.write_amplification,
            "filter_bits_per_key": engine.filter_bits_total / common.N_KEYS,
            "disk_bytes_per_key": common.dir_bytes(directory) / common.N_KEYS,
            "peak_rss_mb": common.vmhwm_mb(),
            "ok_frac": 1.0 - wrong / attempted,
        }
        common.log("samples: " + ", ".join(f"{s}-range calls={len(ms[s])}" for s in SIZES))
        common.log(f"raw: ops_per_s={qps(False):.1f} p50_ms={np.median(lat[MAIN][False]) * 1e3:.3f} "
                   f"kernel_ms={speed.kernel_s() * 1e3:.4f}")
    close()
    return metrics, attempted, wrong
