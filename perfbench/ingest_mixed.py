"""``ingest-mixed``: one closed-loop writer on a leveled store.

100k uniform keys are preloaded during set-up into a persistent engine
with the ``engine`` CLI defaults except ``leveled`` compaction. The
timed script is a fixed mutation stream — 90% puts of fresh keys, 10%
deletes of keys it put earlier — cut into blocks of ``BLOCK``; after
every block the caller probes one fresh range (45% uncorrelated empty,
45% correlated empty, 10% non-empty, half of those on a key just put),
and every ``CHECKPOINT_EVERY`` blocks it checkpoints. The WAL is not
fsynced per operation; checkpoints fsync. Deferred compaction drains
inside the next probe call; about 2% of the probes carry a compaction
step (~0.4 s here), which shows in ``ops_per_s`` and in the traced
run's compaction and scheduler metrics.

* ``p50_ms`` / ``p90_ms``: the probe calls (a single-range batch: the
  per-run fixed cost of a read against a deep tree);
* ``low_*`` / ``high_*``: put and delete calls;
* ``wasted_reads_per_kq``: the probes are too few for a steady count of
  filter false positives, so it comes from a closing sweep of fresh
  empty ranges (half correlated) in 2000-range batches after the script.

A 64-range probe costs ~20 ms against this tree, so probing in 64-range
batches as often would leave little time for the write path this
workload exists to measure.

Puts, deletes and probes are timed by the process's CPU time, as in
:mod:`probe_batch` (they run in this thread and wait on nothing but the
CPU); checkpoints, which wait for ``fsync``, by the wall clock. The
reference kernel (:mod:`speed`) runs before every block, and each call's
time is scaled by the host speed it gave around that block.

The script length is fixed by ``--seconds`` (``BLOCKS_PER_SECOND``), so
every run of one configuration does the same work; ``--seconds`` also
caps the window if the program is slower than this host.
"""

from __future__ import annotations

import gc
import shutil
import time

import numpy as np

import common
from gen import DELETE, RANGE_SIZE, empty_sweep, make_keys, mutation_script
from layers import Layers, layer_metrics, layer_table
from oracle import Oracle, wrong_verdicts
from spans import Recorder
from speed import Speed

N_PRELOAD = 100_000
BLOCK = 210
CHECKPOINT_EVERY = 100
BLOCKS_PER_SECOND = 44
SWEEP_QUERIES = 200_000  # ~750 wasted reads: a count steady to ~5% across seeds
SWEEP_BATCH = 2000


def run(seed: int, seconds: float, trace: bool):
    preload = make_keys(seed, N_PRELOAD)
    pre_sorted = np.sort(preload)
    blocks = max(2, int(BLOCKS_PER_SECOND * seconds))
    script = mutation_script(seed, pre_sorted, blocks=blocks, block=BLOCK)
    oracle = Oracle(pre_sorted, script.ops, script.keys)
    sweep = empty_sweep(seed, pre_sorted, SWEEP_QUERIES)
    span = np.uint64(RANGE_SIZE - 1)
    ops = script.ops.tolist()
    keys = script.keys.tolist()
    probes = [script.probes[b:b + 1] for b in range(blocks)]

    def build(i, speed):
        directory = common.fresh_dir(f"ingest-mixed-{i}")
        engine = common.build_engine(directory, "leveled")
        common.bulk_load(engine, preload, speed)

        def close():
            engine.close(checkpoint=False)
            shutil.rmtree(directory)
        return (engine, directory), close

    setup_s, (engine, directory), close = common.median_setup(build)
    rec = Recorder()
    layers = Layers(rec)
    if trace:
        layers.install()
    put, delete = engine.put, engine.delete
    verdicts = []
    # class -> (untraced, traced) call latencies
    lat = {name: ([], []) for name in ("put", "delete", "probe", "checkpoint")}
    ends = {name: ([], []) for name in lat}  # samples of each class by each block's end
    block_at = ([], [])  # (untraced, traced) block start times
    windows = []
    speed = Speed()
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    done = 0
    for b in range(blocks):
        # Every other block is traced, the phase flipping after each
        # checkpoint, so checkpoints fall on both sides of the overhead
        # ratio in turn.
        traced = trace and (b + b // CHECKPOINT_EVERY) % 2 == 1
        speed.sample()
        rec.enabled = traced
        block_start = time.perf_counter()
        block_at[traced].append(block_start)
        puts, deletes = lat["put"][traced], lat["delete"][traced]
        for i in range(b * BLOCK, (b + 1) * BLOCK):
            if ops[i] == DELETE:
                t0 = time.process_time()
                delete(keys[i])
                deletes.append(time.process_time() - t0)
            else:
                t0 = time.process_time()
                put(keys[i], b"w")
                puts.append(time.process_time() - t0)
        lo = probes[b]
        t0 = time.process_time()
        verdicts.append(engine.batch_range_empty(lo, lo + span))
        lat["probe"][traced].append(time.process_time() - t0)
        if (b + 1) % CHECKPOINT_EVERY == 0:
            t0 = time.perf_counter()
            engine.checkpoint()
            lat["checkpoint"][traced].append(time.perf_counter() - t0)
        rec.enabled = False
        for name in lat:
            ends[name][traced].append(len(lat[name][traced]))
        done = b + 1
        if traced:
            windows.append((block_start, time.perf_counter()))
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    gc.unfreeze()
    if done < blocks:
        common.log(f"window cap reached after {done} of {blocks} blocks")
    common.log(f"blocks={done} window_s={elapsed:.2f} runs={engine.run_count} "
               f"compaction_steps={engine.stats.compactions}")

    t_end = done * BLOCK
    wrong = sum(wrong_verdicts(verdicts[b], oracle.empty(probes[b], (b + 1) * BLOCK))
                for b in range(done))
    mutations = t_end

    def seconds_of(name, traced, scale=1.0):
        """``name``'s call times, each scaled by its block's ``scale``."""
        counts = np.diff(ends[name][traced], prepend=0)
        return np.asarray(lat[name][traced]) * np.repeat(np.broadcast_to(scale, counts.shape), counts)

    def ops_per_s(traced, scale=1.0):
        n_blocks = len(lat["probe"][traced])
        busy = sum(float(np.sum(seconds_of(name, traced, scale))) for name in lat)
        return n_blocks * (BLOCK + 1) / busy

    if trace:
        layers.uninstall()
        n_traced = len(lat["probe"][True])
        metrics, self_s = layer_metrics(rec.spans, rec.counters, windows,
                                        queries=n_traced, mutations=n_traced * BLOCK)
        metrics["trace.ops_per_s_ratio"] = ops_per_s(True) / ops_per_s(False)
        metrics["trace.p50_ratio"] = float(
            np.median(lat["probe"][True]) / np.median(lat["probe"][False]))
        print(layer_table(self_s, sum(b - a for a, b in windows)))
        rec.dump(common.WORK / f"trace-ingest-mixed-{seed}.json", windows=windows)
        close()
        return metrics, mutations + done, wrong

    wasted0 = engine.stats.wasted_reads
    swept = [engine.batch_range_empty(sweep[i:i + SWEEP_BATCH], sweep[i:i + SWEEP_BATCH] + span)
             for i in range(0, sweep.size, SWEEP_BATCH)]
    wasted = engine.stats.wasted_reads - wasted0
    wrong += wrong_verdicts(np.concatenate(swept), oracle.empty(sweep, t_end))
    engine.checkpoint()
    live = oracle.live_count(t_end)
    scale = speed.scale_at(block_at[False])
    ms = {name: seconds_of(name, False, scale) * 1e3 for name in lat}
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(False, scale),
        "p50_ms": common.sliced_pct(ms["probe"], 50, "p50_ms"),
        "p90_ms": common.sliced_pct(ms["probe"], 90, "p90_ms"),
        "low_p50_ms": common.sliced_pct(ms["put"], 50, "low_p50_ms"),
        "low_p90_ms": common.sliced_pct(ms["put"], 90, "low_p90_ms"),
        "high_p50_ms": common.sliced_pct(ms["delete"], 50, "high_p50_ms"),
        "high_p90_ms": common.sliced_pct(ms["delete"], 90, "high_p90_ms"),
        "wasted_reads_per_kq": wasted * 1e3 / sweep.size,
        "write_amp": engine.stats.write_amplification,
        "filter_bits_per_key": engine.filter_bits_total / live,
        "disk_bytes_per_key": common.dir_bytes(directory) / live,
        "peak_rss_mb": common.vmhwm_mb(),
        "ok_frac": 1.0 - wrong / (mutations + done + sweep.size),
    }
    common.log(f"samples: probes={len(ms['probe'])} puts={len(ms['put'])} "
               f"deletes={len(ms['delete'])} checkpoints={len(ms['checkpoint'])}")
    common.log(f"raw: ops_per_s={ops_per_s(False):.1f} p50_ms={np.median(lat['probe'][False]) * 1e3:.4f} "
               f"low_p50_ms={np.median(lat['put'][False]) * 1e3:.5f} kernel_ms={speed.kernel_s() * 1e3:.4f}")
    close()
    return metrics, mutations + done + sweep.size, wrong
