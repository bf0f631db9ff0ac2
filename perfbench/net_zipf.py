"""``net-zipf``: Zipf-skewed batches through the network front door.

A benchmark-owned launcher (:mod:`server_child`) starts the server in a
child process with the ``serve --listen`` defaults over 200k keys in a
persistent engine, pinned to its own CPU with one query thread per CPU
it has. Set-up ends when the bulk load's compactions have drained and
the server answers a ping.

One client on another CPU runs a closed loop of BATCH frames in rounds
of 2000, 256 and 512 ranges. Ranges are drawn with Zipf(1.1) popularity
over 1024 hot ranges, even ranks holding a key and odd ranks correlated
empty ranges, so batches repeat ranges: the planner's dedup and negative
cache earn their keep here (on ``probe-batch`` they are pure cost), and
the block cache holds the hot set. A two-second warm-up fills both
caches before timing.

* ``p50_ms`` / ``p90_ms``: 2000-range frames; ``low_*``: 256-range frames;
  ``high_*``: 512-range frames — client round trips through the protocol,
  the server's dispatch and the service's fan-out. (64-range frames, as
  ``probe-batch`` uses, last ~3 ms, and their p90 moved by a fifth
  between runs with this host's stalls.)
* ``peak_rss_mb``: the server process's VmHWM;
* ``wasted_reads_per_kq``: repeats make a filter false positive a
  first-touch cost here (the negative cache remembers proven-empty
  ranges), so the rounds waste almost no reads; the metric comes from a
  closing sweep of fresh empty ranges (half correlated) in BATCH frames.

Open-loop single-range traffic at 300 and 1000 q/s was tried first: on
this 2-CPU host its p50 moved by a quarter and its p99 by 90% between
runs (quartile spread over ten seeds), because every request crosses
four threads and each hand-off stretches when the host stalls. Closed-
loop batches put enough work behind each hand-off to stay inside the
bounds, and pinning the server with a single query thread stops the
threads queueing behind each other for the interpreter lock.

Each frame wakes the server's CPU and then the client's. On this VM a
halted vCPU took up to 2-4 ms to wake at the 99th percentile, and that
tail moved with the host's load, so while the client runs an
idle-priority busy loop on each CPU keeps the vCPUs from halting (wake-up
p99 0.4-0.5 ms). At ``SCHED_IDLE`` the loops only take time nothing else
wants.

Before every round the client moves to the server's CPU to run the
reference kernel (:mod:`speed`) there, and each frame's time is scaled
by that CPU's speed within ``SPEED_WINDOW_S`` of the round. The client's
own CPU time is 1-2% of a frame's, so its CPU's speed is left out. Over
six seeds a two-second window halved the spread a half-second one left
here, where every sample carries a move between CPUs. Set-up is scaled
by the server child's kernel samples from its bulk load.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from repro.net import SyncClient

import common
from gen import RANGE_SIZE, empty_sweep, make_keys, zipf_batches, zipf_hot_set
from layers import layer_metrics, layer_table
from oracle import Oracle, wrong_verdicts
from spans import load_dump
from speed import Speed

N_HOT = 1024
SIZES = (2000, 256, 512)
MAIN, LOW, HIGH = SIZES
ROUNDS_PER_SECOND = 50  # inputs drawn up front; ~1.5x what this host uses
WARMUP_S = 2.0
CYCLES = 5  # traced runs trace every other fifth of the window
CHILD = Path(__file__).resolve().parent / "server_child.py"
READY_TIMEOUT = 120.0
SWEEP_QUERIES = 400_000  # ~750 wasted reads: a count steady to ~5% across seeds
SWEEP_BATCH = 2000
SPEED_WINDOW_S = 2.0
# Spins until its parent is gone, so a killed benchmark leaves none behind.
SPIN = """import os, sys
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    pass
"""


@contextlib.contextmanager
def idle_spinners(cpus):
    """An idle-priority busy loop on each of ``cpus`` while the block runs."""
    procs = [subprocess.Popen([sys.executable, "-c", SPIN, str(cpu)]) for cpu in cpus]
    try:
        yield
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


class Server:
    """One server child process and the files it owns."""

    def __init__(self, seed: int, index: int, speed: Speed) -> None:
        self.directory = common.fresh_dir(f"net-zipf-{index}")
        self.dump = common.WORK / f"net-zipf-{index}.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), "--seed", str(seed),
             "--dir", str(self.directory), "--dump", str(self.dump)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"server child did not start: {line!r}")
            _, self.host, port, samples = line.split(maxsplit=3)
            self.port = int(port)
            speed.absorb(samples)
            with SyncClient(self.host, self.port) as client:
                client.ping()
        except BaseException:
            self.kill()
            raise

    def stop(self) -> None:
        """Graceful shutdown (drain, checkpoint, close, dump)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60.0)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"server child exited with status {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def remove(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def run(seed: int, seconds: float, trace: bool):
    keys = make_keys(seed, common.N_KEYS)
    sorted_keys = np.sort(keys)
    hot = zipf_hot_set(seed, sorted_keys, N_HOT)
    rounds = int(ROUNDS_PER_SECOND * (seconds + WARMUP_S))
    batches = zipf_batches(seed, hot, list(SIZES) * rounds)
    sweep = None if trace else empty_sweep(seed, sorted_keys, SWEEP_QUERIES)
    span = np.uint64(RANGE_SIZE - 1)

    def build(i, speed):
        server = Server(seed, i, speed)

        def close():
            server.stop()
            server.remove()
        return server, close

    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[-1]  # where the server pins itself
    speed = Speed()
    verdicts = []
    lat = {size: ([], []) for size in SIZES}  # size -> (untraced, traced)
    round_at = ([], [])  # (untraced, traced) round start times
    # Traced stretches as the client saw them: from its first request
    # after the server started recording to its last response before it
    # stopped, so the signals' settling time stays out of the windows.
    windows = []
    setup_s, server, close = common.median_setup(build)
    try:
        common.pin_to_cpu(0)  # after set-up: the server children inherit affinity
        with idle_spinners(cpus), SyncClient(server.host, server.port) as client:
            used = 0
            start = time.perf_counter()
            while time.perf_counter() - start < WARMUP_S:
                speed.sample(server_cpu)
                for _ in SIZES:
                    lo = batches[used]
                    used += 1
                    verdicts.append(client.batch_range_empty(lo, lo + span))
            first = used
            gc.collect()
            gc.freeze()
            recording = False
            start = last_end = time.perf_counter()
            while used + len(SIZES) <= len(batches):
                now = time.perf_counter()
                if now - start >= seconds:
                    break
                traced = trace and int((now - start) * CYCLES / seconds) % 2 == 1
                if traced != recording:
                    if recording:
                        windows[-1][1] = last_end
                    server.proc.send_signal(signal.SIGUSR1 if traced else signal.SIGUSR2)
                    time.sleep(0.2)
                    recording = traced
                    if recording:
                        windows.append([time.perf_counter(), 0.0])
                if not traced:  # keep the kernel out of the traced windows
                    speed.sample(server_cpu)
                round_at[traced].append(time.perf_counter())
                for size in SIZES:
                    lo = batches[used]
                    used += 1
                    t0 = time.perf_counter()
                    verdicts.append(client.batch_range_empty(lo, lo + span))
                    last_end = time.perf_counter()
                    lat[size][traced].append(last_end - t0)
            elapsed = time.perf_counter() - start
            gc.unfreeze()
            if recording:
                windows[-1][1] = last_end
                server.proc.send_signal(signal.SIGUSR2)
                time.sleep(0.2)
            common.log(f"rounds={(used - first) // len(SIZES)} window_s={elapsed:.2f}")
            if not trace:
                before = client.stats()
                swept = np.concatenate([
                    client.batch_range_empty(sweep[i:i + SWEEP_BATCH], sweep[i:i + SWEEP_BATCH] + span)
                    for i in range(0, sweep.size, SWEEP_BATCH)])
                after = client.stats()
        peak_rss = common.vmhwm_mb(server.proc.pid)
        server.stop()
        dump = load_dump(server.dump)
        disk = common.dir_bytes(server.directory)
    finally:
        server.kill()
        server.remove()

    oracle = Oracle(sorted_keys)
    wrong = wrong_verdicts(np.concatenate(verdicts), oracle.empty(np.concatenate(batches[:used])))
    attempted = sum(batch.size for batch in batches[:used])

    def qps(traced, scale=1.0):
        n = sum(size * len(lat[size][traced]) for size in SIZES)
        return n / sum(float(np.sum(np.asarray(lat[size][traced]) * scale)) for size in SIZES)

    if trace:
        dump["windows"] = windows
        with open(common.WORK / f"trace-net-zipf-{seed}.json", "w") as fh:
            json.dump(dump, fh)
        counters = dump["counters"]
        metrics, self_s = layer_metrics(dump["spans"], counters, windows,
                                        queries=counters.get("queries", 0), mutations=0)
        metrics["trace.ops_per_s_ratio"] = qps(True) / qps(False)
        metrics["trace.p50_ratio"] = float(np.median(lat[MAIN][True]) / np.median(lat[MAIN][False]))
        print(layer_table(self_s, sum(b - a for a, b in windows)))
        return metrics, attempted, wrong

    wrong += wrong_verdicts(swept, oracle.empty(sweep))
    attempted += sweep.size
    scale = speed.scale_at(round_at[False], SPEED_WINDOW_S)
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
        "wasted_reads_per_kq": (after["io"]["wasted_reads"] - before["io"]["wasted_reads"])
        * 1e3 / sweep.size,
        "write_amp": after["io"]["write_amplification"],
        "filter_bits_per_key": after["engine"]["filter_bits"] / common.N_KEYS,
        "disk_bytes_per_key": disk / common.N_KEYS,
        "peak_rss_mb": peak_rss,
        "ok_frac": 1.0 - wrong / attempted,
    }
    common.log("samples: " + ", ".join(f"{s}-range frames={len(ms[s])}" for s in SIZES))
    common.log(f"raw: ops_per_s={qps(False):.1f} p50_ms={np.median(lat[MAIN][False]) * 1e3:.3f} "
               f"kernel_ms={speed.kernel_s() * 1e3:.4f}")
    return metrics, attempted, wrong
