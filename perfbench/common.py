"""Shared pieces: engine construction, percentiles, process probes, output."""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from gen import RANGE_SIZE, UNIVERSE
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SHARDS = 4
BITS_PER_KEY = 16.0
FILTER_SEED = 42        # the engine CLI's default --seed
MEMTABLE_LIMIT = 2048   # the engine CLI's default --memtable-limit
FANOUT = 4              # the engine CLI's default --fanout
N_KEYS = 200_000        # keys in the probe-batch and net-zipf stores
SETUP_REPEATS = 3
LOAD_CHUNK = 10_000     # keys put between two reference-kernel samples

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("low_p50_ms", "ms"),
    ("low_p90_ms", "ms"),
    ("high_p50_ms", "ms"),
    ("high_p90_ms", "ms"),
    ("wasted_reads_per_kq", "count"),
    ("write_amp", "ratio"),
    ("filter_bits_per_key", "bits"),
    ("disk_bytes_per_key", "B"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]


def filter_spec():
    from repro.filters.registry import FilterSpec

    return FilterSpec(
        backend="grafite", bits_per_key=BITS_PER_KEY,
        max_range_size=RANGE_SIZE, seed=FILTER_SEED,
    )


def build_engine(directory: Path, compaction: str):
    """A persistent engine with the ``engine`` CLI defaults, planner on."""
    from repro.engine import BatchPlanner, ShardedEngine

    engine = ShardedEngine(
        UNIVERSE, num_shards=SHARDS, memtable_limit=MEMTABLE_LIMIT,
        compaction_fanout=FANOUT, filter_spec=filter_spec(),
        directory=directory, compaction=compaction,
    )
    engine.attach_planner(BatchPlanner())
    return engine


def bulk_load(engine, keys: np.ndarray, speed: Speed) -> None:
    """The CLI's bulk load: one put per key, flush, settle, checkpoint,
    sampling the reference kernel every ``LOAD_CHUNK`` keys and at the end."""
    keys = keys.tolist()
    for i in range(0, len(keys), LOAD_CHUNK):
        speed.sample()
        for key in keys[i:i + LOAD_CHUNK]:
            engine.put(key, b"v")
    engine.flush_all()
    engine.drain_compactions()
    engine.checkpoint()
    speed.sample()


def fresh_dir(name: str) -> Path:
    path = WORK / name
    if path.exists():
        shutil.rmtree(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def sliced_pct(values: Sequence[float], q: float, label: str) -> float:
    """Mean over consecutive slices of each slice's ``q``-th percentile,
    each slice holding enough samples to put ten beyond it (at least 50),
    leaving out the highest and the lowest tenth of the slices.

    The host's speed drifts within a run, and the scaling by the reference
    kernel (:mod:`speed`) follows it only roughly, so a whole-run
    percentile still flips between fast and slow stretches from run to
    run; averaging per-slice percentiles weighs the stretches by the time
    spent in each instead. The trim keeps a burst of slow calls, such as
    ingest-mixed's compaction steps landing together, from moving the
    mean: over six seeds it cut ingest-mixed's ``p90_ms`` spread from 0.15
    to 0.07 and moved the other workloads' spreads by 0.02 at most.
    ``values`` must be in the order the samples were taken."""
    arr = np.asarray(values, dtype=np.float64)
    per_slice = max(50, int(np.ceil(10 * 100 / (100 - q))))
    if arr.size < per_slice:
        raise RuntimeError(f"{label}: {arr.size} samples, need {per_slice}")
    parts = np.array_split(arr, arr.size // per_slice)
    pcts = np.sort([np.percentile(part, q) for part in parts])
    trim = len(pcts) // 10
    return float(np.mean(pcts[trim:len(pcts) - trim]))


def pin_to_cpu(which: int) -> None:
    """Pin this process to one CPU it may use (``0`` first, ``-1`` last),
    when it may use more than one; keeps a client and the server it
    drives from queueing behind each other's threads."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[which]})


def median_setup(build):
    """Run ``build(i, speed)`` ``SETUP_REPEATS`` times, each with a fresh
    :class:`Speed` that it samples; each returns ``(result, close)``.

    A build's time is its wall time less the kernel's, scaled by the
    kernel's speed during the build. Returns ``(median scaled seconds,
    last result, its close)``. Every build but the last is torn down
    through its ``close``, so only one engine is alive when timing starts.
    """
    raw: List[float] = []
    times: List[float] = []
    result = None
    for i in range(SETUP_REPEATS):
        if result is not None:
            result[1]()
        gc.collect()
        speed = Speed()
        t0 = time.perf_counter()
        result = build(i, speed)
        raw.append(time.perf_counter() - t0 - speed.spent)
        times.append(raw[-1] * speed.scale())
    log("setup_s samples: " + ", ".join(f"{t:.3f}" for t in times)
        + " (raw " + ", ".join(f"{t:.3f}" for t in raw) + ")")
    return statistics.median(times), result[0], result[1]


def scaled_ms(seconds: Sequence[float], scale: np.ndarray) -> np.ndarray:
    """Call times in ms, each scaled to the reference speed."""
    return np.asarray(seconds, dtype=np.float64) * scale * 1e3


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def emit(metrics: Dict[str, float], units: Dict[str, str], *, correct: bool,
         attempted: int, failed: int) -> None:
    """Print the human table, then the one-line JSON result (last line)."""
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
