"""Application-level benchmark: adversarial load on a filtered LSM store.

The paper motivates range filters as guards against unnecessary disk
reads in key-value stores (§1) and warns that a non-robust filter turns
into an availability risk under adversarial queries (§6.2, §6.7). This
bench closes the loop end-to-end:

* an LSM store holds the dataset across several on-"disk" runs, each
  guarded by the configured filter;
* an adaptive adversary who knows 10% of the keys issues empty range
  probes hugging them, re-targeting confirmed false positives;
* we report the disk reads per probe (the amplification the adversary
  buys) and the filter memory spent.

Expected: without a filter every probe reads each run whose key bounds
overlap it (the fence check before any filter is exact, so a run whose
keys all lie outside the probe is skipped by every store alike); with a
heuristic filter the adversary locks in ~the same (FPR -> 1); with
Grafite reads per probe stay at ~eps * runs.
"""

from __future__ import annotations

import functools

import _common
from _common import SEED, UNIVERSE, register_report
from repro.analysis.report import format_table
from repro.core.bucketing import Bucketing
from repro.core.grafite import Grafite
from repro.filters.surf import SuRF
from repro.workloads.adversary import KeyKnowledgeAdversary
from repro.workloads.datasets import uniform
from repro.lsm import LSMStore

N_KEYS = max(2000, int(20_000 * _common.SCALE))
N_PROBES = max(200, int(2_000 * _common.SCALE))
RANGE = 32
BITS_PER_KEY = 16


def _factory(kind: str):
    if kind == "none":
        return None
    if kind == "Grafite":
        return lambda keys, universe: Grafite(
            keys, universe, bits_per_key=BITS_PER_KEY, max_range_size=RANGE, seed=SEED
        )
    if kind == "Bucketing":
        return lambda keys, universe: Bucketing(
            keys, universe, bits_per_key=BITS_PER_KEY
        )
    if kind == "SuRF":
        return lambda keys, universe: SuRF(
            keys, universe, suffix_mode="real",
            suffix_bits=max(1, BITS_PER_KEY - 10), seed=SEED,
        )
    raise ValueError(kind)


@functools.lru_cache(maxsize=None)
def run_store(kind: str):
    import numpy as np

    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    adversary = KeyKnowledgeAdversary(keys, leaked_fraction=0.1, seed=SEED + 1)
    probes = adversary.craft_queries(N_PROBES, RANGE, UNIVERSE)
    store = LSMStore(
        UNIVERSE, memtable_limit=max(256, N_KEYS // 6), compaction_fanout=8,
        filter_factory=_factory(kind),
    )
    # Arrival order is random, as in a real ingest: every run spans the
    # whole keyspace, so filters (not key-range partitioning) decide
    # which runs a probe must read.
    arrival = keys[np.random.default_rng(SEED + 2).permutation(keys.size)]
    for key in arrival:
        store.put(int(key), b"v")
    store.flush()
    for lo, hi in probes:
        store.range_scan(lo, hi)
    stats = store.stats
    runs = store._runs()
    return {
        "runs": store.run_count,
        # (probe, run) pairs that pass the fence check: what a store with
        # no filter must read.
        "fence_overlaps": sum(
            run.overlaps(lo, hi) for lo, hi in probes for run in runs
        ),
        "filter_kib": store.filter_bits_total / 8 / 1024,
        "reads": stats.reads_performed,
        "avoided": stats.reads_avoided,
        "reads_per_probe": stats.reads_performed / N_PROBES,
    }


KINDS = ("none", "SuRF", "Bucketing", "Grafite")


def _report():
    rows = []
    for kind in KINDS:
        result = run_store(kind)
        rows.append(
            [
                kind,
                result["runs"],
                f"{result['filter_kib']:,.1f}",
                f"{result['reads']:,}",
                f"{result['avoided']:,}",
                f"{result['reads_per_probe']:.3f}",
            ]
        )
    register_report(
        "application_lsm_adversary",
        format_table(
            ["filter", "runs", "filter KiB", "disk reads", "avoided", "reads/probe"],
            rows,
            title=(
                f"LSM store under adversarial empty probes "
                f"({N_KEYS:,} keys, {N_PROBES:,} probes of size {RANGE})"
            ),
        ),
    )


def test_grafite_protects_the_store():
    _report()
    unfiltered = run_store("none")
    grafite = run_store("Grafite")
    # The unfiltered store reads every run whose key bounds overlap the
    # probe: the fence skips are exact, not filter work.
    assert unfiltered["reads"] == unfiltered["fence_overlaps"]
    # Grafite suppresses almost all of them (bound: runs * eps-ish).
    assert grafite["reads_per_probe"] < 0.15 * unfiltered["reads_per_probe"]


def test_heuristics_fail_under_adversary():
    grafite = run_store("Grafite")
    for kind in ("SuRF", "Bucketing"):
        result = run_store(kind)
        # Key-hugging probes defeat the heuristic: at minimum the run
        # holding the hugged key is read on (almost) every probe, and
        # Grafite beats it by well over an order of magnitude.
        assert result["reads_per_probe"] > 0.9, (kind, result)
        assert result["reads_per_probe"] > 20 * grafite["reads_per_probe"], (
            kind, result, grafite,
        )


def test_lsm_probe_benchmark(benchmark):
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    adversary = KeyKnowledgeAdversary(keys, leaked_fraction=0.1, seed=SEED + 1)
    probes = adversary.craft_queries(100, RANGE, UNIVERSE)
    store = LSMStore(
        UNIVERSE, memtable_limit=max(256, N_KEYS // 6), compaction_fanout=8,
        filter_factory=_factory("Grafite"),
    )
    for key in keys:
        store.put(int(key), b"v")
    store.flush()

    def probe_batch():
        for lo, hi in probes:
            store.range_scan(lo, hi)

    benchmark(probe_batch)
