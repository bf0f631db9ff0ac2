"""Ablations of Grafite's design choices (beyond the paper's figures).

Four studies isolating why each ingredient of §3 is there:

1. **Pairwise-independent hashing** — replace the Wegman-Carter block
   hash with a constant offset (so ``h(x) = x mod r``). Lemma 3.1's
   collision bound dies, and an adversary issuing queries congruent to
   the keys modulo ``r`` drives the FPR to 1; the real hash keeps it at
   ``eps``. This is the distribution-free guarantee made falsifiable.
2. **Elias-Fano vs uncompressed codes** — same hash codes in a plain
   sorted ``uint64`` array with binary search: identical answers, ~4-5x
   the space at typical budgets. Quantifies what the succinct encoding
   buys.
3. **Power-of-two reduced universe** (the §7 string-extension knob) —
   rounding ``r`` up to ``2^k`` costs nothing measurable in FPR and at
   most a fraction of a bit per key.
4. **Bucketing's coarseness knob** — sweeping ``s`` maps the whole
   space/FPR trade-off curve of §4.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import _common
from _common import N_QUERIES, SEED, UNIVERSE, register_report
from repro.analysis.fpr import measure_fpr
from repro.analysis.report import format_table
from repro.analysis.timing import time_queries
from repro.core.bucketing import Bucketing
from repro.core.grafite import Grafite, hashed_query_intervals
from repro.core.hashing import LocalityPreservingHash
from repro.workloads.datasets import uniform
from repro.workloads.queries import uncorrelated_queries

N_KEYS = max(1000, int(10_000 * _common.SCALE))
L = 32
EPS = 0.01


class _ConstantBlockHash(LocalityPreservingHash):
    """Ablated hash: q(block) == 0, i.e. ``h(x) = x mod r``."""

    def hash_block(self, block: int) -> int:
        return 0

    def __call__(self, x: int) -> int:
        return int(x) % self.reduced_universe

    def hash_many(self, keys):
        arr = np.asarray(list(keys) if not isinstance(keys, np.ndarray) else keys,
                         dtype=np.uint64)
        return arr % np.uint64(self.reduced_universe)


def _residue_attack_workload(r: int, n_queries: int):
    """Keys and empty queries sharing residues modulo ``r``.

    Key ``i`` sits at ``i*r + 5``; query ``j`` covers ``[j*r+4, j*r+6]``
    in key-free blocks. Under ``h(x) = x mod r`` every query interval
    contains the shared residue 5, so every answer is a false positive.
    """
    keys = np.arange(1, N_KEYS + 1, dtype=np.uint64) * np.uint64(r) + np.uint64(5)
    free_blocks = np.arange(N_KEYS + 10, N_KEYS + 10 + n_queries)
    queries = [(int(b) * r + 4, int(b) * r + 6) for b in free_blocks]
    return keys, queries


@functools.lru_cache(maxsize=None)
def ablation_hash_family():
    # The adversary aligns its residues to the filter's own reduced
    # universe r = ceil(n L / eps), which is public (it follows from the
    # advertised parameters — no secret besides the hash draw).
    import math

    r = math.ceil(N_KEYS * L / EPS)
    keys, queries = _residue_attack_workload(r, N_QUERIES)
    universe = int(keys.max()) + (N_QUERIES + 64) * r

    real = Grafite(keys, universe, eps=EPS, max_range_size=L, seed=SEED)
    assert real.reduced_universe == r
    weak = Grafite(keys, universe, eps=EPS, max_range_size=L, seed=SEED)
    weak_hash = _ConstantBlockHash(r, domain=universe, seed=SEED)
    # Rebuild the weak filter's codes under the ablated hash.
    from repro.succinct.elias_fano import EliasFano

    weak._hash = weak_hash
    weak._ef = EliasFano(np.unique(weak_hash.hash_many(keys)), universe=r)
    return (
        measure_fpr(real, queries).fpr,
        measure_fpr(weak, queries).fpr,
        EPS,
    )


class UncompressedCodes:
    """Grafite with the Elias-Fano swapped for a raw sorted array."""

    def __init__(self, source: Grafite, keys: np.ndarray) -> None:
        self._r = source.reduced_universe
        self._hash = source._hash
        self._codes = np.unique(self._hash.hash_many(keys))
        self._n = source.key_count
        self._universe = source.universe

    @property
    def size_in_bits(self) -> int:
        return int(self._codes.size) * 64

    def may_contain_range(self, lo: int, hi: int) -> bool:
        if hi - lo + 1 >= self._r:
            return True
        for c, d in hashed_query_intervals(self._hash, self._r, lo, hi):
            idx = int(np.searchsorted(self._codes, c))
            if idx < self._codes.size and int(self._codes[idx]) <= d:
                return True
        return False


@functools.lru_cache(maxsize=None)
def ablation_storage():
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    queries = uncorrelated_queries(N_QUERIES, L, UNIVERSE, keys=keys, seed=SEED + 1)
    ef_filter = Grafite(keys, UNIVERSE, eps=EPS, max_range_size=L, seed=SEED)
    raw_filter = UncompressedCodes(ef_filter, keys)
    agreement = all(
        ef_filter.may_contain_range(lo, hi) == raw_filter.may_contain_range(lo, hi)
        for lo, hi in queries
    )
    return {
        "agreement": agreement,
        "ef_bits_per_key": ef_filter.size_in_bits / ef_filter.key_count,
        "raw_bits_per_key": raw_filter.size_in_bits / ef_filter.key_count,
        "ef_ns": time_queries(ef_filter, queries).ns_per_op,
        "raw_ns": time_queries(raw_filter, queries).ns_per_op,
    }


@functools.lru_cache(maxsize=None)
def ablation_power_of_two():
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    queries = tuple(
        uncorrelated_queries(N_QUERIES, L, UNIVERSE, keys=keys, seed=SEED + 2)
    )
    exact_r = Grafite(keys, UNIVERSE, eps=EPS, max_range_size=L, seed=SEED)
    pow2_r = Grafite(
        keys, UNIVERSE, eps=EPS, max_range_size=L, seed=SEED,
        power_of_two_universe=True,
    )
    return {
        "exact_fpr": measure_fpr(exact_r, queries).fpr,
        "pow2_fpr": measure_fpr(pow2_r, queries).fpr,
        "exact_bpk": exact_r.bits_per_key,
        "pow2_bpk": pow2_r.bits_per_key,
    }


@functools.lru_cache(maxsize=None)
def ablation_bucket_size():
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    queries = uncorrelated_queries(N_QUERIES, L, UNIVERSE, keys=keys, seed=SEED + 3)
    rows = []
    for log_s in (0, 8, 16, 24, 32, 40):
        filt = Bucketing(keys, UNIVERSE, bucket_size=1 << log_s)
        rows.append(
            (1 << log_s, filt.bits_per_key, measure_fpr(filt, queries).fpr)
        )
    return tuple(rows)


def _report():
    real_fpr, weak_fpr, eps = ablation_hash_family()
    storage = ablation_storage()
    pow2 = ablation_power_of_two()
    buckets = ablation_bucket_size()
    sections = [
        format_table(
            ["variant", "FPR under residue-aligned adversary"],
            [
                ["pairwise-independent q (paper)", f"{real_fpr:.3e}"],
                ["constant q (h = x mod r)", f"{weak_fpr:.3e}"],
                ["design eps", f"{eps:.3e}"],
            ],
            title="Ablation 1 — why the hash family matters (Lemma 3.1)",
        ),
        format_table(
            ["storage", "bits/key", "ns/query", "answers agree"],
            [
                ["Elias-Fano (paper)", f"{storage['ef_bits_per_key']:.2f}",
                 f"{storage['ef_ns']:,.0f}", str(storage["agreement"])],
                ["raw sorted uint64", f"{storage['raw_bits_per_key']:.2f}",
                 f"{storage['raw_ns']:,.0f}", str(storage["agreement"])],
            ],
            title="Ablation 2 — Elias-Fano vs uncompressed codes",
        ),
        format_table(
            ["reduced universe", "bits/key", "FPR"],
            [
                ["r = ceil(nL/eps) (paper)", f"{pow2['exact_bpk']:.2f}", f"{pow2['exact_fpr']:.3e}"],
                ["r = 2^k (string variant)", f"{pow2['pow2_bpk']:.2f}", f"{pow2['pow2_fpr']:.3e}"],
            ],
            title="Ablation 3 — power-of-two reduced universe (§7)",
        ),
        format_table(
            ["bucket size s", "bits/key", "FPR (uncorrelated)"],
            [[f"2^{int(np.log2(s))}", f"{bpk:.2f}", f"{fpr:.3e}"] for s, bpk, fpr in buckets],
            title="Ablation 4 — Bucketing's coarseness knob (§4)",
        ),
    ]
    register_report("ablation_design_choices", "\n\n".join(sections))


def test_ablation_hash_family_is_load_bearing():
    real_fpr, weak_fpr, eps = ablation_hash_family()
    _report()
    assert weak_fpr > 0.99, "constant-offset hash must be fully exploitable"
    assert real_fpr <= 3 * eps + 5.0 / N_QUERIES


def test_ablation_elias_fano_saves_space_same_answers():
    storage = ablation_storage()
    assert storage["agreement"], "storage backends must answer identically"
    assert storage["raw_bits_per_key"] > 3 * storage["ef_bits_per_key"]


def test_ablation_power_of_two_is_cheap():
    pow2 = ablation_power_of_two()
    # Rounding r up can only shrink FPR; space grows by < 1.1 bits/key.
    assert pow2["pow2_fpr"] <= pow2["exact_fpr"] + 5.0 / N_QUERIES
    assert pow2["pow2_bpk"] <= pow2["exact_bpk"] + 1.1


def test_ablation_bucketing_tradeoff_curve():
    rows = ablation_bucket_size()
    sizes = [bpk for _, bpk, _ in rows]
    fprs = [fpr for _, _, fpr in rows]
    # space decreases monotonically with s, FPR weakly increases.
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert fprs[0] <= fprs[-1]
    assert fprs[-1] > 0.5  # one giant bucket filters nothing


def test_ablation_benchmark_ef_vs_raw(benchmark):
    keys = uniform(N_KEYS, UNIVERSE, seed=SEED)
    queries = uncorrelated_queries(200, L, UNIVERSE, keys=keys, seed=SEED + 4)
    filt = Grafite(keys, UNIVERSE, eps=EPS, max_range_size=L, seed=SEED)
    benchmark(_common.run_query_batch, filt, queries)
