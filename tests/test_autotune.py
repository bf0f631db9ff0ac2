"""Auto-tuner policy, churn-exactness, and adversarial-serving tests.

Three layers:

* policy unit tests — the decision table (robust fallback, probation
  with exponential backoff, bits escalation, heuristic adoption) on a
  synthetic engine;
* a churn test — the standing exactness requirement: while the tuner
  flips backends across flushes and compactions, every batched probe
  must keep matching a sorted-array oracle bit for bit;
* the new scenario class — the §6.7 adaptive adversary replayed against
  the *served engine* (not a bare filter): a heuristic backend bleeds
  wasted reads, the robust default does not, and the auto-tuned engine
  converges to the robust default under fire.
"""

import numpy as np
import pytest

from repro.engine import AutoTunePolicy, AutoTuner, RangeQueryService, ShardedEngine
from repro.errors import InvalidParameterError
from repro.filters.registry import FilterSpec
from repro.workloads.adversary import AdaptiveAdversary

# Sparse universe: SNARF's learned slots are then coarser than the
# adversary's key-hugging offset, which is the regime where the paper's
# Figure 3 collapse (and thus the tuner's fallback) actually manifests.
UNIVERSE = 2**34
SEED = 77


def _keys(n=8000, seed=SEED):
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, UNIVERSE, n, dtype=np.uint64))


def _empty_ranges_near_keys(keys, count, width, seed):
    """Correlated (adversarial) empty ranges hugging keys from the right."""
    rng = np.random.default_rng(seed)
    picks = keys[rng.integers(0, keys.size, count * 2)]
    los = (picks + 1).astype(np.uint64)
    his = np.minimum(los + width - 1, UNIVERSE - 1)
    idx = np.minimum(np.searchsorted(keys, los), keys.size - 1)
    hit = keys[idx] >= los
    hit &= keys[idx] <= his
    los, his = los[~hit], his[~hit]
    return los[:count], his[:count]


def _uncorrelated_ranges(keys, count, width, seed):
    rng = np.random.default_rng(seed)
    los = rng.integers(0, UNIVERSE - width, count, dtype=np.uint64)
    his = los + width - 1
    return los, his


def _oracle_empty(keys, los, his):
    idx = np.minimum(np.searchsorted(keys, los), keys.size - 1)
    hit = (keys[idx] >= los) & (keys[idx] <= his)
    return ~hit


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(InvalidParameterError):
        AutoTunePolicy(robust_backend="surf")  # not adversarial-safe
    with pytest.raises(InvalidParameterError):
        AutoTunePolicy(min_window=0)
    with pytest.raises(InvalidParameterError):
        AutoTunePolicy(robust_fp_threshold=0.01, heuristic_fp_threshold=0.05)


def _tuned_engine(backend, *, min_window=128, **policy_kwargs):
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=1024,
        # 16 bits/key puts Grafite's design epsilon (~2e-3 at L=32) under
        # the readoption threshold, so clean traffic can win back the
        # heuristic once probation is served.
        filter_spec=FilterSpec(backend=backend, bits_per_key=16, seed=SEED),
    )
    tuner = AutoTuner(AutoTunePolicy(min_window=min_window, **policy_kwargs))
    engine.attach_autotuner(tuner)
    return engine, tuner


def test_heuristic_falls_back_to_robust_under_correlation():
    keys = _keys()
    engine, tuner = _tuned_engine("snarf")
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    los, his = _empty_ranges_near_keys(keys, 2000, 16, SEED + 1)
    assert engine.batch_range_empty(los, his).all()
    assert tuner.backend_counts() == {"grafite": 2}
    directions = {(d.previous.backend, d.chosen.backend) for d in tuner.decisions}
    assert directions == {("snarf", "grafite")}
    # The rebuild request converges existing runs to the new backend.
    engine.drain_compactions()
    for store in engine.shards:
        assert store.bottom_run is not None
        assert store.bottom_run.filter.name == "Grafite"


def test_probation_blocks_immediate_heuristic_retry():
    keys = _keys()
    engine, tuner = _tuned_engine("snarf")
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    cor_lo, cor_hi = _empty_ranges_near_keys(keys, 1500, 16, SEED + 2)
    assert engine.batch_range_empty(cor_lo, cor_hi).all()
    assert tuner.backend_counts() == {"grafite": 2}
    # Two uncorrelated windows: probation (initial sentence = 2) holds.
    unc_lo, unc_hi = _uncorrelated_ranges(keys, 1500, 16, SEED + 3)
    engine.batch_range_empty(unc_lo, unc_hi)
    assert tuner.backend_counts() == {"grafite": 2}
    engine.batch_range_empty(unc_lo, unc_hi)
    assert tuner.backend_counts() == {"grafite": 2}
    # Probation served: the next clean window readopts the heuristic.
    engine.batch_range_empty(unc_lo, unc_hi)
    assert tuner.backend_counts() == {"snarf": 2}


def test_robust_engine_buys_bits_when_wasteful():
    keys = _keys()
    # A deliberately starved Grafite (4 bits/key at range 256) pays
    # visible false positives even on honest traffic.
    engine = ShardedEngine(
        UNIVERSE, num_shards=1, memtable_limit=8192,
        filter_spec=FilterSpec(
            backend="grafite", bits_per_key=4, max_range_size=256, seed=SEED
        ),
    )
    tuner = AutoTuner(AutoTunePolicy(min_window=128))
    engine.attach_autotuner(tuner)
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    los, his = _uncorrelated_ranges(keys, 3000, 256, SEED + 4)
    engine.batch_range_empty(los, his)
    bits = [d.chosen.bits_per_key for d in tuner.decisions]
    assert bits and bits[0] > 4, tuner.decisions
    assert tuner.current_spec(0).backend == "grafite"


def test_retarget_on_leveled_shard_rebuilds_slice_by_slice():
    """ISSUE 5 acceptance: an AutoTuner backend switch on a leveled shard
    must converge through bounded per-slice rebuild steps — each step's
    write volume (IoStats.entries_compacted delta) is one slice, never
    the shard — and slices already under the new backend are not
    rebuilt again."""
    from repro.lsm import LeveledPolicy

    keys = _keys(9000)
    engine = ShardedEngine(
        UNIVERSE, num_shards=1, memtable_limit=4096,
        filter_spec=FilterSpec(backend="snarf", bits_per_key=16, seed=SEED),
        compaction=LeveledPolicy(slice_target=512),
    )
    tuner = AutoTuner(AutoTunePolicy(min_window=128))
    engine.attach_autotuner(tuner)
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    store = engine.shards[0]
    store.request_compaction()
    store.compact()  # settle the sliced level before the attack
    slices = store.levels[0]
    assert len(slices) > 4, "need a genuinely sliced shard"
    max_slice = max(len(s) for s in slices)
    # Adversarial traffic: the tuner evicts SNARF for the robust default
    # and tags the existing slices for rebuild.
    los, his = _empty_ranges_near_keys(keys, 2000, 16, SEED + 40)
    assert engine.batch_range_empty(los, his).all()
    assert tuner.backend_counts() == {"grafite": 1}
    tagged = store.stale_filter_uids
    assert tagged, "the switch should tag the live slices as stale"
    # Drain one bounded step at a time, measuring each step's rewrite.
    deltas = []
    while store.needs_compaction:
        before = store.stats.entries_compacted
        if engine.drain_compactions(max_steps=1) == 0:
            break
        deltas.append(store.stats.entries_compacted - before)
    assert len(deltas) >= len(tagged) > 1
    assert max(deltas) <= max_slice, (
        f"a rebuild step rewrote {max(deltas)} entries — more than one "
        f"slice ({max_slice}); the switch must not merge the whole shard"
    )
    assert sum(deltas) <= 2 * len(store), deltas
    for run in store.levels[0]:
        if run.filter is not None:
            assert run.filter.name == "Grafite"
    # Converged: nothing further to rebuild, and a fresh drain is a no-op.
    assert not store.stale_filter_uids
    before_total = store.stats.entries_compacted
    engine.drain_compactions()
    assert store.stats.entries_compacted == before_total


# ----------------------------------------------------------------------
# Churn exactness
# ----------------------------------------------------------------------
def test_exactness_while_tuner_churns_backends():
    """Backend switches across flushes/compactions never change answers."""
    keys = _keys(6000)
    key_set = set(int(k) for k in keys)
    engine, tuner = _tuned_engine("snarf", min_window=96)
    live = np.sort(np.asarray(sorted(key_set), dtype=np.uint64))
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    rng = np.random.default_rng(SEED + 5)
    phases = ["correlated", "uncorrelated", "uncorrelated",
              "uncorrelated", "uncorrelated", "correlated"]
    for i, phase in enumerate(phases):
        # Interleaved writes: new runs are built under the current spec,
        # and tombstones cross backend generations.
        fresh = rng.integers(0, UNIVERSE, 200, dtype=np.uint64)
        for j, key in enumerate(fresh):
            if j % 5 == 4:
                engine.delete(int(key))
                key_set.discard(int(key))
            else:
                engine.put(int(key), b"w")
                key_set.add(int(key))
        live = np.asarray(sorted(key_set), dtype=np.uint64)
        if phase == "correlated":
            los, his = _empty_ranges_near_keys(live, 800, 16, SEED + 10 + i)
        else:
            los, his = _uncorrelated_ranges(live, 800, 16, SEED + 10 + i)
        got = engine.batch_range_empty(los, his)
        want = _oracle_empty(live, los, his)
        assert got.tolist() == want.tolist(), f"divergence in phase {i} ({phase})"
    switches = {(d.previous.backend, d.chosen.backend) for d in tuner.decisions}
    assert ("snarf", "grafite") in switches, tuner.decisions
    assert ("grafite", "snarf") in switches, tuner.decisions


def test_exactness_under_served_autotune(tmp_path):
    """The serving layer drives the same churn through its thread pool
    (background compaction worker included) — `serve --autotune`'s path."""
    keys = _keys(5000)
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=512,
        filter_spec=FilterSpec(backend="snarf", bits_per_key=12, seed=SEED),
        directory=tmp_path / "db",
    )
    engine.attach_autotuner(AutoTuner(AutoTunePolicy(min_window=96)))
    with RangeQueryService(engine, num_threads=4, cache_blocks=256) as service:
        key_set = set()
        for key in keys:
            service.put(int(key), b"v")
            key_set.add(int(key))
        service.flush_all()
        # Let the background worker drain the post-flush compactions: the
        # tuner discards windows observed over a pending rebuild, so the
        # correlated phase must start on a settled run set to count.
        assert service.wait_for_compactions(timeout=10.0)
        rng = np.random.default_rng(SEED + 6)
        for i, phase in enumerate(["correlated", "uncorrelated", "uncorrelated"]):
            live = np.asarray(sorted(key_set), dtype=np.uint64)
            if phase == "correlated":
                los, his = _empty_ranges_near_keys(live, 700, 16, SEED + 20 + i)
            else:
                los, his = _uncorrelated_ranges(live, 700, 16, SEED + 20 + i)
            got = service.batch_range_empty(los, his)
            want = _oracle_empty(live, los, his)
            assert got.tolist() == want.tolist(), f"phase {i} diverged"
        assert service.wait_for_compactions(timeout=10.0)
        tuner = engine.autotuner
        assert any(
            d.previous.backend == "snarf" and d.chosen.backend == "grafite"
            for d in tuner.decisions
        ), tuner.decisions


# ----------------------------------------------------------------------
# Adversarial workloads against the served engine (new scenario class)
# ----------------------------------------------------------------------
def _loaded_engine(backend, keys, autotune=False, min_window=128):
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=2048,
        filter_spec=FilterSpec(backend=backend, bits_per_key=12, seed=SEED),
    )
    if autotune:
        engine.attach_autotuner(AutoTuner(AutoTunePolicy(min_window=min_window)))
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    return engine


def test_adversary_amplifies_heuristic_but_not_robust_serving():
    keys = _keys()
    adversary_args = dict(rounds=3, queries_per_round=300, range_size=16)
    heuristic = _loaded_engine("snarf", keys)
    robust = _loaded_engine("grafite", keys)
    report_h = AdaptiveAdversary(keys, leaked_fraction=0.2, seed=SEED).attack_system(
        heuristic, universe=UNIVERSE, **adversary_args
    )
    report_r = AdaptiveAdversary(keys, leaked_fraction=0.2, seed=SEED).attack_system(
        robust, universe=UNIVERSE, **adversary_args
    )
    # The paper's qualitative claim at system level: correlated probes
    # drive the heuristic's wasted-read rate out of proportion while the
    # robust default stays near its design epsilon.
    assert report_h.final_fpr > 0.5, report_h.per_round_fpr
    assert report_r.final_fpr < 0.1, report_r.per_round_fpr


def test_autotuned_serving_recovers_from_adversary():
    keys = _keys()
    engine = _loaded_engine("snarf", keys, autotune=True)
    report = AdaptiveAdversary(keys, leaked_fraction=0.2, seed=SEED).attack_system(
        engine, universe=UNIVERSE, rounds=4, queries_per_round=400, range_size=16
    )
    # Scalar probes feed IoStats but not the batch observer, so kick the
    # tuner with one observed batch of the same adversarial traffic.
    los, his = _empty_ranges_near_keys(keys, 600, 16, SEED + 30)
    assert engine.batch_range_empty(los, his).all()
    tuner = engine.autotuner
    assert tuner.backend_counts() == {"grafite": 2}, (
        report.per_round_fpr, tuner.decisions
    )
    # Under the rebuilt robust runs the same attack stream loses its bite.
    engine.drain_compactions()
    after = AdaptiveAdversary(keys, leaked_fraction=0.2, seed=SEED).attack_system(
        engine, universe=UNIVERSE, rounds=2, queries_per_round=300, range_size=16
    )
    assert after.final_fpr < 0.1, after.per_round_fpr
