"""Tests for the pluggable compaction-policy subsystem.

Four layers:

* policy mechanics — what each policy plans and what executing its
  steps does to the level topology (tiered cascades, leveled slicing
  invariants, the full-merge default reproducing the seed behaviour);
* boundedness — a leveled/tiered step rewrites only its planned inputs,
  measured through the new ``IoStats`` write counters, and a filter
  rebuild on a sliced store goes one slice per step;
* correctness under churn — every policy answers point/range/emptiness
  queries identically to a dict model across flush/compact interleavings
  (the differential harness covers the engine/service stack; this file
  covers the bare store where steps can be single-stepped);
* the compaction hook: a deferred store announces pressure through its
  ``compaction_hook`` at a flush and at an explicit request, and an
  engine's writes that do not flush never poll for it.
"""

import numpy as np
import pytest

from repro.core.grafite import Grafite
from repro.errors import InvalidParameterError
from repro.lsm.compaction import (
    FullMergePolicy,
    LeveledPolicy,
    TieredPolicy,
    policy_names,
    resolve_policy,
    slice_spans,
)
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTable, merge_columns, split_columns
from repro.lsm.store import LSMStore

UNIVERSE = 2**24


def grafite_factory(keys, universe):
    return Grafite(keys, universe, bits_per_key=12, max_range_size=64, seed=11)


def make_store(policy, *, mem=64, fanout=3, auto=False, factory=None, **kw):
    return LSMStore(
        UNIVERSE,
        memtable_limit=mem,
        compaction_fanout=fanout,
        filter_factory=factory,
        auto_compact=auto,
        compaction_policy=policy,
        **kw,
    )


def fill(store, keys, value=b"v"):
    for k in keys:
        store.put(int(k), value)


def drain_steps(store):
    """Single-step the store to settlement; returns per-step write deltas."""
    deltas = []
    while store.needs_compaction:
        before = store.stats.entries_compacted
        if not store.compact_step():
            break
        deltas.append(store.stats.entries_compacted - before)
    return deltas


def model_of(entries):
    model = {}
    for k, v in entries:
        model[k] = v
    return model


# ----------------------------------------------------------------------
# Registry / resolution
# ----------------------------------------------------------------------
def test_policy_registry_roundtrip():
    assert policy_names() == ["full", "leveled", "tiered"]
    for name in policy_names():
        policy = resolve_policy(name)
        assert policy.name == name
        again = resolve_policy(policy.to_params())
        assert again.to_params() == policy.to_params()
    assert resolve_policy(None).name == "full"
    leveled = LeveledPolicy(slice_target=123)
    assert resolve_policy(leveled.to_params()).slice_target == 123
    with pytest.raises(InvalidParameterError):
        resolve_policy("lsm-tree")
    with pytest.raises(InvalidParameterError):
        resolve_policy({"name": "nope"})
    with pytest.raises(InvalidParameterError):
        resolve_policy(42)
    with pytest.raises(InvalidParameterError):
        LeveledPolicy(slice_target=0)


# ----------------------------------------------------------------------
# Full merge: the seed behaviour
# ----------------------------------------------------------------------
def test_full_merge_is_single_step_single_bottom():
    store = make_store(FullMergePolicy(), mem=8, fanout=3)
    fill(store, range(0, 100, 3))
    store.flush()
    assert store.needs_compaction
    deltas = drain_steps(store)
    assert len(deltas) == 1  # one monolithic step, exactly the seed merge
    assert store.bottom_run is not None
    assert store.level0_runs == ()
    assert len(store.bottom_run) == len(store)


def test_full_merge_drops_tombstones_and_applies_new_factory():
    store = make_store(None, mem=1000, fanout=2, factory=None)
    fill(store, range(50))
    store.delete(7)
    store.flush()
    store.set_filter_factory(grafite_factory)
    store.request_filter_rebuild()
    drain_steps(store)
    bottom = store.bottom_run
    assert bottom is not None and bottom.filter is not None
    assert store.get(7) is None and store.get(8) == b"v"
    assert all(v is not TOMBSTONE for _, v in bottom.entries())


# ----------------------------------------------------------------------
# Tiered
# ----------------------------------------------------------------------
def test_tiered_merges_one_level_per_step():
    store = make_store(TieredPolicy(), mem=4, fanout=3)
    # 3 flushes fill L0; the step pushes one merged run into L1 — deeper
    # levels only appear as L1 itself reaches the fanout.
    fill(store, range(12))
    store.flush()
    deltas = drain_steps(store)
    assert len(deltas) == 1
    assert len(store.level0_runs) == 0
    assert [len(level) for level in store.levels] == [1]
    # Two more rounds: L1 accumulates; the third L1 run triggers a cascade.
    for base in (100, 200, 300, 400, 500, 600):
        fill(store, range(base, base + 12))
        store.flush()
        drain_steps(store)
    assert store.needs_compaction is False
    # Every key is still visible through the tiers.
    for base in (0, 100, 200, 300, 400, 500, 600):
        assert store.get(base + 5) == b"v"
    # Tombstones survive until a merge owns the oldest data.
    store.delete(5)
    store.flush()
    assert store.get(5) is None


def test_tiered_levels_keep_recency_order():
    store = make_store(TieredPolicy(), mem=2, fanout=2)
    store.put(1, "old")
    store.put(2, "x")      # flush 1
    drain_steps(store)
    store.put(1, "newer")
    store.put(3, "y")      # flush 2
    drain_steps(store)
    store.put(1, "newest")
    store.put(4, "z")      # flush 3
    drain_steps(store)
    assert store.get(1) == "newest"


def test_tiered_request_compaction_converges_to_one_run():
    store = make_store(TieredPolicy(), mem=4, fanout=3)
    for base in range(0, 60, 12):
        fill(store, range(base, base + 12))
        store.flush()
        drain_steps(store)
    assert sum(len(level) for level in store.levels) > 1
    store.request_compaction()
    drain_steps(store)
    assert store.bottom_run is not None
    assert [len(level) for level in store.levels] == [1]


# ----------------------------------------------------------------------
# Leveled: slicing invariants
# ----------------------------------------------------------------------
def leveled_store(slice_target=32, mem=64, fanout=3, factory=None):
    return make_store(
        LeveledPolicy(slice_target=slice_target), mem=mem, fanout=fanout,
        factory=factory,
    )


def assert_slice_invariants(store):
    """Slices are key-sorted and their owning spans tile the universe."""
    assert len(store.levels) <= 1
    if not store.levels:
        return
    slices = store.levels[0]
    spans = slice_spans(slices, store.universe)
    assert spans[0][0] == 0
    assert spans[-1][1] == store.universe - 1
    for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
        assert hi_a + 1 == lo_b  # gap-free, non-overlapping tiling
    for run, (lo, hi) in zip(slices, spans):
        bounds = run.key_bounds
        if bounds is None:
            continue  # an emptied span keeps an empty placeholder slice
        assert lo <= bounds[0] and bounds[1] <= hi  # keys inside the span


def test_leveled_first_merge_creates_sliced_level():
    store = leveled_store(slice_target=16, mem=16)
    fill(store, range(0, 640, 5))
    store.flush()
    drain_steps(store)
    assert_slice_invariants(store)
    slices = store.levels[0]
    assert len(slices) > 1
    assert all(len(s) <= 32 for s in slices)
    assert all(s.slice_bounds is not None for s in slices)


def test_leveled_merge_touches_only_overlapping_slices():
    store = leveled_store(slice_target=32, mem=128, fanout=2)
    # Settle a wide sliced level first.
    fill(store, range(0, 4096, 4))
    store.flush()
    drain_steps(store)
    slices_before = {run.uid: run for run in store.levels[0]}
    assert len(slices_before) >= 8
    # Now insert a narrow cluster: only slices owning that band may move.
    fill(store, range(100, 140))
    fill(store, range(2000, 2040))
    store.flush()
    store.request_compaction()
    before = store.stats.entries_compacted
    drain_steps(store)
    touched_entries = store.stats.entries_compacted - before
    assert touched_entries < len(store) / 2, (
        "a clustered L0 push-down rewrote most of the store"
    )
    survivors = [run.uid for run in store.levels[0] if run.uid in slices_before]
    assert survivors, "no slice survived a narrow merge untouched"
    assert_slice_invariants(store)
    # Everything is still queryable.
    assert store.get(100) == b"v" and store.get(2036) == b"v"
    assert store.get(101) == b"v"  # pre-existing key in a touched band
    assert not store.range_empty(2000, 2039)


def test_leveled_tombstones_drop_at_slices():
    store = leveled_store(slice_target=16, mem=8, fanout=2)
    fill(store, range(0, 64, 2))
    store.flush()
    drain_steps(store)
    store.delete(10)
    store.delete(12)
    store.flush()
    store.request_compaction()
    drain_steps(store)
    assert store.get(10) is None and store.get(12) is None
    for level in store.levels:
        for run in level:
            assert all(v is not TOMBSTONE for _, v in run.entries())


def test_leveled_newest_l0_shadows_slices_mid_compaction():
    """Single-stepping between flushes never lets older data resurface."""
    store = leveled_store(slice_target=8, mem=4, fanout=2)
    model = {}
    rng = np.random.default_rng(3)
    for i in range(400):
        k = int(rng.integers(0, 256))
        if rng.random() < 0.2:
            store.delete(k)
            model.pop(k, None)
        else:
            store.put(k, i)
            model[k] = i
        if rng.random() < 0.15:
            store.compact_step()  # interleave single bounded steps
        if rng.random() < 0.05:
            store.flush()
        # Continuous checking: reads race the stepped topology changes.
        probe = int(rng.integers(0, 256))
        assert store.get(probe) == model.get(probe), f"op {i}"
    store.flush()
    drain_steps(store)
    assert_slice_invariants(store)
    got = model_of(store.range_scan(0, UNIVERSE - 1))
    assert got == model


# ----------------------------------------------------------------------
# Partial filter rebuilds (the auto-tune seam)
# ----------------------------------------------------------------------
def test_leveled_filter_rebuild_goes_slice_by_slice():
    store = leveled_store(slice_target=32, mem=512, factory=grafite_factory)
    fill(store, range(0, 2048, 2))
    store.flush()
    store.request_compaction()  # push L0 down even below the fanout
    drain_steps(store)
    slices = store.levels[0]
    assert len(slices) >= 8
    sizes = sorted(len(s) for s in slices)
    store.request_filter_rebuild()
    deltas = drain_steps(store)
    # One bounded step per slice: each delta is one slice's rewrite, so
    # the largest lock hold is a slice, never the shard.
    assert len(deltas) == len(slices)
    assert max(deltas) <= max(sizes)
    assert sum(deltas) == sum(len(s) for s in slices)
    assert_slice_invariants(store)
    # The rebuild converged and left nothing tagged.
    assert not store.stale_filter_uids
    assert not store.needs_compaction


def test_rebuild_skips_runs_already_rewritten_by_merges():
    store = leveled_store(slice_target=16, mem=16, fanout=2, factory=grafite_factory)
    fill(store, range(0, 256, 2))
    store.flush()
    store.request_filter_rebuild()
    # The L0 push-down that runs first consumes the tagged L0 runs, so
    # the rebuild steps afterwards cover only what the merge missed —
    # never a double rewrite.
    drain_steps(store)
    assert not store.stale_filter_uids
    total_written = store.stats.entries_compacted
    assert total_written <= 2 * len(store)  # merge once + at most one rebuild


def test_stale_tags_for_vanished_runs_are_pruned():
    store = make_store(FullMergePolicy(), mem=8, fanout=2)
    fill(store, range(16))
    store.flush()
    store.request_filter_rebuild()
    store.compact()  # rewrites everything, clearing the tags en passant
    assert not store.stale_filter_uids
    assert not store.needs_compaction


# ----------------------------------------------------------------------
# Differential model check across policies (bare store, stepped)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["full", "tiered", "leveled"])
@pytest.mark.parametrize("with_filter", [False, True])
def test_store_matches_model_under_policy(policy, with_filter):
    rng = np.random.default_rng(20260731)
    store = LSMStore(
        4096,
        memtable_limit=16,
        compaction_fanout=3,
        filter_factory=grafite_factory if with_filter else None,
        auto_compact=False,
        compaction_policy=(
            LeveledPolicy(slice_target=24) if policy == "leveled" else policy
        ),
    )
    model = {}
    for i in range(2500):
        roll = rng.random()
        key = int(rng.integers(0, 4096))
        if roll < 0.5:
            store.put(key, i)
            model[key] = i
        elif roll < 0.65:
            store.delete(key)
            model.pop(key, None)
        elif roll < 0.8:
            assert store.get(key) == model.get(key), f"op {i}"
        elif roll < 0.92:
            hi = min(4095, key + int(rng.integers(1, 200)))
            want = not any(key <= k <= hi for k in model)
            assert store.range_empty(key, hi) == want, f"op {i}"
        elif roll < 0.97:
            store.flush()
        else:
            store.compact_step()
    store.flush()
    store.compact()
    assert model_of(store.range_scan(0, 4095)) == model


# ----------------------------------------------------------------------
# The compaction hook (deferred stores)
# ----------------------------------------------------------------------
def test_flush_renotifies_pending_compaction_request():
    """request_compaction() then a flush under auto_compact=False used to
    leave needs_compaction stranded when no engine was watching; flush()
    must fire the compaction hook so an external scheduler hears it."""
    heard = []
    store = make_store(FullMergePolicy(), mem=4, fanout=100, auto=False)
    store.compaction_hook = heard.append
    fill(store, range(4))  # memtable-limit flush, below the fanout
    assert store.level0_runs
    assert not heard  # no pressure yet: fanout 100 is far away
    store.request_compaction()
    fill(store, range(10, 14))  # the next flush must surface the request
    assert heard and heard[-1] is store
    # And the seam an engine wires: the hook drives a scheduler notify.
    from repro.engine import CompactionScheduler

    scheduler = CompactionScheduler()
    store.compaction_hook = lambda s: scheduler.notify(0, s)
    fill(store, range(20, 24))
    assert scheduler.pending_shards == (0,)
    assert scheduler.drain() >= 1
    assert not store.needs_compaction


def test_engine_wires_flush_hook_to_scheduler():
    """Engine-managed shards get the hook automatically: a rebuild
    request surfaces at the next flush even when the flush was not
    driven through an engine mutation."""
    from repro.engine import ShardedEngine

    engine = ShardedEngine(UNIVERSE, num_shards=1, memtable_limit=4,
                           compaction_fanout=100)
    for k in range(4):
        engine.put(k, b"v")
    engine.drain_compactions()
    store = engine.shards[0]
    store.request_compaction()
    # A direct store flush (not routed through the engine) still lands
    # the shard in the engine's queue via the hook.
    for k in range(10, 14):
        store.put(k, b"v")
    assert 0 in engine.scheduler.pending_shards
    assert engine.drain_compactions() >= 1
    assert not store.needs_compaction


def test_writes_that_do_not_flush_never_poll_pressure(monkeypatch):
    """Pressure rises only on a flush, a clock advance or an explicit
    request, so puts and deletes that leave every memtable below its
    limit never ask a shard whether it needs compaction."""
    from repro.engine import ShardedEngine

    engine = ShardedEngine(UNIVERSE, num_shards=2, memtable_limit=64,
                           compaction_fanout=100)
    for k in range(64):
        engine.put(k, b"v")  # one flush: shard 0 now holds a run
    asked = []
    needs = LSMStore.needs_compaction
    monkeypatch.setattr(
        LSMStore, "needs_compaction",
        property(lambda store: asked.append(store) or needs.fget(store)),
    )
    for k in range(40):
        engine.put(k * 1000, b"w")
    for k in range(0, 40, 3):
        engine.delete(k * 1000)  # existing keys: the memtable stays at 40
    assert asked == []
    engine.flush_all()  # a flush is where pressure can rise
    assert asked


@pytest.mark.parametrize(
    "request_name", ["request_compaction", "request_filter_rebuild"]
)
def test_explicit_request_queues_the_shard_at_once(request_name):
    """An explicit request announces itself through the hook: the shard
    is queued before any later write or flush."""
    from repro.engine import ShardedEngine

    engine = ShardedEngine(UNIVERSE, num_shards=2, memtable_limit=8,
                           compaction_fanout=100)
    for k in range(8):
        engine.put(k, b"v")  # one flush into shard 0, far below the fanout
    assert engine.shards[0].level0_runs
    assert engine.scheduler.pending_shards == ()
    getattr(engine.shards[0], request_name)()
    assert engine.scheduler.pending_shards == (0,)
    assert engine.drain_compactions() >= 1
    assert not engine.shards[0].needs_compaction


# ----------------------------------------------------------------------
# Columnar merge: one lexsort, newest wins, span clipping
# ----------------------------------------------------------------------
def merged_entries(runs, **kw):
    columns = merge_columns(runs, **kw)
    (run,) = split_columns(columns, (0, columns.keys.size))
    return SSTable.from_columns(*run, UNIVERSE).entries()


def test_merge_columns_is_span_clipped():
    new = SSTable([(1, "n1"), (5, "n5"), (9, "n9")], UNIVERSE)
    old = SSTable([(1, "o1"), (3, "o3"), (9, "o9"), (12, "o12")], UNIVERSE)
    merged = merged_entries([new, old], drop_tombstones=False, span=(2, 9))
    assert merged == [(3, "o3"), (5, "n5"), (9, "n9")]
    assert new.io_reads == old.io_reads == 1  # one read per input per unit


def test_merge_columns_tombstone_newest_wins():
    new = SSTable([(1, TOMBSTONE), (2, "keep")], UNIVERSE)
    old = SSTable([(1, "old"), (3, "other")], UNIVERSE)
    kept = merged_entries([new, old], drop_tombstones=True)
    assert kept == [(2, "keep"), (3, "other")]
    raw = merged_entries([new, old], drop_tombstones=False)
    assert raw[0] == (1, TOMBSTONE)


# ----------------------------------------------------------------------
# Deep leveled tree (L2+): budgets, push-downs, placeholder hygiene
# ----------------------------------------------------------------------
def deep_policy(slice_target=32, level_fanout=4, l1_budget=64):
    return LeveledPolicy(
        slice_target=slice_target,
        level_fanout=level_fanout,
        l1_budget=l1_budget,
    )


def assert_levels_tile(store):
    """Every deep level's owning spans must partition [0, universe)."""
    for li, level in enumerate(store.levels):
        if not level:
            continue
        spans = slice_spans(level, store.universe)
        assert spans[0][0] == 0, f"L{li + 1} spans start at {spans[0]}"
        assert spans[-1][1] == store.universe - 1, f"L{li + 1} spans end early"
        for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
            assert prev_hi + 1 == lo, f"gap/overlap in L{li + 1} at {prev_hi}"


def test_deep_params_roundtrip_and_validation():
    policy = LeveledPolicy(slice_target=64, level_fanout=4, l1_budget=256)
    again = resolve_policy(policy.to_params())
    assert again.to_params() == policy.to_params()
    assert policy.level_budget(1) == 256
    assert policy.level_budget(3) == 256 * 16
    # No l1_budget means *unbudgeted*: the exact pre-deep topology.
    assert LeveledPolicy(slice_target=64).level_budget(1) is None
    assert LeveledPolicy(slice_target=64).to_params()["l1_budget"] is None
    with pytest.raises(InvalidParameterError):
        LeveledPolicy(level_fanout=1)
    with pytest.raises(InvalidParameterError):
        LeveledPolicy(l1_budget=0)


def test_unbudgeted_leveled_keeps_single_sliced_level():
    """Backward compatibility: without a budget the tree never grows L2,
    no matter how much data accumulates."""
    store = make_store(LeveledPolicy(slice_target=32), mem=16, fanout=3)
    fill(store, range(0, 6000, 3))
    store.flush()
    drain_steps(store)
    assert len(store.levels) == 1
    assert_levels_tile(store)


def test_budget_pressure_grows_deep_levels_within_budgets():
    store = make_store(deep_policy(), mem=16, fanout=3)
    rng = np.random.default_rng(17)
    fill(store, np.unique(rng.integers(0, UNIVERSE, 1500)))
    store.flush()
    drain_steps(store)
    assert len(store.levels) >= 2, "budget pressure never built L2+"
    policy = store.compaction_policy
    for li, level in enumerate(store.levels[:-1]):
        size = sum(len(run) for run in level)
        assert size <= policy.level_budget(li + 1), (
            f"L{li + 1} holds {size} entries over its budget"
        )
    assert_levels_tile(store)
    # level_stats mirrors the same topology, budgets included.
    rows = store.level_stats()
    assert rows[0]["level"] == 0
    for row in rows[1:]:
        if row["entries"]:
            assert row["budget"] == policy.level_budget(row["level"])


def test_pushdown_steps_are_bounded_and_preserve_tiling():
    """Each budget push-down rewrites one victim slice plus only the
    slices it overlaps one level down — never the whole level — and the
    span tiling of every level survives every intermediate step."""
    store = make_store(deep_policy(), mem=16, fanout=3)
    rng = np.random.default_rng(23)
    fill(store, np.unique(rng.integers(0, UNIVERSE, 1200)))
    store.flush()
    total = len(store)
    saw_pushdown = False
    while store.needs_compaction:
        l0_push = bool(store.level0_runs)  # an L0 push may take all of L0
        before = store.stats.entries_compacted
        if not store.compact_step():
            break
        delta = store.stats.entries_compacted - before
        if not l0_push:
            # Budget push-down: one victim slice plus the slices it
            # overlaps one level down — never the whole store.
            saw_pushdown = True
            assert delta < max(1, total // 2), (
                f"a single push-down rewrote {delta} of {total} entries"
            )
        assert_levels_tile(store)
    assert saw_pushdown, "workload never exercised a budget push-down"


def test_deep_pushdowns_coalesce_empty_placeholders():
    """Evacuated slices leave empty placeholders to keep the tiling;
    adjacent placeholders must fuse so a level's run count tracks its
    live data instead of its eviction history."""
    store = make_store(deep_policy(), mem=16, fanout=3)
    rng = np.random.default_rng(29)
    fill(store, np.unique(rng.integers(0, UNIVERSE, 1500)))
    store.flush()
    drain_steps(store)
    for level in store.levels:
        spans = slice_spans(level, store.universe)
        for (a, b), (a_span, b_span) in zip(
            zip(level, level[1:]), zip(spans, spans[1:])
        ):
            adjacent = a_span[1] + 1 == b_span[0]
            assert not (adjacent and len(a) == 0 and len(b) == 0), (
                "two adjacent empty placeholder slices survived coalescing"
            )
    assert_levels_tile(store)


def test_deep_tombstones_survive_until_deepest_level():
    """A delete must go on shadowing older versions below it: tombstones
    may only be dropped by steps whose output is the deepest data."""
    store = make_store(deep_policy(), mem=16, fanout=3)
    rng = np.random.default_rng(31)
    keys = np.unique(rng.integers(0, UNIVERSE, 1200))
    fill(store, keys)
    store.flush()
    drain_steps(store)  # push a population to the deep levels
    victims = [int(k) for k in keys[::7]]
    for k in victims:
        store.delete(k)
    store.flush()
    drain_steps(store)
    for k in victims:
        assert store.get(k) is None
        assert store.range_empty(k, k)
    survivors = {int(k) for k in keys} - set(victims)
    for k in list(survivors)[::97]:
        assert not store.range_empty(k, k)


def test_deep_store_matches_model_under_churn():
    rng = np.random.default_rng(20260808)
    store = LSMStore(
        4096,
        memtable_limit=16,
        compaction_fanout=3,
        filter_factory=None,
        auto_compact=False,
        compaction_policy=LeveledPolicy(
            slice_target=24, level_fanout=2, l1_budget=48
        ),
    )
    model = {}
    for i in range(2500):
        roll = rng.random()
        key = int(rng.integers(0, 4096))
        if roll < 0.5:
            store.put(key, i)
            model[key] = i
        elif roll < 0.65:
            store.delete(key)
            model.pop(key, None)
        elif roll < 0.8:
            assert store.get(key) == model.get(key), f"op {i}"
        elif roll < 0.92:
            hi = min(4095, key + int(rng.integers(1, 200)))
            want = not any(key <= k <= hi for k in model)
            assert store.range_empty(key, hi) == want, f"op {i}"
        elif roll < 0.97:
            store.flush()
        else:
            store.compact_step()
    store.flush()
    store.compact()
    assert model_of(store.range_scan(0, 4095)) == model
    assert len(store.levels) >= 2, "churn never exercised the deep tree"
