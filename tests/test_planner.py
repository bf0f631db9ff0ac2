"""Tests for the batch query planner (dedup, negative cache, dispatch).

The planner's contract is exactness: every pass — dedup scatter-back,
negative-cache replay under the version/memtable validity conditions —
must leave the verdict column bit-identical to the unplanned executor.
The suites here check the passes in isolation (plan_batch /
NegativeRangeCache / choose_mode units) and end to end (hypothesis
equivalence against a planner-less twin engine, cache invalidation
through real flushes and writes).
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchPlanner,
    NegativeRangeCache,
    RangeQueryService,
    ShardedEngine,
    plan_batch,
)
from repro.engine import planner as planner_mod
from repro.engine.batch import SCALAR_CUTOFF
from repro.engine.planner import PROCESS_FLOOR, _merge_intervals
from repro.filters import FilterSpec

UNIVERSE = 2**24
U64_MAX = 2**64 - 1


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=10, max_range_size=64, seed=5)


def build_engine(keys, *, num_shards=4, universe=UNIVERSE, planner=None):
    engine = ShardedEngine(
        universe, num_shards=num_shards, memtable_limit=64,
        filter_spec=GRAFITE_SPEC,
    )
    for k in keys:
        engine.put(int(k), "v")
    engine.flush_all()
    if planner is not None:
        engine.attach_planner(planner)
    return engine


def u64(values):
    return np.asarray(values, dtype=np.uint64)


#: Copies per range in the planner integration batches: a batch of at
#: most ``SCALAR_CUTOFF`` ranges takes the straight path and never meets
#: the planner, while the dedup pass folds the copies back into one
#: range, so the negative cache sees exactly the distinct ranges.
PLANNED = SCALAR_CUTOFF + 1


def planned(values):
    """``values`` as a ``uint64`` column, each repeated ``PLANNED`` times."""
    return np.repeat(u64(values), PLANNED)


# ----------------------------------------------------------------------
# The dedup pass
# ----------------------------------------------------------------------
class TestPlanBatch:
    def test_dedup_and_inverse_scatter(self):
        los = u64([10, 5, 10, 5, 300])
        his = u64([20, 8, 20, 8, 301])
        plan = plan_batch(los, his)
        assert plan.n_queries == 5 and plan.n_unique == 3
        np.testing.assert_array_equal(plan.uniq_lo, [5, 10, 300])
        np.testing.assert_array_equal(plan.uniq_hi, [8, 20, 301])
        # Scattering unique verdicts back lands them at original slots.
        verdicts = np.array([True, False, True])
        np.testing.assert_array_equal(
            verdicts[plan.inverse], [False, True, False, True, True]
        )

    def test_empty_batch(self):
        plan = plan_batch(u64([]), u64([]))
        assert plan.n_queries == 0 and plan.n_unique == 0
        assert plan.inverse.size == 0

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 50)),
            min_size=0, max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_structure_invariants(self, pairs):
        los = u64([lo for lo, _ in pairs])
        his = u64([lo + w for lo, w in pairs])
        plan = plan_batch(los, his)
        # Uniques are lexsorted and distinct.
        if plan.n_unique > 1:
            key = plan.uniq_lo.astype(object) * 10**6 + plan.uniq_hi
            assert bool((key[1:] > key[:-1]).all())
        # The inverse map reproduces the original columns exactly.
        np.testing.assert_array_equal(plan.uniq_lo[plan.inverse], los)
        np.testing.assert_array_equal(plan.uniq_hi[plan.inverse], his)


class TestMergeIntervals:
    def test_merges_and_sorts(self):
        los, his = _merge_intervals(u64([50, 0, 10, 30]), u64([60, 12, 20, 49]))
        np.testing.assert_array_equal(los, [0, 30])
        np.testing.assert_array_equal(his, [20, 60])

    def test_empty(self):
        los, his = _merge_intervals(u64([]), u64([]))
        assert los.size == 0 and his.size == 0

    def test_uint64_top_edge(self):
        # Bounds hugging 2**64 - 1 must not overflow the adjacency test:
        # [MAX-10, MAX-5] and [MAX-4, MAX] are adjacent and coalesce.
        los, his = _merge_intervals(
            u64([U64_MAX - 10, U64_MAX - 4, 0]),
            u64([U64_MAX - 5, U64_MAX, 1]),
        )
        np.testing.assert_array_equal(los, [0, U64_MAX - 10])
        np.testing.assert_array_equal(his, [1, U64_MAX])

    def test_disjoint_ranges_stay_separate(self):
        # A gap of exactly 2 must NOT merge ([0,5] and [8,10]).
        los, his = _merge_intervals(u64([0, 8]), u64([5, 10]))
        np.testing.assert_array_equal(los, [0, 8])
        np.testing.assert_array_equal(his, [5, 10])


def test_executor_is_asked_each_distinct_pair_once():
    # Exact duplicates, plus overlapping ([0,10]/[5,20]), adjacent
    # ([21,30]) and contained ([120,130], [140,150] in [100,200])
    # ranges: the executor sees exactly the distinct pairs, never a
    # widened range, and each member keeps its own verdict.
    keys = np.array([3, 125], dtype=np.uint64)
    los = u64([0, 5, 21, 100, 120, 5, 0, 140, 120, 300])
    his = u64([10, 20, 30, 200, 130, 20, 10, 150, 130, 300])
    asked = []

    def executor(q_lo, q_hi):
        asked.extend(zip(q_lo.tolist(), q_hi.tolist()))
        return np.array([
            not ((keys >= lo) & (keys <= hi)).any()
            for lo, hi in zip(q_lo, q_hi)
        ])

    verdict = BatchPlanner().execute(los, his, executor)
    assert sorted(asked) == sorted(set(zip(los.tolist(), his.tolist())))
    np.testing.assert_array_equal(
        verdict,
        [False, True, True, False, False, True, False, True, False, True],
    )


# ----------------------------------------------------------------------
# The negative cache
# ----------------------------------------------------------------------
class TestNegativeRangeCache:
    def test_containment_lookup(self):
        cache = NegativeRangeCache()
        cache.record(0, 7, u64([100]), u64([200]))
        hits = cache.lookup(0, 7, u64([150, 100, 90, 150]),
                            u64([160, 200, 95, 201]))
        # Contained and exact ranges hit; outside / overhanging miss.
        np.testing.assert_array_equal(hits, [True, True, False, False])
        assert cache.hits == 2 and cache.misses == 2
        assert cache.hit_rate == pytest.approx(0.5)

    def test_version_mismatch_never_hits(self):
        cache = NegativeRangeCache()
        cache.record(0, 7, u64([100]), u64([200]))
        assert not cache.lookup(0, 8, u64([150]), u64([160])).any()
        assert not cache.lookup(1, 7, u64([150]), u64([160])).any()

    def test_version_monotone_record(self):
        cache = NegativeRangeCache()
        cache.record(0, 7, u64([100]), u64([200]))
        # Older proof: dropped.
        cache.record(0, 6, u64([300]), u64([400]))
        assert not cache.lookup(0, 6, u64([300]), u64([400])).any()
        assert not cache.lookup(0, 7, u64([300]), u64([400])).any()
        # Newer proof: replaces wholesale and counts an invalidation.
        cache.record(0, 9, u64([500]), u64([600]))
        assert cache.invalidations == 1
        assert not cache.lookup(0, 9, u64([150]), u64([160])).any()
        assert cache.lookup(0, 9, u64([550]), u64([560])).all()

    def test_same_version_records_merge(self):
        cache = NegativeRangeCache()
        cache.record(0, 3, u64([0, 20]), u64([10, 30]))
        cache.record(0, 3, u64([11]), u64([19]))  # bridges the gap
        assert cache.n_intervals == 1
        assert cache.lookup(0, 3, u64([5]), u64([25])).all()

    @pytest.mark.parametrize("seed", range(40))
    def test_record_folds_like_merge_intervals_of_the_concatenation(self, seed):
        """Folding a batch into a sorted disjoint entry (sorting only the
        batch) gives exactly ``_merge_intervals`` of everything recorded:
        adjacent intervals fuse, contained ones vanish, ``2**64-1`` holds."""
        rng = np.random.default_rng(seed)
        top = 2**64 - 1
        points = np.concatenate((
            u64([0, 1, 2, top - 2, top - 1, top]),
            rng.integers(0, 80, 30).astype(np.uint64),
        ))
        cache = NegativeRangeCache(capacity=10**6)
        all_lo, all_hi = u64([]), u64([])
        for step in range(8):
            # Odd steps record batches, even steps one range (a single
            # probe's proof).
            m = int(rng.integers(2, 8)) if step % 2 else 1
            a, b = rng.choice(points, m), rng.choice(points, m)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            if step and rng.random() < 0.5:  # abut or sit inside an old one
                k = int(rng.integers(0, all_lo.size))
                inside = all_hi[k] == top or rng.random() < 0.5
                lo[-1] = all_lo[k] if inside else all_hi[k] + np.uint64(1)
                hi[-1] = all_hi[k] if inside else max(lo[-1], hi[-1])
            cache.record(0, 5, lo, hi)
            all_lo, all_hi = np.append(all_lo, lo), np.append(all_hi, hi)
            want_lo, want_hi = _merge_intervals(all_lo, all_hi)
            _, got_lo, got_hi = cache._shards[0]
            assert got_lo.dtype == got_hi.dtype == np.uint64
            np.testing.assert_array_equal(got_lo, want_lo)
            np.testing.assert_array_equal(got_hi, want_hi)

    def test_full_entry_takes_no_new_proofs_until_the_version_changes(self):
        cache = NegativeRangeCache(capacity=2)
        # Three disjoint, non-adjacent intervals: the first two are kept.
        cache.record(0, 1, u64([0, 200, 400]), u64([100, 202, 450]))
        assert cache.n_intervals == 2
        assert cache.lookup(0, 1, u64([0, 200]), u64([100, 202])).all()
        assert not cache.lookup(0, 1, u64([410]), u64([420])).any()
        # Full at the live version: a further proof is not taken in.
        cache.record(0, 1, u64([600]), u64([700]))
        assert cache.n_intervals == 2
        assert not cache.lookup(0, 1, u64([650]), u64([650])).any()
        # A newer version starts the entry afresh.
        cache.record(0, 2, u64([600]), u64([700]))
        assert cache.n_intervals == 1
        assert cache.lookup(0, 2, u64([650]), u64([650])).all()

    def test_zero_capacity_disables_recording(self):
        cache = NegativeRangeCache(capacity=0)
        cache.record(0, 1, u64([0]), u64([10]))
        assert cache.n_intervals == 0

    def test_clear(self):
        cache = NegativeRangeCache()
        cache.record(0, 1, u64([0]), u64([10]))
        cache.record(1, 1, u64([0]), u64([10]))
        cache.clear()
        assert cache.n_intervals == 0
        assert not cache.lookup(1, 1, u64([5]), u64([6])).any()


# ----------------------------------------------------------------------
# Worker-or-local dispatch
# ----------------------------------------------------------------------
class TestChooseMode:
    def _ranges(self, n, start=1_000):
        los = u64(range(start, start + 100 * n, 100))
        return los, los + np.uint64(10)

    def test_thread_mode_is_local_without_probing_memtable(self, monkeypatch):
        def no_probe(*args):
            raise AssertionError("thread mode probed the memtable")

        monkeypatch.setattr(planner_mod, "memtable_overlaps", no_probe)
        planner = BatchPlanner()
        store = build_engine([5]).shards[0]
        for n in (1, PROCESS_FLOOR, 500):
            q_lo, q_hi = self._ranges(n)
            assert planner.choose_mode(
                store, q_lo, q_hi, process_available=False
            ) == "local"
        assert planner.stats_snapshot()["modes"] == {"local": 3, "process": 0}

    def test_process_needs_the_size_floor(self, monkeypatch):
        probed = []

        def overlaps(store, q_lo, q_hi):
            probed.append(q_lo.size)
            return np.zeros(q_lo.size, dtype=bool)

        monkeypatch.setattr(planner_mod, "memtable_overlaps", overlaps)
        planner = BatchPlanner()
        store = build_engine([5]).shards[0]
        small = self._ranges(PROCESS_FLOOR - 1)
        assert planner.choose_mode(
            store, *small, process_available=True
        ) == "local"
        assert probed == []  # below the floor the overlap is never probed
        full = self._ranges(PROCESS_FLOOR)
        assert planner.choose_mode(
            store, *full, process_available=True
        ) == "process"
        assert probed == [PROCESS_FLOOR]

    def test_process_needs_a_clean_memtable(self):
        planner = BatchPlanner()
        engine = build_engine([], num_shards=1)
        store = engine.shards[0]
        q_lo, q_hi = self._ranges(PROCESS_FLOOR)
        assert planner.choose_mode(
            store, q_lo, q_hi, process_available=True
        ) == "process"
        # Unflushed writes inside most of the ranges: a snapshot worker
        # would bounce them back, so the sub-batch stays local.
        for lo in q_lo[: PROCESS_FLOOR * 3 // 4]:
            engine.put(int(lo) + 5, "x")
        assert len(store._memtable) > 0
        assert planner.choose_mode(
            store, q_lo, q_hi, process_available=True
        ) == "local"


# ----------------------------------------------------------------------
# End-to-end equivalence and cache invalidation
# ----------------------------------------------------------------------
def duplicate_heavy_batches():
    """Batches built from a small pool of ranges, sampled with heavy
    repetition — the planner's target shape."""
    pool = st.lists(
        st.tuples(st.integers(0, UNIVERSE - 1), st.integers(0, 4096)),
        min_size=1, max_size=12,
    )
    return pool.flatmap(
        lambda p: st.lists(
            st.sampled_from(p), min_size=0, max_size=64
        )
    )


@pytest.mark.parametrize(
    "planner_kwargs",
    [
        {},  # full pipeline
        {"cache_capacity": 0},  # no negative cache
    ],
    ids=["full", "no-cache"],
)
@given(batch=duplicate_heavy_batches(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_planned_equals_unplanned(planner_kwargs, batch, data):
    """Every planner variant must be bit-identical to the raw engine."""
    n_keys = data.draw(st.sampled_from([0, 50, 400]))
    num_shards = data.draw(st.sampled_from([1, 4]))
    keys = np.unique(
        np.random.default_rng(n_keys + num_shards).integers(
            0, UNIVERSE, n_keys, dtype=np.uint64
        )
    )
    plain = build_engine(keys, num_shards=num_shards)
    planned = build_engine(
        keys, num_shards=num_shards, planner=BatchPlanner(**planner_kwargs)
    )
    los = u64([lo for lo, _ in batch])
    his = u64([min(lo + w, UNIVERSE - 1) for lo, w in batch])
    want = plain.batch_range_empty(los, his)
    # Twice: the second round replays negative-cache entries.
    for _ in range(2):
        np.testing.assert_array_equal(
            planned.batch_range_empty(los, his), want
        )


class TestPlannerEngineIntegration:
    def test_second_batch_hits_negative_cache(self):
        planner = BatchPlanner()
        engine = build_engine([5, 10_000], planner=planner)
        los = planned([100, 200, 100])
        his = planned([150, 250, 150])
        assert engine.batch_range_empty(los, his).all()
        before = planner.cache.hits
        assert engine.batch_range_empty(los, his).all()
        assert planner.cache.hits > before
        snap = planner.stats_snapshot()
        assert snap["negative_cache"]["hits"] == planner.cache.hits
        assert snap["duplicates_folded"] >= 2

    def test_memtable_write_disqualifies_cached_empty(self):
        planner = BatchPlanner()
        engine = build_engine([5], planner=planner)
        assert engine.batch_range_empty(planned([100]), planned([200])).all()
        assert engine.batch_range_empty(planned([100]), planned([200])).all()
        # An unflushed write inside the cached range must flip the
        # verdict immediately — no version bump happens on put().
        engine.put(150, "x")
        assert not engine.batch_range_empty(
            planned([100]), planned([200])
        ).any()
        # ... and a tombstone is an overlap too (shadowing semantics
        # are the executor's business, not the cache's).
        engine.delete(150)
        verdict = engine.batch_range_empty(planned([100]), planned([200]))
        np.testing.assert_array_equal(
            verdict, [engine.range_empty(100, 200)] * PLANNED
        )

    def test_flush_evicts_via_version_bump(self):
        planner = BatchPlanner()
        engine = build_engine([5], planner=planner)
        assert engine.batch_range_empty(planned([100]), planned([200])).all()
        engine.put(150, "x")
        engine.flush_all()  # runs_version bump: entry tagged stale
        assert not engine.batch_range_empty(
            planned([100]), planned([200])
        ).any()
        # Delete + flush makes the range empty again; the new proof is
        # recorded at the new version and replays.
        engine.delete(150)
        engine.flush_all()
        assert engine.batch_range_empty(planned([100]), planned([200])).all()
        hits_before = planner.cache.hits
        assert engine.batch_range_empty(planned([100]), planned([200])).all()
        assert planner.cache.hits > hits_before

    def test_straddler_segments_replay_from_the_cache(self):
        keys = [5, 10_000, 3 * (UNIVERSE // 4) + 7]
        planner = BatchPlanner()
        planned_engine = build_engine(keys, planner=planner)
        plain = build_engine(keys)
        width = planned_engine.router.shard_width
        # An empty straddler over shards 0-1, and one over shards 1-3
        # whose shard-3 segment holds a key.
        los = planned([width - 100, 2 * width - 50])
        his = planned([width + 100, 3 * width + 10])
        want = plain.batch_range_empty(los, his)
        np.testing.assert_array_equal(want, np.repeat([True, False], PLANNED))
        np.testing.assert_array_equal(
            planned_engine.batch_range_empty(los, his), want
        )
        before = planner.cache.hits
        np.testing.assert_array_equal(
            planned_engine.batch_range_empty(los, his), want
        )
        # Each empty per-shard segment (two per straddler) is a hit.
        assert planner.cache.hits - before == 4

    def test_attach_different_engine_clears_cache(self):
        planner = BatchPlanner()
        engine_a = build_engine([5], planner=planner)
        assert engine_a.batch_range_empty(planned([100]), planned([200])).all()
        assert planner.cache.n_intervals > 0
        build_engine([7], planner=planner)
        # Re-homing the planner dropped every interval proven against
        # the old engine's runs_versions.
        assert planner.cache.n_intervals == 0

    def test_detach_restores_unplanned_path(self):
        planner = BatchPlanner()
        engine = build_engine([5], planner=planner)
        engine.batch_range_empty(planned([100]), planned([200]))
        batches = planner.stats_snapshot()["batches"]
        assert batches == 1
        engine.attach_planner(None)
        assert engine.planner is None
        engine.batch_range_empty(planned([100]), planned([200]))
        assert planner.stats_snapshot()["batches"] == batches

    @pytest.mark.parametrize("n", [1, SCALAR_CUTOFF])
    def test_tiny_batch_takes_the_straight_path(self, n):
        """A batch of at most ``SCALAR_CUTOFF`` ranges skips the planner:
        it returns a ``range_empty`` loop's verdicts, straddlers and a
        memtable overlap included, and leaves the negative cache's
        counters where they were."""
        keys = [5, 10_000, 3 * (UNIVERSE // 4) + 7]
        planner = BatchPlanner()
        engine = build_engine(keys, planner=planner)
        engine.put(20_000, "m")
        width = engine.router.shard_width
        ranges = [(100, 200), (width - 100, 2 * width + 10), (9_990, 10_010),
                  (19_990, 20_010), (2 * width - 50, 3 * width + 10),
                  (0, 4), (UNIVERSE - 9, UNIVERSE - 1), (100, 200)][:n]
        los, his = u64([lo for lo, _ in ranges]), u64([hi for _, hi in ranges])
        cache = planner.cache
        # Prime the cache through the planner with a larger batch.
        engine.batch_range_empty(planned([100]), planned([200]))
        counters = (cache.hits, cache.misses, cache.insertions)
        for _ in range(2):
            got = engine.batch_range_empty(los, his)
            np.testing.assert_array_equal(
                got, [engine.range_empty(lo, hi) for lo, hi in ranges]
            )
        assert (cache.hits, cache.misses, cache.insertions) == counters
        assert planner.stats_snapshot()["batches"] == 1


class TestPlannerServiceIntegration:
    def test_service_snapshot_carries_planner_section(self):
        engine = build_engine([5, 10_000], num_shards=2)
        engine.attach_planner(BatchPlanner())
        with RangeQueryService(engine, num_threads=2) as service:
            service.batch_range_empty(
                u64([100, 100, 5000]), u64([200, 200, 6000])
            )
            snap = service.stats_snapshot()
        planner = snap["planner"]
        assert planner is not None
        assert planner["queries"] == 3
        assert planner["negative_cache"]["enabled"]
        # The planner tallied the per-shard dispatch decisions.
        assert sum(planner["modes"].values()) > 0

    def test_service_without_planner_reports_none(self):
        engine = build_engine([5], num_shards=2)
        with RangeQueryService(engine, num_threads=2) as service:
            service.batch_range_empty(u64([100]), u64([200]))
            assert service.stats_snapshot()["planner"] is None

    def test_service_planned_equals_unplanned(self):
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, UNIVERSE, 500, dtype=np.uint64))
        los = rng.integers(0, UNIVERSE - 5000, 300, dtype=np.uint64)
        his = los + rng.integers(0, 4096, 300, dtype=np.uint64)
        los = np.repeat(los, 3)  # duplicate-heavy, like coalesced traffic
        his = np.repeat(his, 3)
        plain_engine = build_engine(keys, num_shards=2)
        with RangeQueryService(plain_engine, num_threads=2) as plain:
            want = plain.batch_range_empty(los, his)
        planned_engine = build_engine(
            keys, num_shards=2, planner=BatchPlanner()
        )
        with RangeQueryService(planned_engine, num_threads=2) as planned:
            for _ in range(2):  # second pass replays the negative cache
                np.testing.assert_array_equal(
                    planned.batch_range_empty(los, his), want
                )


class TestNegativeCacheUnderConcurrency:
    def test_a_returned_put_flips_every_later_planned_batch(self):
        """Writers put keys into ranges the readers have seen proven empty
        (and cached), with flushes interleaved. A range whose put has
        returned must answer non-empty in every batch that starts later,
        and a range no put has started on must answer empty."""
        step = UNIVERSE // 64
        width = UNIVERSE // 4
        seeded = [i * step + 100_000 for i in range(64)]
        engine = build_engine(seeded, planner=BatchPlanner())
        # 64 single-shard ranges, 16 a shard, and three shard straddlers.
        lo_list = [i * step + 1_000 for i in range(64)]
        lo_list += [k * width - 200 for k in (1, 2, 3)]
        los = u64(lo_list)
        his = los + np.uint64(400)
        n = int(los.size)
        batch_lo = np.concatenate((los, los[::3]))  # with duplicates
        batch_hi = np.concatenate((his, his[::3]))
        started = np.zeros(n, dtype=bool)
        written = np.zeros(n, dtype=bool)
        done = threading.Event()
        errors = []

        with RangeQueryService(engine, num_threads=2) as service:

            def batch():
                got = service.batch_range_empty(batch_lo, batch_hi)
                tail = got[n:]
                if not np.array_equal(tail, got[:n][::3]):
                    errors.append("duplicates answered differently")
                return got[:n]

            def writer(order, seed):
                rng = np.random.default_rng(seed)
                try:
                    for count, i in enumerate(order):
                        key = int(los[i]) + int(rng.integers(0, 401))
                        started[i] = True
                        service.put(key, "w")
                        written[i] = True
                        if count % 4 == 3:
                            service.flush_all()
                        time.sleep(0.001)
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(repr(exc))

            def reader():
                try:
                    while not done.is_set():
                        before = written.copy()
                        got = batch()
                        after = started.copy()
                        if (got & before).any():
                            errors.append("cached empty outlived a put")
                        if (~got & ~after).any():
                            errors.append("non-empty before any put")
                except Exception as exc:  # pragma: no cover - reported below
                    errors.append(repr(exc))

            assert batch().all()  # every range proven empty and cached
            order = np.random.default_rng(29).permutation(n)
            writers = [
                threading.Thread(target=writer, args=(order[w::2], w))
                for w in range(2)
            ]
            readers = [threading.Thread(target=reader) for _ in range(2)]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join()
            done.set()
            for t in readers:
                t.join()
            assert errors == []
            assert not batch().any()
            assert engine.planner.cache.hits > 0
