"""Tests for compaction rate limiting (TokenBucket + scheduler wiring).

The bucket is metered in *entries compacted* and admits on "balance is
positive" — a single step may overdraw it (debt), which then defers
further steps until the refill catches up. These tests drive the bucket
with a fake clock so every refill is exact, then verify the scheduler
seam: `drain()` defers on throttle without sleeping and leaves the work
queued, and `ShardedEngine(compaction_rate=...)` (and `.open`) install a
bucket the service surfaces through `stats_snapshot()`.
"""

import time

import numpy as np
import pytest

from repro.engine import (
    CompactionScheduler,
    RangeQueryService,
    ShardedEngine,
    TokenBucket,
)
from repro.errors import InvalidParameterError
from repro.lsm.compaction import LeveledPolicy
from repro.lsm.store import LSMStore

UNIVERSE = 2**24


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# TokenBucket unit behaviour
# ----------------------------------------------------------------------

def test_bucket_validation():
    with pytest.raises(InvalidParameterError):
        TokenBucket(0)
    with pytest.raises(InvalidParameterError):
        TokenBucket(-5.0)
    with pytest.raises(InvalidParameterError):
        TokenBucket(100.0, burst=0)
    assert TokenBucket(100.0).burst == 100.0  # burst defaults to rate
    assert TokenBucket(100.0, burst=25.0).burst == 25.0


def test_bucket_admits_until_debt_then_refills():
    clock = FakeClock()
    bucket = TokenBucket(100.0, burst=50.0, clock=clock)
    assert bucket.ready()
    assert bucket.eta() == 0.0
    # One oversized step overdraws the bucket into debt.
    bucket.debit(150.0)
    assert bucket.balance == -100.0
    assert not bucket.ready()
    assert bucket.eta() == pytest.approx(1.0, rel=1e-6)
    # Refill at 100 entries/s: half the debt after 0.5s, ready at 1s+.
    clock.advance(0.5)
    assert not bucket.ready()
    assert bucket.eta() == pytest.approx(0.5, rel=1e-6)
    clock.advance(0.6)
    assert bucket.ready()
    assert bucket.balance == pytest.approx(10.0)


def test_bucket_balance_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(1_000.0, burst=40.0, clock=clock)
    clock.advance(60.0)  # idle for a minute: no unbounded credit
    assert bucket.balance == 40.0
    bucket.debit(39.0)
    assert bucket.ready()  # positive balance still admits
    bucket.debit(2.0)
    assert not bucket.ready()


def test_bucket_ignores_nonpositive_debits():
    clock = FakeClock()
    bucket = TokenBucket(10.0, clock=clock)
    bucket.debit(0.0)
    bucket.debit(-7.0)
    assert bucket.balance == 10.0


# ----------------------------------------------------------------------
# Scheduler seam
# ----------------------------------------------------------------------

def make_store():
    return LSMStore(
        UNIVERSE,
        memtable_limit=16,
        compaction_fanout=2,
        filter_factory=None,
        auto_compact=False,
        compaction_policy=LeveledPolicy(slice_target=64),
    )


def fill(store, n, seed=3):
    rng = np.random.default_rng(seed)
    for key in rng.choice(UNIVERSE, size=n, replace=False):
        store.put(int(key), b"v")
    store.flush()


def test_throttle_wait_counts_and_reports_eta():
    clock = FakeClock()
    bucket = TokenBucket(100.0, burst=10.0, clock=clock)
    scheduler = CompactionScheduler(rate_limiter=bucket)
    assert scheduler.throttle_wait() == 0.0
    assert scheduler.compactions_throttled == 0
    bucket.debit(60.0)
    wait = scheduler.throttle_wait()
    assert wait == pytest.approx(0.5, rel=1e-6)
    assert scheduler.compactions_throttled == 1
    clock.advance(1.0)
    assert scheduler.throttle_wait() == 0.0
    assert scheduler.compactions_throttled == 1


def test_drain_defers_on_throttle_and_keeps_work_queued():
    clock = FakeClock()
    # Tiny burst: the first step's debit puts the bucket deep in debt.
    bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
    scheduler = CompactionScheduler(rate_limiter=bucket)
    store = make_store()
    fill(store, 400)
    fill(store, 400, seed=4)
    assert store.needs_compaction
    scheduler.notify(0, store)

    # The first step is admitted (balance starts positive) and its
    # ~800-entry debit then buries the burst-1 bucket in debt.
    first = scheduler.drain()
    assert first >= 1
    assert bucket.balance < 0

    # New work arriving while the bucket is in debt stays queued: the
    # drain defers without running a step and without sleeping.
    fill(store, 400, seed=5)
    fill(store, 400, seed=6)
    assert store.needs_compaction
    scheduler.notify(0, store)
    assert scheduler.drain() == 0
    assert store.needs_compaction
    assert scheduler.compactions_throttled >= 1
    assert scheduler.pending_shards == (0,)  # still queued, not dropped
    # ...and once the (fake) refill catches up, the drain resumes the
    # queued shard to completion.
    total = first
    for _ in range(1_000):
        clock.advance(bucket.eta() + 1e-6)
        stepped = scheduler.drain()
        total += stepped
        if not store.needs_compaction:
            break
    assert not store.needs_compaction
    assert total > first
    assert scheduler.compactions_run == total


def test_set_rate_limiter_swaps_live():
    scheduler = CompactionScheduler()
    assert scheduler.rate_limiter is None
    store = make_store()
    fill(store, 400)
    fill(store, 400, seed=5)
    scheduler.notify(0, store)
    clock = FakeClock()
    throttled = TokenBucket(1.0, burst=1.0, clock=clock)
    throttled.debit(10_000.0)
    scheduler.set_rate_limiter(throttled)
    assert scheduler.drain() == 0  # fully throttled
    scheduler.set_rate_limiter(None)
    assert scheduler.drain() > 0  # unthrottled again
    assert not store.needs_compaction


# ----------------------------------------------------------------------
# Engine / service wiring
# ----------------------------------------------------------------------

def seed_engine(engine, n=1_500, seed=9):
    rng = np.random.default_rng(seed)
    for key in np.unique(rng.integers(0, UNIVERSE, n, dtype=np.uint64)):
        engine.put(int(key), b"v")


def test_engine_compaction_rate_installs_bucket():
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=64,
        compaction_fanout=2, filter_factory=None,
        compaction_rate=123.5,
    )
    limiter = engine.scheduler.rate_limiter
    assert isinstance(limiter, TokenBucket)
    assert limiter.rate == 123.5
    assert ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=64,
        compaction_fanout=2, filter_factory=None,
    ).scheduler.rate_limiter is None


def test_engine_open_accepts_compaction_rate(tmp_path):
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=64,
        compaction_fanout=2, filter_factory=None,
        directory=tmp_path / "db",
    )
    seed_engine(engine)
    engine.flush_all()
    engine.drain_compactions()
    engine.checkpoint()
    reopened = ShardedEngine.open(tmp_path / "db", compaction_rate=77.0)
    limiter = reopened.scheduler.rate_limiter
    assert isinstance(limiter, TokenBucket)
    assert limiter.rate == 77.0
    assert ShardedEngine.open(tmp_path / "db").scheduler.rate_limiter is None


def test_rate_limited_engine_still_converges():
    """Queries stay correct while compaction is throttled, and the
    backlog drains once the limiter is lifted."""
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=64,
        compaction_fanout=2, filter_factory=None,
        compaction_rate=1e12,  # huge burst: never actually defers
    )
    seed_engine(engine)
    engine.flush_all()
    engine.drain_compactions()
    clock = FakeClock()
    starved = TokenBucket(1.0, burst=1.0, clock=clock)
    starved.debit(10_000.0)
    engine.scheduler.set_rate_limiter(starved)
    seed_engine(engine, n=800, seed=10)
    engine.flush_all()
    engine.drain_compactions()  # fully throttled: backlog stays queued
    rng = np.random.default_rng(11)
    los = rng.integers(0, UNIVERSE - 32, 200, dtype=np.uint64)
    his = los + np.uint64(31)
    throttled_answers = engine.batch_range_empty(los, his)
    engine.scheduler.set_rate_limiter(None)
    engine.drain_compactions()
    assert bool(
        (engine.batch_range_empty(los, his) == throttled_answers).all()
    )


def test_service_snapshot_surfaces_rate_limit_and_levels():
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=64,
        compaction_fanout=2, filter_factory=None,
        compaction_rate=5_000.0,
    )
    seed_engine(engine)
    engine.flush_all()
    with RangeQueryService(engine, num_threads=2) as service:
        engine.drain_compactions()
        snapshot = service.stats_snapshot()
        assert snapshot["compaction"]["rate_limit"] == 5_000.0
        assert snapshot["compaction"]["throttled_steps"] >= 0
        levels = snapshot["engine"]["levels"]
        assert levels and levels[0]["level"] == 0
    engine.scheduler.set_rate_limiter(None)


def test_service_background_step_debits_the_bucket():
    # A rate far below one step's rewrite size: the first background
    # step overdraws the bucket, and the refill cannot catch up.
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=64,
        compaction_fanout=2, filter_factory=None,
        compaction_rate=1e-3,
    )
    limiter = engine.scheduler.rate_limiter
    seed_engine(engine)
    engine.flush_all()
    assert len(engine.scheduler) > 0
    with RangeQueryService(engine, num_threads=2) as service:
        deadline = time.monotonic() + 30.0
        while service.background_compactions == 0:
            assert time.monotonic() < deadline, "no background step ran"
            time.sleep(0.01)
        assert limiter.balance < limiter.burst
        assert engine.scheduler.compactions_run >= 1
