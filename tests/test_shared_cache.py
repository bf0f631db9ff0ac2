"""Tests for the shared-memory block cache slab.

What matters about :class:`~repro.lsm.cache.SharedBlockCache` and is
pinned here:

* **cross-process sharing** — blocks admitted by one process are hits
  for every other attached process, because persisted runs carry a
  stable ``shared_id`` that keys the slab identically everywhere;
* **bounded residency + LRU** — the slab never holds more blocks than
  its capacity, and with a single set the eviction order is exact LRU
  (verified against a hand-run model); a slot holds a block's identity,
  never its data;
* **no leaked segments** — closing the owner unlinks the shared-memory
  segment; closing a mere attachment does not destroy the slab the
  other processes are still using.
"""

import multiprocessing

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.engine import RangeQueryService, ShardedEngine, persist
from repro.errors import InvalidParameterError
from repro.lsm.cache import BlockCache, SharedBlockCache
from repro.lsm.sstable import BLOCK_ENTRIES, SSTable

UNIVERSE = 2**32


def make_run(n_blocks: int) -> SSTable:
    n = n_blocks * BLOCK_ENTRIES
    keys = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(17)
    return SSTable([(int(k), b"v") for k in keys], UNIVERSE, None)


def persisted_run(tmp_path, n_blocks: int) -> SSTable:
    """A run with a cross-process identity, round-tripped through disk
    exactly the way a checkpointed run would be."""
    run = make_run(n_blocks)
    path = tmp_path / "run-shared.sst"
    path.write_bytes(persist.run_to_bytes(run))
    loaded = persist.run_from_bytes(path.read_bytes())
    loaded.shared_id = persist.stable_run_id(0, path.name)
    return loaded


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _warm_slab_from_child(slab_name, locks, run_path, run_name, done):
    """Child-process body: attach to the slab, admit every block of the
    run, report this attachment's counters."""
    run = persist.run_from_bytes(run_path.read_bytes())
    run.shared_id = persist.stable_run_id(0, run_name)
    cache = SharedBlockCache.attach(slab_name, locks, unregister=True)
    try:
        for index in range(run.block_count):
            cache.touch(run, index)
        done.put((cache.hits, cache.misses))
    finally:
        cache.close()


def test_child_process_warms_slab_for_parent(tmp_path):
    run = persisted_run(tmp_path, 4)
    cache = SharedBlockCache(capacity_blocks=32)
    try:
        ctx = _mp_context()
        done = ctx.Queue()
        child = ctx.Process(
            target=_warm_slab_from_child,
            args=(
                cache.name, cache.locks,
                tmp_path / "run-shared.sst", "run-shared.sst", done,
            ),
        )
        child.start()
        child_hits, child_misses = done.get(timeout=30)
        child.join(timeout=30)
        assert child.exitcode == 0
        # The child took every cold miss; its admissions are resident.
        assert child_misses == run.block_count
        assert child_hits == 0
        assert len(cache) == run.block_count
        # The parent never touched the slab, yet every block is a hit —
        # stable_run_id keys the same file identically across processes.
        for index in range(run.block_count):
            hit = cache.touch(run, index)
            assert hit
        assert cache.hits == run.block_count
        assert cache.misses == 0
    finally:
        cache.close()


def test_unpersisted_runs_never_collide_across_attachments(tmp_path):
    """Runs without a ``shared_id`` are salted per attachment: another
    attachment's admissions for the same uid must not be served."""
    run = make_run(2)
    assert run.shared_id is None
    owner = SharedBlockCache(capacity_blocks=32)
    try:
        other = SharedBlockCache.attach(owner.name, owner.locks)
        try:
            for index in range(run.block_count):
                owner.touch(run, index)
            for index in range(run.block_count):
                hit = other.touch(run, index)
                assert not hit
        finally:
            other.close()
    finally:
        owner.close()


def test_single_set_eviction_is_exact_lru(tmp_path):
    """capacity=4 collapses the slab to one 4-way set, making eviction
    pure LRU by tick — run the reference model by hand."""
    run = persisted_run(tmp_path, 6)
    cache = SharedBlockCache(capacity_blocks=4)
    try:
        def touch(index):
            return cache.touch(run, index)

        assert [touch(i) for i in (0, 1, 2, 3)] == [False] * 4
        assert len(cache) == 4
        assert touch(0)          # refresh 0; LRU is now 1
        assert not touch(4)      # admit 4 -> evicts 1
        assert len(cache) == 4   # residency never exceeds capacity
        assert [touch(i) for i in (0, 2, 3, 4)] == [True] * 4
        assert not touch(1)      # 1 was evicted; readmission evicts 0
        assert not touch(0)
        assert cache.hits == 5
        assert cache.misses == 7
    finally:
        cache.close()


def test_slab_residency_stays_bounded_under_cycling(tmp_path):
    run = persisted_run(tmp_path, 12)
    cache = SharedBlockCache(capacity_blocks=8)
    try:
        for _ in range(3):
            for index in range(run.block_count):
                cache.touch(run, index)
                assert len(cache) <= cache.capacity_blocks
        assert cache.misses > cache.capacity_blocks  # cycling churns
    finally:
        cache.close()


def test_slab_holds_block_identities_only():
    """A slot records which block is resident, never the block's data:
    the segment is one 64-byte header plus one 64-byte row per slot."""
    cache = SharedBlockCache(capacity_blocks=4096)
    try:
        assert cache._shm.size <= 64 * (4096 + 1)
    finally:
        cache.close()


def test_owner_close_unlinks_segment(tmp_path):
    cache = SharedBlockCache(capacity_blocks=8)
    name = cache.name
    cache.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    cache.close()  # idempotent


def test_attachment_close_leaves_slab_alive(tmp_path):
    run = persisted_run(tmp_path, 2)
    owner = SharedBlockCache(capacity_blocks=8)
    name = owner.name
    try:
        attachment = SharedBlockCache.attach(name, owner.locks)
        attachment.touch(run, 0)
        attachment.close()
        # The owner keeps working — and sees the attachment's admission.
        hit = owner.touch(run, 0)
        assert hit
    finally:
        owner.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_attachment_reads_miss_latency_from_the_slab():
    """The owner's ``miss_latency`` lives in the slab header, so an
    attachment cannot be configured to disagree with it."""
    owner = SharedBlockCache(capacity_blocks=8, miss_latency=0.00025)
    try:
        attachment = SharedBlockCache.attach(owner.name, owner.locks)
        try:
            assert attachment.miss_latency == owner.miss_latency == 0.00025
        finally:
            attachment.close()
    finally:
        owner.close()


def test_attach_rejects_foreign_segment():
    shm = shared_memory.SharedMemory(create=True, size=4096)
    try:
        with pytest.raises(InvalidParameterError):
            SharedBlockCache.attach(shm.name, [])
    finally:
        shm.close()
        shm.unlink()


def test_constructor_validation():
    with pytest.raises(InvalidParameterError):
        SharedBlockCache(capacity_blocks=0)
    with pytest.raises(InvalidParameterError):
        SharedBlockCache(capacity_blocks=8, num_stripes=0)
    with pytest.raises(InvalidParameterError):
        SharedBlockCache(capacity_blocks=8, miss_latency=-1.0)
    cache = SharedBlockCache(capacity_blocks=8)
    cache.close()
    with pytest.raises(InvalidParameterError):
        cache.touch(make_run(1), 0)


def test_rejected_process_service_releases_its_slab():
    """A constructor that fails validation must not leak the slab it
    already built, nor leave it attached to the engine."""
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=256,
        compaction_fanout=4, filter_spec=None,
    )  # in-memory: process mode is invalid
    with pytest.raises(InvalidParameterError):
        RangeQueryService(engine, mode="process", cache_blocks=64)
    assert engine.block_cache is None


def test_process_service_rejects_a_private_cache(tmp_path):
    """Process mode serves from one slab: a pre-attached in-process
    ``BlockCache`` is refused, not silently copied into each worker, and
    the engine keeps the cache the caller attached."""
    engine = build_service_engine(tmp_path / "db")
    private = BlockCache(64)
    engine.attach_block_cache(private)
    with pytest.raises(InvalidParameterError, match="BlockCache"):
        RangeQueryService(engine, mode="process", num_workers=1)
    assert engine.block_cache is private
    assert all(store.cache is private for store in engine.shards)


def build_service_engine(path):
    rng = np.random.default_rng(21)
    keys = np.unique(rng.integers(0, UNIVERSE, 3_000, dtype=np.uint64))
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=256,
        compaction_fanout=4,
        filter_spec=None,
        directory=path,
    )
    for key in keys:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.drain_compactions()
    engine.checkpoint()
    return engine


def test_process_service_shares_one_slab_end_to_end(tmp_path):
    engine = build_service_engine(tmp_path / "db")
    rng = np.random.default_rng(22)
    los = rng.integers(0, UNIVERSE - 64, 400, dtype=np.uint64)
    his = los + np.uint64(63)
    reference = engine.batch_range_empty(los, his)
    with RangeQueryService(
        engine,
        num_threads=2,
        cache_blocks=256,
        miss_latency=0.0,
        mode="process",
        num_workers=2,
    ) as service:
        slab = service.cache
        assert isinstance(slab, SharedBlockCache)
        slab_name = slab.name
        assert bool((service.batch_range_empty(los, his) == reference).all())
        warm = engine.stats
        assert bool((service.batch_range_empty(los, his) == reference).all())
        after = engine.stats
        # The warm pass populated the shared slab; the second pass hits
        # it from the workers, and those hits flow into the engine's
        # I/O ledger like any other cache traffic.
        assert after.cache_hits > warm.cache_hits
        snapshot = service.stats_snapshot()
        assert snapshot["cache"]["capacity_blocks"] == 256
    # Service close detached and unlinked the slab: nothing leaked.
    assert engine.block_cache is None
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=slab_name)
