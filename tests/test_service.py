"""Tests for the concurrent serving layer.

Covers the pieces :mod:`repro.engine.service` introduces: the
reader/writer lock, the sharded block cache (and its fold into
``IoStats``), block-granular SSTable access, and the
:class:`RangeQueryService` itself — parity with the single-threaded
engine, background compaction, checkpoint/reopen under locks, and a
concurrent reader/writer hammer.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import RangeQueryService, RWLock, ShardedEngine
from repro.errors import InvalidParameterError
from repro.filters import FilterSpec
from repro.lsm import BLOCK_ENTRIES, BlockCache, LSMStore, SSTable

UNIVERSE = 2**32


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=14, max_range_size=64, seed=7)


def build_engine(**kwargs):
    defaults = dict(
        num_shards=4, memtable_limit=128, filter_spec=GRAFITE_SPEC
    )
    defaults.update(kwargs)
    return ShardedEngine(UNIVERSE, **defaults)


def load_keys(target, n=3000, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, UNIVERSE, n, dtype=np.uint64)
    for key in keys:
        target.put(int(key), int(key) % 251)
    return np.unique(keys)


# ----------------------------------------------------------------------
# Reader/writer lock
# ----------------------------------------------------------------------
class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        entered = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read_locked():
                entered.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        log = []

        def writer(tag):
            with lock.write_locked():
                log.append(f"{tag}-in")
                time.sleep(0.02)
                log.append(f"{tag}-out")

        def reader():
            with lock.read_locked():
                log.append("r")

        lock.acquire_write()
        threads = [
            threading.Thread(target=writer, args=("w",)),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        time.sleep(0.05)
        assert log == []  # everyone blocked behind the held write lock
        lock.release_write()
        for t in threads:
            t.join(timeout=5.0)
        # The writer's critical section was never interleaved.
        w_in = log.index("w-in")
        assert log[w_in + 1] == "w-out"

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        order = []

        def writer():
            lock.acquire_write()
            order.append("w")
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("r")
            lock.release_read()

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.02)  # writer is now queued
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.02)
        assert order == []  # late reader must queue behind the writer
        lock.release_read()
        w.join(timeout=5.0)
        r.join(timeout=5.0)
        assert order == ["w", "r"]


# ----------------------------------------------------------------------
# SSTable blocks + block cache
# ----------------------------------------------------------------------
class TestBlocks:
    def make_run(self, n):
        return SSTable([(i * 10, i) for i in range(n)], UNIVERSE)

    def test_block_layout_and_reads(self):
        run = self.make_run(BLOCK_ENTRIES * 2 + 5)
        assert run.block_count == 3
        before = run.io_reads
        block = run.read_block(2)
        assert run.io_reads == before + 1
        assert len(block) == 5
        with pytest.raises(IndexError):
            run.read_block(3)

    def test_block_span_matches_scan(self):
        run = self.make_run(BLOCK_ENTRIES + 10)
        top = (BLOCK_ENTRIES + 9) * 10
        for lo, hi in [
            (0, 0), (5, 5), (0, top), (top, top), (top + 1, top + 500),
            (3, 47), (BLOCK_ENTRIES * 10 - 1, BLOCK_ENTRIES * 10 + 1),
        ]:
            span = run.block_span(lo, hi)
            expected = run.scan(lo, hi)
            got = []
            if span is not None:
                for b in range(span[0], span[1] + 1):
                    got.extend(
                        (k, v) for k, v in run.read_block(b) if lo <= k <= hi
                    )
            assert got == expected, (lo, hi)

    def test_span_before_first_key_is_free(self):
        run = SSTable([(100, "x")], UNIVERSE)
        assert run.block_span(0, 99) is None
        assert run.block_span(100, 100) == (0, 0)
        assert run.block_span(101, 500) == (0, 0)  # costs one wasted block

    def test_cache_hits_and_lru_eviction(self):
        run = self.make_run(BLOCK_ENTRIES * 4)
        cache = BlockCache(2, num_stripes=1)
        cache.get_block(run, 0)
        _, hit = cache.get_block(run, 0)
        assert hit
        cache.get_block(run, 1)
        cache.get_block(run, 2)  # evicts block 0 (capacity 2, LRU)
        _, hit = cache.get_block(run, 0)
        assert not hit
        assert cache.misses == 4 and cache.hits == 1
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_uids_never_alias(self):
        a = SSTable([(1, "a")], UNIVERSE)
        b = SSTable([(1, "b")], UNIVERSE)
        cache = BlockCache(16)
        assert cache.scan(a, 0, 10)[0] == [(1, "a")]
        assert cache.scan(b, 0, 10)[0] == [(1, "b")]

    def test_scan_through_cache_equals_direct(self):
        rng = np.random.default_rng(3)
        keys = np.unique(rng.integers(0, 10_000, 2000, dtype=np.uint64))
        run = SSTable([(int(k), int(k)) for k in keys], UNIVERSE)
        cache = BlockCache(64)
        for lo, hi in rng.integers(0, 10_000, (200, 2)):
            lo, hi = int(min(lo, hi)), int(max(lo, hi))
            assert cache.scan(run, lo, hi)[0] == run.scan(lo, hi)

    def test_store_folds_cache_counters(self):
        store = LSMStore(UNIVERSE, memtable_limit=64)
        for key in range(0, 6400, 10):
            store.put(key, key)
        store.flush()
        store.attach_cache(BlockCache(64))
        store.range_scan(0, 600)
        assert store.stats.cache_misses > 0
        misses = store.stats.cache_misses
        store.range_scan(0, 600)
        assert store.stats.cache_hits > 0
        assert store.stats.cache_misses == misses
        assert 0.0 < store.stats.cache_hit_ratio <= 1.0

    def test_cache_validation(self):
        with pytest.raises(InvalidParameterError):
            BlockCache(0)
        with pytest.raises(InvalidParameterError):
            BlockCache(8, num_stripes=0)
        with pytest.raises(InvalidParameterError):
            BlockCache(8, miss_latency=-1.0)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class TestRangeQueryService:
    @pytest.mark.parametrize("num_threads", [1, 2, 8])
    def test_batch_matches_engine(self, num_threads):
        engine = build_engine()
        keys = load_keys(engine)
        engine.flush_all()
        engine.drain_compactions()
        rng = np.random.default_rng(1)
        los = rng.integers(0, UNIVERSE - 200, 4000, dtype=np.uint64)
        his = los + rng.integers(0, 128, 4000, dtype=np.uint64)
        reference = engine.batch_range_empty(los, his)
        with RangeQueryService(engine, num_threads=num_threads) as svc:
            got = svc.batch_range_empty(los, his)
            assert (got == reference).all()
            # And the scalar service path agrees with the batch path.
            for i in range(0, 200):
                assert svc.range_empty(int(los[i]), int(his[i])) == got[i]

    def test_batch_with_boundary_straddling_queries(self):
        """Straddlers take the atomic multi-lock path; results must still
        match the single-threaded engine exactly."""
        engine = build_engine(num_shards=8)
        load_keys(engine, n=2000, seed=4)
        engine.flush_all()
        engine.drain_compactions()
        width = engine.router.shard_width
        los, his = [], []
        for sid in range(1, 8):  # a window around every shard boundary
            boundary = sid * width
            los.append(boundary - 500)
            his.append(boundary + 500)
        los += [0, UNIVERSE - 1000]
        his += [UNIVERSE - 1, UNIVERSE - 1]  # full-universe + tail ranges
        los = np.asarray(los, dtype=np.uint64)
        his = np.asarray(his, dtype=np.uint64)
        reference = engine.batch_range_empty(los, his)
        with RangeQueryService(engine, num_threads=4) as svc:
            assert (svc.batch_range_empty(los, his) == reference).all()

    def test_point_ops_and_cross_shard_probe(self):
        engine = build_engine(num_shards=8)
        with RangeQueryService(engine, num_threads=4) as svc:
            svc.put(5, "five")
            svc.put(UNIVERSE - 3, "last")
            assert svc.get(5) == "five"
            assert svc.get(UNIVERSE - 3) == "last"
            # Spans all eight shards; both endpoints live in different ones.
            assert not svc.range_empty(0, UNIVERSE - 1)
            svc.delete(5)
            assert svc.get(5) is None
            assert svc.range_empty(0, UNIVERSE // 8 - 1)

    def test_background_compaction_runs(self):
        engine = build_engine(memtable_limit=32, compaction_fanout=3)
        with RangeQueryService(engine, num_threads=2) as svc:
            load_keys(svc, n=2000)
            assert svc.wait_for_compactions(timeout=20.0)
            assert svc.background_compactions > 0
            assert engine.scheduler.compactions_run >= svc.background_compactions
            # The worker kept level 0 under control on every shard.
            for store in engine.shards:
                assert not store.needs_compaction

    def test_batch_queries_do_not_drain_inline(self):
        """Compactions queued by writes stay off the query path."""
        engine = build_engine(memtable_limit=16, compaction_fanout=2)
        # Very slow poll so the worker cannot steal the queued work
        # before the batch runs.
        svc = RangeQueryService(engine, num_threads=2, compaction_poll=30.0)
        try:
            for key in range(0, 4096, 4):
                svc.put(key, b"v")
            pending_before = len(engine.scheduler)
            assert pending_before > 0
            svc.batch_range_empty(np.asarray([1]), np.asarray([2**20]))
            assert len(engine.scheduler) >= pending_before
        finally:
            svc.close()

    def test_checkpoint_and_reopen(self, tmp_path):
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=64,
            filter_spec=GRAFITE_SPEC, directory=tmp_path / "db",
        )
        with RangeQueryService(engine, num_threads=2) as svc:
            keys = load_keys(svc, n=500, seed=9)
            svc.checkpoint()
        engine.close(checkpoint=False)
        reopened = ShardedEngine.open(tmp_path / "db")
        with RangeQueryService(reopened, num_threads=2) as svc:
            for key in keys[:100]:
                assert svc.get(int(key)) == int(key) % 251

    def test_closed_service_rejects_calls(self):
        svc = RangeQueryService(build_engine(), num_threads=1)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(InvalidParameterError):
            svc.get(1)
        with pytest.raises(InvalidParameterError):
            svc.put(1, "x")

    def test_validation(self):
        engine = build_engine()
        with pytest.raises(InvalidParameterError):
            RangeQueryService(engine, num_threads=0)
        with pytest.raises(InvalidParameterError):
            RangeQueryService(engine, compaction_poll=0.0)

    def test_cache_disabled(self):
        engine = build_engine()
        with RangeQueryService(engine, cache_blocks=0) as svc:
            assert svc.cache is None
            svc.put(1, "x")
            assert svc.get(1) == "x"
        assert engine.block_cache is None

    def test_close_detaches_the_cache_it_built(self):
        """A closed service leaves no cache behind, so the next service
        on the same engine builds its own at its own capacity; a cache
        the caller attached stays attached."""
        engine = build_engine()
        with RangeQueryService(engine, cache_blocks=32) as svc:
            assert engine.block_cache is svc.cache
        assert engine.block_cache is None
        with RangeQueryService(engine, cache_blocks=64) as svc:
            assert svc.cache.capacity_blocks == 64
        assert engine.block_cache is None
        mine = BlockCache(16)
        engine.attach_block_cache(mine)
        with RangeQueryService(engine, cache_blocks=64) as svc:
            assert svc.cache is mine
        assert engine.block_cache is mine

    def test_concurrent_hammer(self):
        """Writers on disjoint key slices race readers and the compactor;
        the final state must be exactly the union of all writes."""
        engine = build_engine(num_shards=4, memtable_limit=64)
        n_writers, per_writer = 4, 400
        with RangeQueryService(engine, num_threads=4) as svc:
            errors = []

            def writer(slot):
                try:
                    for i in range(per_writer):
                        key = slot * per_writer + i
                        svc.put(key * 1000, slot)
                        if i % 7 == 0:
                            svc.get(key * 1000)
                        if i % 13 == 0:
                            svc.range_empty(0, 10_000)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=writer, args=(s,))
                for s in range(n_writers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors
            assert svc.wait_for_compactions(timeout=20.0)
            for slot in range(n_writers):
                for i in range(0, per_writer, 29):
                    key = (slot * per_writer + i) * 1000
                    assert svc.get(key) == slot
            assert len(engine) == n_writers * per_writer


# ----------------------------------------------------------------------
# Process-mode serving (snapshot workers + epoch handshake)
# ----------------------------------------------------------------------
class TestProcessMode:
    def build_persistent(self, tmp_path, **kwargs):
        return build_engine(directory=tmp_path / "db", **kwargs)

    def test_requires_persistent_engine(self):
        engine = build_engine()
        with pytest.raises(InvalidParameterError):
            RangeQueryService(engine, mode="process")
        with pytest.raises(InvalidParameterError):
            RangeQueryService(engine, mode="carrier-pigeon")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_batch_matches_engine_and_uses_workers(self, tmp_path, workers):
        engine = self.build_persistent(tmp_path)
        keys = load_keys(engine, n=2500, seed=3)
        engine.flush_all()
        rng = np.random.default_rng(4)
        los = rng.integers(0, UNIVERSE - 5000, 800, dtype=np.uint64)
        his = los + rng.integers(0, 5000, 800, dtype=np.uint64)
        reference = engine.batch_range_empty(los, his)
        with RangeQueryService(
            engine, num_threads=2, mode="process", num_workers=workers,
            cache_blocks=0,
        ) as service:
            assert service.mode == "process"
            assert service.num_workers == workers
            # Let the background worker drain load-time compactions (each
            # would dirty its shard's epoch), then take a clean checkpoint.
            assert service.wait_for_compactions(timeout=10.0)
            service.checkpoint()
            got = service.batch_range_empty(los, his)
            assert bool((got == reference).all())
            # Post-checkpoint epoch is clean and nothing sits in the
            # memtables: every probe must have gone to a worker.
            assert service.worker_queries == 800
            assert service.local_queries == 0
        engine.close()

    def test_flush_invalidates_and_checkpoint_resyncs(self, tmp_path):
        engine = self.build_persistent(tmp_path, memtable_limit=64)
        load_keys(engine, n=1500, seed=5)
        engine.flush_all()
        rng = np.random.default_rng(6)
        los = rng.integers(0, UNIVERSE - 1000, 300, dtype=np.uint64)
        his = los + rng.integers(0, 1000, 300, dtype=np.uint64)
        with RangeQueryService(
            engine, num_threads=2, mode="process", num_workers=2, cache_blocks=0,
        ) as service:
            assert service.wait_for_compactions(timeout=10.0)
            service.checkpoint()  # clean epoch after load-time compactions
            service.batch_range_empty(los, his)
            base_worker = service.worker_queries
            assert base_worker == 300
            # Enough writes to overflow a few memtables: flushes bump
            # runs_version, so those shards must leave the worker path.
            for key in rng.integers(0, UNIVERSE, 400, dtype=np.uint64):
                service.put(int(key), b"w")
            scalar = [engine.range_empty(int(l), int(h)) for l, h in zip(los, his)]
            got = service.batch_range_empty(los, his)
            assert got.tolist() == scalar
            assert service.local_queries > 0, "dirty shards must serve locally"
            # The epoch boundary: checkpoint hands workers the new runs.
            service.checkpoint()
            mid_worker = service.worker_queries
            got = service.batch_range_empty(los, his)
            assert got.tolist() == scalar
            assert service.worker_queries == mid_worker + 300
        engine.close()

    def test_memtable_overlap_falls_back_per_query(self, tmp_path):
        engine = self.build_persistent(tmp_path, memtable_limit=10_000)
        load_keys(engine, n=1200, seed=7)
        engine.flush_all()
        with RangeQueryService(
            engine, num_threads=2, mode="process", num_workers=2, cache_blocks=0,
        ) as service:
            # One unflushed write: the memtable holds exactly {probe_key}.
            probe_key = 12345
            service.put(probe_key, b"fresh")
            los = np.asarray([probe_key - 5, probe_key + 100], dtype=np.uint64)
            his = np.asarray([probe_key + 5, probe_key + 200], dtype=np.uint64)
            got = service.batch_range_empty(los, his)
            assert not got[0], "the overlapping query must see the fresh write"
            assert service.local_queries == 1, "only the overlap goes local"
            assert service.worker_queries == 1
        engine.close()

    def test_reopen_after_process_service(self, tmp_path):
        """Close/reopen around a process-mode service preserves state —
        the init checkpoint and WAL interplay must not lose writes."""
        engine = self.build_persistent(tmp_path)
        load_keys(engine, n=600, seed=8)
        with RangeQueryService(
            engine, num_threads=1, mode="process", num_workers=1, cache_blocks=0,
        ) as service:
            service.put(77, b"x")
            service.delete(78)
        engine.close(checkpoint=False)
        reopened = ShardedEngine.open(tmp_path / "db")
        assert reopened.get(77) == b"x"
        assert reopened.get(78) is None
        reopened.close()

    def test_worker_pool_validation(self, tmp_path):
        from repro.engine import ShardWorkerPool

        engine = self.build_persistent(tmp_path)
        engine.checkpoint()
        with pytest.raises(InvalidParameterError):
            ShardWorkerPool(engine.directory, 4, 0)
        with pytest.raises(InvalidParameterError):
            ShardWorkerPool(engine.directory, 4, 2, slot_count=0)
        engine.close()

    def test_worker_stats_fold_into_ledger(self, tmp_path):
        engine = self.build_persistent(tmp_path)
        keys = load_keys(engine, n=2000, seed=9)
        engine.flush_all()
        with RangeQueryService(
            engine, num_threads=2, mode="process", num_workers=2, cache_blocks=0,
        ) as service:
            assert service.wait_for_compactions(timeout=10.0)
            service.checkpoint()  # clean epoch after load-time compactions
            before = engine.stats.total_filter_decisions
            # Probes centred on stored keys: every one verifies against a
            # run inside the worker, so the folded ledger must move.
            los = keys[:200]
            his = np.minimum(los + np.uint64(2), np.uint64(UNIVERSE - 1))
            got = service.batch_range_empty(los, his)
            assert not got.any()
            assert service.worker_queries == 200
            assert engine.stats.total_filter_decisions > before
        engine.close()

    def test_dead_worker_falls_back_to_local_path(self, tmp_path):
        """SIGKILL a snapshot worker mid-service: queries must keep
        answering exactly (local fallback), never raise, and the next
        checkpoint must not fail either."""
        import os
        import signal
        import warnings as _warnings

        engine = self.build_persistent(tmp_path)
        load_keys(engine, n=1000, seed=11)
        engine.flush_all()
        rng = np.random.default_rng(12)
        los = rng.integers(0, UNIVERSE - 1000, 200, dtype=np.uint64)
        his = los + rng.integers(0, 1000, 200, dtype=np.uint64)
        with RangeQueryService(
            engine, num_threads=2, mode="process", num_workers=2, cache_blocks=0,
        ) as service:
            assert service.wait_for_compactions(timeout=10.0)
            service.checkpoint()
            scalar = [engine.range_empty(int(l), int(h)) for l, h in zip(los, his)]
            assert service.batch_range_empty(los, his).tolist() == scalar
            # Murder worker 0 the way the OOM killer would.
            victim = service._workers._handles[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            got = service.batch_range_empty(los, his)
            assert got.tolist() == scalar, "fallback answers must stay exact"
            assert service.local_queries > 0
            # Checkpoint (reload handshake) survives the dead worker too.
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", RuntimeWarning)
                service.checkpoint()
            assert service.batch_range_empty(los, his).tolist() == scalar
        engine.close()

    def test_worker_cache_replica_folds_hits_home(self, tmp_path):
        """With a cache configured, worker-side verification runs behind a
        per-worker cache replica whose hit/miss counters fold into the
        engine ledger — so process-mode runs stay comparable to thread
        mode under a simulated device."""
        engine = self.build_persistent(tmp_path)
        keys = load_keys(engine, n=1500, seed=13)
        engine.flush_all()
        with RangeQueryService(
            engine, num_threads=2, mode="process", num_workers=2,
            cache_blocks=512,
        ) as service:
            assert service.wait_for_compactions(timeout=10.0)
            service.checkpoint()
            los = keys[:300]
            his = np.minimum(los + np.uint64(2), np.uint64(UNIVERSE - 1))
            before = engine.stats.cache_hits + engine.stats.cache_misses
            got = service.batch_range_empty(los, his)
            assert not got.any()
            assert service.worker_queries == 300
            after = engine.stats.cache_hits + engine.stats.cache_misses
            assert after > before, "worker cache traffic must fold into IoStats"
        engine.close()

# ----------------------------------------------------------------------
# Structured stats snapshot (what the CLI summary, the network stats op,
# and the front door's admission control all read)
# ----------------------------------------------------------------------
class TestStatsSnapshot:
    def test_snapshot_is_json_serialisable_and_complete(self):
        import json

        engine = build_engine()
        load_keys(engine, n=1500, seed=20)
        engine.flush_all()
        with RangeQueryService(engine, num_threads=2, cache_blocks=256) as service:
            los = np.arange(100, dtype=np.uint64) * np.uint64(1000)
            service.batch_range_empty(los, los + np.uint64(50))
            snap = service.stats_snapshot()
        json.dumps(snap)  # must round-trip the wire's JSON stats op
        assert snap["mode"] == "thread"
        assert snap["threads"] == 2
        for section in ("compaction", "queries", "cache", "io", "engine"):
            assert section in snap
        comp = snap["compaction"]
        assert comp["backlog"] == comp["queue_depth"] + comp["inflight"]
        assert comp["total_steps"] >= comp["background_steps"] >= 0
        assert snap["io"]["flushes"] == engine.stats.flushes
        assert snap["engine"]["shards"] == 4

    def test_snapshot_cache_section_tracks_cache(self):
        engine = build_engine()
        keys = load_keys(engine, n=1500, seed=21)
        engine.flush_all()
        with RangeQueryService(engine, num_threads=2, cache_blocks=256) as service:
            los = keys[:200]
            his = np.minimum(los + np.uint64(2), np.uint64(UNIVERSE - 1))
            service.batch_range_empty(los, his)
            service.batch_range_empty(los, his)  # second pass hits
            snap = service.stats_snapshot()
        cache = snap["cache"]
        assert cache["hits"] + cache["misses"] > 0
        assert 0.0 <= cache["hit_ratio"] <= 1.0
        assert cache["resident_blocks"] <= cache["capacity_blocks"] == 256

    def test_snapshot_without_cache_is_none_and_closed_flag(self):
        engine = build_engine()
        load_keys(engine, n=500, seed=22)
        service = RangeQueryService(engine, num_threads=1, cache_blocks=0)
        assert service.stats_snapshot()["cache"] is None
        assert service.stats_snapshot()["closed"] is False
        service.close()
        assert service.stats_snapshot()["closed"] is True
