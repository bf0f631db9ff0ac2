"""Tests for the sharded, persistent, batch-query engine.

Covers the contracts the subsystem introduces: shard routing and
cross-shard queries, WAL replay (including a torn tail after a simulated
crash), snapshot round trips that preserve filter behaviour bit for bit,
the deferred compaction scheduler, and parity of the vectorised batch
paths with their scalar counterparts.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import Bucketing
from repro.core.grafite import Grafite
from repro.core.serialization import unpack_int
from repro.engine import (
    OP_DELETE,
    OP_PUT,
    CompactionScheduler,
    ShardedEngine,
    ShardRouter,
    WriteAheadLog,
    run_from_bytes,
    run_to_bytes,
)
from repro.errors import CorruptionError, InvalidParameterError, InvalidQueryError
from repro.filters import FilterSpec
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTable
from repro.lsm.store import IoStats, LSMStore

UNIVERSE = 2**32


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=14, max_range_size=64, seed=7)
grafite_factory = GRAFITE_SPEC.factory()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestShardRouter:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardRouter(0, 4)
        with pytest.raises(InvalidParameterError):
            ShardRouter(100, 0)
        with pytest.raises(InvalidParameterError):
            ShardRouter(2, 3)
        with pytest.raises(InvalidQueryError):
            ShardRouter(100, 4).shard_of(100)

    def test_ranges_partition_the_universe(self):
        router = ShardRouter(1000, 7)
        covered = 0
        for sid in range(router.num_shards):
            lo, hi = router.shard_range(sid)
            assert lo == covered
            covered = hi + 1
            for key in (lo, hi):
                assert router.shard_of(key) == sid
        assert covered == 1000

    def test_split_covers_range_exactly(self):
        router = ShardRouter(1000, 4)  # width 250
        segments = router.split(100, 900)
        assert [sid for sid, _, _ in segments] == [0, 1, 2, 3]
        assert segments[0] == (0, 100, 249)
        assert segments[-1] == (3, 750, 900)
        # Segments chain with no gaps or overlaps.
        for (_, _, prev_hi), (_, next_lo, _) in zip(segments, segments[1:]):
            assert next_lo == prev_hi + 1

    def test_single_shard_split(self):
        router = ShardRouter(1000, 4)
        assert router.split(10, 20) == [(0, 10, 20)]


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_and_recover(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.log_put(5, "five")
            wal.log_put(9, {"nested": [1, 2]})
            wal.log_delete(5)
        recovered = WriteAheadLog(path).recovered
        assert recovered == [
            (OP_PUT, 5, "five"),
            (OP_PUT, 9, {"nested": [1, 2]}),
            (OP_DELETE, 5, None),
        ]

    def test_truncated_tail_drops_only_torn_record(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.log_put(1, "a")
            wal.log_put(2, "b" * 100)
        with open(path, "r+b") as fh:
            fh.seek(0, 2)
            fh.truncate(fh.tell() - 7)  # tear the middle of the last record
        wal = WriteAheadLog(path)
        assert wal.recovered == [(OP_PUT, 1, "a")]
        # Recovery truncated the torn bytes; new appends are readable.
        wal.log_put(3, "c")
        wal.close()
        assert WriteAheadLog(path).recovered == [(OP_PUT, 1, "a"), (OP_PUT, 3, "c")]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.log_put(1, "a")
            wal.log_put(2, "b")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        assert WriteAheadLog(path).recovered == [(OP_PUT, 1, "a")]

    def test_reset_clears_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_put(1, "a")
        wal.reset()
        wal.log_put(2, "b")
        wal.close()
        assert WriteAheadLog(tmp_path / "wal.log").recovered == [(OP_PUT, 2, "b")]

    def test_rejects_non_wal_file(self, tmp_path):
        path = tmp_path / "not.log"
        path.write_bytes(b"GARBAGE!")
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(path)


# ----------------------------------------------------------------------
# Run persistence
# ----------------------------------------------------------------------
class TestRunPersistence:
    def test_round_trip_with_tombstones(self):
        entries = [(1, "a"), (5, TOMBSTONE), (9, {"x": 1}), (12, TOMBSTONE)]
        run = SSTable(entries, UNIVERSE, grafite_factory)
        restored = run_from_bytes(run_to_bytes(run))
        assert restored.entries()[0] == (1, "a")
        assert restored.entries()[1][1] is TOMBSTONE
        assert restored.entries()[2] == (9, {"x": 1})
        assert restored.universe == UNIVERSE

    def test_filter_restored_byte_for_byte(self):
        keys = list(range(0, 20_000, 7))
        run = SSTable([(k, "v") for k in keys], UNIVERSE, grafite_factory)
        restored = run_from_bytes(run_to_bytes(run))
        # Same hash constants => identical answers on every probe,
        # including which empty ranges false-positive.
        rng = np.random.default_rng(3)
        for _ in range(500):
            lo = int(rng.integers(0, UNIVERSE - 64))
            hi = lo + 63
            assert restored.may_contain_range(lo, hi) == run.may_contain_range(lo, hi)
        assert restored.filter_bits == run.filter_bits

    def test_unfiltered_run_stays_unfiltered(self):
        run = SSTable([(1, "a")], UNIVERSE, None)
        restored = run_from_bytes(run_to_bytes(run))
        assert restored.filter is None

    @pytest.mark.parametrize("mode", [2, 3])
    def test_unknown_filter_mode_is_corruption(self, mode):
        """Only modes 0 (no filter) and 1 (blob) load; any other mode
        byte under a valid checksum is corruption, not a filterless run."""
        blob = bytearray(run_to_bytes(SSTable([(1, "a")], UNIVERSE, None)))
        # Header: magic, version, size, count, then ten u64 offsets and
        # lengths; off_meta is the eighth, meta_len the tenth.
        (off_meta,) = struct.unpack_from("<Q", blob, 16 + 7 * 8)
        (meta_len,) = struct.unpack_from("<Q", blob, 16 + 9 * 8)
        # Metadata: universe, slice-bounds flag, then the filter mode byte.
        _, offset = unpack_int(bytes(blob), off_meta)
        mode_at = offset + 1
        assert blob[mode_at] == 0
        blob[mode_at] = mode
        meta_end = off_meta + meta_len - 4
        crc = zlib.crc32(blob[off_meta:meta_end], zlib.crc32(blob[:96]))
        struct.pack_into("<I", blob, meta_end, crc & 0xFFFFFFFF)
        with pytest.raises(CorruptionError, match="filter mode"):
            run_from_bytes(bytes(blob))


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestCompactionScheduler:
    def test_deferred_store_does_not_compact_inline(self):
        store = LSMStore(UNIVERSE, memtable_limit=2, compaction_fanout=2,
                         auto_compact=False)
        for k in range(8):
            store.put(k, "v")
        assert store.stats.compactions == 0
        assert store.needs_compaction

    def test_drain_runs_pending_compactions(self):
        scheduler = CompactionScheduler()
        stores = []
        for sid in range(3):
            store = LSMStore(UNIVERSE, memtable_limit=2, compaction_fanout=2,
                             auto_compact=False)
            for k in range(8):
                store.put(k, "v")
            scheduler.notify(sid, store)
            stores.append(store)
        assert scheduler.pending_shards == (0, 1, 2)
        assert scheduler.drain() == 3
        assert len(scheduler) == 0
        for store in stores:
            assert store.stats.compactions == 1
            assert not store.needs_compaction

    def test_drain_budget_and_stale_entries(self):
        scheduler = CompactionScheduler()
        store = LSMStore(UNIVERSE, memtable_limit=2, compaction_fanout=2,
                         auto_compact=False)
        for k in range(8):
            store.put(k, "v")
        scheduler.notify(0, store)
        store.compact()  # someone compacted behind the scheduler's back
        assert scheduler.drain(max_steps=5) == 0  # stale entry skipped
        assert scheduler.compactions_run == 0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_routing_and_point_ops(self):
        engine = ShardedEngine(UNIVERSE, num_shards=4, memtable_limit=8)
        width = engine.router.shard_width
        for sid in range(4):
            engine.put(sid * width, f"shard{sid}")
        for sid in range(4):
            assert engine.get(sid * width) == f"shard{sid}"
            assert len(engine.shards[sid]) == 1
        engine.delete(0)
        assert engine.get(0) is None
        assert len(engine) == 3

    def test_scan_spanning_three_shards(self):
        engine = ShardedEngine(1200, num_shards=3, memtable_limit=4)  # width 400
        expected = []
        for key in (10, 399, 400, 401, 799, 800, 1100):
            engine.put(key, f"v{key}")
            expected.append((key, f"v{key}"))
        # One scan crossing both shard boundaries, in key order.
        assert engine.range_scan(5, 1150) == expected
        assert engine.range_scan(399, 401) == expected[1:4]
        assert not engine.range_empty(399, 401)
        assert not engine.range_empty(402, 799)  # crosses into shard 1's 799
        assert engine.range_empty(402, 798)
        assert engine.range_empty(801, 1099)

    def test_universe_cap(self):
        with pytest.raises(InvalidParameterError):
            ShardedEngine(2**64 + 1)

    def test_batch_matches_scalar(self):
        engine = ShardedEngine(
            UNIVERSE, num_shards=4, memtable_limit=256,
            filter_spec=GRAFITE_SPEC,
        )
        rng = np.random.default_rng(0)
        for k in np.unique(rng.integers(0, UNIVERSE, 3000, dtype=np.uint64)):
            engine.put(int(k), "v")
        engine.flush_all()
        los = rng.integers(0, UNIVERSE - 2000, 2000, dtype=np.uint64)
        his = los + rng.integers(0, 1500, 2000, dtype=np.uint64)
        batch = engine.batch_range_empty(los, his)
        scalar = np.asarray(
            [engine.range_empty(int(lo), int(hi)) for lo, hi in zip(los, his)]
        )
        assert bool((batch == scalar).all())
        assert batch.sum() > 0  # uncorrelated probes: mostly empty
        # Pruned probes were credited to the I/O ledger as avoided reads.
        assert engine.stats.reads_avoided > 0

    def test_batch_ledger_matches_scalar_with_keyless_runs(self):
        """Regression: ``shard_batch_empty`` only credited *bounded*
        runs as avoided reads, while the scalar path credits every
        pruned run — including keyless slices (a leveled span whose
        keys were all tombstoned away keeps an empty, filterless run
        owning the span). The two ledgers must agree."""
        universe = 2**24
        run = SSTable(
            [(i * 100, b"v") for i in range(100)], universe, grafite_factory
        )
        keyless = SSTable(
            [], universe, None, slice_bounds=(2**23, universe - 1)
        )
        def build():
            return LSMStore.from_runs(
                universe, level0=[run], levels=[[keyless]],
                filter_factory=grafite_factory, auto_compact=False,
            )

        # Clean probes between the stored keys: both runs prune.
        los = np.arange(40, dtype=np.uint64) * 100 + 10
        his = los + 5

        scalar_store = build()
        for lo, hi in zip(los, his):
            assert scalar_store.range_empty(int(lo), int(hi))
        batch_store = build()
        from repro.engine.batch import shard_batch_empty
        assert shard_batch_empty(batch_store, los, his).all()
        assert (
            batch_store.stats.reads_avoided
            == scalar_store.stats.reads_avoided
            == 2 * los.size  # both runs credited per query, keyless too
        )
        assert batch_store.stats.reads_performed == 0

    @pytest.mark.parametrize("n, cached", [
        *(pytest.param(n, True, id=str(n)) for n in (1, 8, 9, 64)),
        *(pytest.param(n, False, id=f"{n}-uncached") for n in (1, 8, 9, 64)),
    ])
    def test_scalar_and_columnar_lanes_match_a_range_empty_loop(
        self, n, cached, monkeypatch
    ):
        """Both lanes of ``shard_batch_empty`` — a loop for up to
        ``SCALAR_CUTOFF`` ranges, columnar above — give a loop of
        ``range_empty``'s verdicts and move the ledger and every run's
        I/O counter the same way, with and without a block cache, on a
        leveled shard under a newer run that tombstones and expires
        older live keys, with live and tombstoned memtable entries."""
        from repro.engine import batch as batch_mod
        from repro.lsm.cache import BlockCache
        from repro.lsm.compaction import LeveledPolicy
        from repro.lsm.ttl import ExpiringValue

        universe = 2**20
        columnar_calls = []
        columnar = batch_mod._columnar_empty
        monkeypatch.setattr(
            batch_mod, "_columnar_empty",
            lambda *args: columnar_calls.append(1) or columnar(*args),
        )
        walked = []  # run count of every scalar walk
        walk = LSMStore._walk_runs
        monkeypatch.setattr(
            LSMStore, "_walk_runs",
            lambda self, runs, *args: walked.append(len(runs)) or walk(self, runs, *args),
        )
        keys = np.random.default_rng(3).choice(universe, 1200, replace=False).tolist()

        def build():
            store = LSMStore(
                universe, memtable_limit=50, filter_factory=grafite_factory,
                compaction_policy=LeveledPolicy(slice_target=40),
                auto_compact=False,
            )
            for key in keys:
                store.put(key, b"v")
            store.compact()
            # One newer run: tombstones (some over older live keys) and
            # entries that expire, over older live keys and over none.
            for key in range(0, 20_000, 1000):
                store.delete(key)
            for key in keys[:4]:
                store.delete(key)
            for key in keys[4:8] + [900_001]:
                store.put(key, ExpiringValue(b"t", 5))
            store.flush()
            store.set_ttl_now(10)
            for key in (600_000, 600_100):
                store.put(key, b"m")  # live memtable entries
            for key in (700_000, 700_500):
                store.delete(key)  # tombstoned memtable entries
            if cached:
                store.attach_cache(BlockCache(64, num_stripes=2))
            return store

        loop_store, batch_store = build(), build()
        assert len(batch_store._memtable) > 0
        assert batch_store.run_count > 2
        rng = np.random.default_rng(n)
        fixed = [
            (keys[0], keys[0]), (keys[4], keys[4]), (900_001, 900_001),
            (600_050, 600_100), (700_000, 700_000), (700_400, 700_600),
            (keys[1] - 5, keys[1] + 200), (5_000, 5_100), (0, 10),
        ]
        los = np.concatenate((
            np.asarray([lo for lo, _ in fixed], dtype=np.uint64),
            rng.integers(0, universe - 300, max(n - len(fixed), 0),
                         dtype=np.uint64),
        ))[:n]
        his = np.concatenate((
            np.asarray([hi for _, hi in fixed], dtype=np.uint64),
            los[len(fixed):] + rng.integers(0, 256, max(n - len(fixed), 0)).astype(np.uint64),
        ))[:n]
        fields = ("reads_performed", "reads_avoided", "wasted_reads",
                  "cache_hits", "cache_misses")

        def ledger(store):
            return ([getattr(store.stats, f) for f in fields]
                    + [run.io_reads for run in store._runs()])

        before = ledger(loop_store)
        want = [loop_store.range_empty(int(lo), int(hi))
                for lo, hi in zip(los, his)]
        loop_delta = np.subtract(ledger(loop_store), before).tolist()
        before = ledger(batch_store)
        walked.clear()
        got = batch_mod.shard_batch_empty(batch_store, los, his)
        batch_delta = np.subtract(ledger(batch_store), before).tolist()

        assert got.tolist() == want
        assert batch_delta == loop_delta
        if n >= len(fixed):
            assert want[:3] == [True, True, True]  # shadowed, not deleted
            assert not all(want) and any(want)
            assert batch_delta[0] > 0 and batch_delta[1] > 0
            if cached:
                assert batch_delta[4] > 0
            else:
                # A shadowed hand-off walks on from the next run.
                assert min(walked) < batch_store.run_count
        assert len(columnar_calls) == int(n > batch_mod.SCALAR_CUTOFF)

    @pytest.mark.parametrize("cached", [False, True])
    def test_columnar_lane_never_probes_a_filter_twice(self, cached, monkeypatch):
        """The batch filter pass's verdicts carry into verification: the
        columnar lane never calls the scalar ``Grafite.may_contain_range``."""
        from repro.engine.batch import shard_batch_empty
        from repro.lsm.cache import BlockCache

        scalar_probes = []
        probe = Grafite.may_contain_range
        monkeypatch.setattr(
            Grafite, "may_contain_range",
            lambda self, lo, hi: scalar_probes.append(1) or probe(self, lo, hi),
        )
        store = LSMStore(UNIVERSE, memtable_limit=200, filter_factory=grafite_factory)
        keys = np.random.default_rng(5).choice(10**6, 700, replace=False) + 10
        for key in keys.tolist():
            store.put(key, b"v")
        if cached:
            store.attach_cache(BlockCache(32))
        assert store.run_count > 1
        los = np.sort(keys[:64]).astype(np.uint64) - np.uint64(3)
        empty = shard_batch_empty(store, los, los + np.uint64(40))
        assert not empty.all()
        assert scalar_probes == []
        store.range_empty(int(los[0]), int(los[0]) + 40)
        assert scalar_probes  # the scalar path does probe

    def test_columnar_lane_raises_on_a_released_run(self, monkeypatch):
        """A run whose storage is retired between the filter pass and the
        read raises ``CorruptionError`` from the columnar lane, as
        ``SSTable.scan`` does."""
        from repro.engine.batch import shard_batch_empty
        from repro.errors import CorruptionError

        store = LSMStore(UNIVERSE, memtable_limit=100, filter_factory=grafite_factory)
        keys = list(range(1000, 60_000, 500))
        for key in keys:
            store.put(key, b"v")
        store.flush()
        store.request_compaction()
        store.compact()
        (run,) = store._runs()
        batch_probe = Grafite.may_contain_range_batch

        def probe_then_release(self, los, his):
            verdicts = batch_probe(self, los, his)
            if self is run.filter:
                run.release()
            return verdicts
        monkeypatch.setattr(Grafite, "may_contain_range_batch", probe_then_release)
        los = np.asarray(keys[:20], dtype=np.uint64)
        with pytest.raises(CorruptionError):
            shard_batch_empty(store, los, los)

    def test_batch_sees_memtable_and_tombstones(self):
        engine = ShardedEngine(1000, num_shards=2, memtable_limit=100)
        engine.put(700, "unflushed")
        result = engine.batch_range_empty([690, 100], [710, 120])
        assert list(result) == [False, True]
        engine.delete(700)
        assert list(engine.batch_range_empty([690], [710])) == [True]

    def test_deferred_compaction_drained_between_batches(self):
        engine = ShardedEngine(
            1000, num_shards=2, memtable_limit=2, compaction_fanout=2,
        )
        for k in range(0, 16):
            engine.put(k, "v")
        assert engine.stats.compactions == 0
        assert len(engine.scheduler) > 0
        engine.batch_range_empty([500], [600])  # batch entry drains the queue
        assert engine.stats.compactions > 0
        assert len(engine.scheduler) == 0

    def test_aggregated_stats_sum_shards(self):
        engine = ShardedEngine(1000, num_shards=2, memtable_limit=2)
        for k in (10, 20, 600, 700):
            engine.put(k, "v")
        engine.flush_all()
        engine.range_scan(0, 999)
        total = engine.stats
        by_hand = IoStats.aggregate(engine.per_shard_stats)
        assert total == by_hand
        assert total.reads_performed == sum(
            s.reads_performed for s in engine.per_shard_stats
        )


# ----------------------------------------------------------------------
# Durability: WAL replay, crash recovery, snapshot round trips
# ----------------------------------------------------------------------
class TestDurability:
    def _fill(self, engine, seed=0, ops=400):
        rng = np.random.default_rng(seed)
        model = {}
        for i in range(ops):
            key = int(rng.integers(0, engine.universe))
            if i % 7 == 6 and model:
                victim = next(iter(model))
                engine.delete(victim)
                del model[victim]
            else:
                engine.put(key, f"v{i}")
                model[key] = f"v{i}"
        return model

    def test_snapshot_round_trip_identical_results(self, tmp_path):
        engine = ShardedEngine(
            UNIVERSE, num_shards=3, memtable_limit=64,
            filter_spec=GRAFITE_SPEC, directory=tmp_path / "db",
        )
        model = self._fill(engine)
        rng = np.random.default_rng(42)
        los = rng.integers(0, UNIVERSE - 200, 1000, dtype=np.uint64)
        his = los + 99
        before = engine.batch_range_empty(los, his)
        before_stats_decisions = engine.stats.total_filter_decisions
        engine.close()  # checkpoint + WAL reset

        reopened = ShardedEngine.open(tmp_path / "db")
        assert reopened.range_scan(0, UNIVERSE - 1) == sorted(model.items())
        after = reopened.batch_range_empty(los, his)
        # Identical answers, including which probes false-positive: the
        # snapshot restored the filters' hash constants, not rebuilt them.
        assert bool((before == after).all())
        assert before_stats_decisions > 0

    def test_crash_without_checkpoint_replays_wal(self, tmp_path):
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=32, directory=tmp_path / "db"
        )
        model = self._fill(engine, seed=1)
        engine._wal.close()  # simulated crash: no checkpoint, no flush

        recovered = ShardedEngine.open(tmp_path / "db")
        assert recovered.range_scan(0, UNIVERSE - 1) == sorted(model.items())
        assert len(recovered) == len(model)

    def test_kill_mid_batch_truncated_record(self, tmp_path):
        """The issue's scenario: die mid-write, tear the last WAL record."""
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=1024, directory=tmp_path / "db"
        )
        model = self._fill(engine, seed=2, ops=100)
        engine.put(123_456, "committed")
        model[123_456] = "committed"
        engine.put(654_321, "torn-away")  # this record will be torn
        wal_path = engine._wal.path
        engine._wal.close()
        with open(wal_path, "r+b") as fh:
            fh.seek(0, 2)
            fh.truncate(fh.tell() - 5)

        recovered = ShardedEngine.open(tmp_path / "db")
        assert recovered.get(123_456) == "committed"
        assert recovered.get(654_321) is None
        assert recovered.range_scan(0, UNIVERSE - 1) == sorted(model.items())

    def test_crash_after_checkpoint_replays_only_tail(self, tmp_path):
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=16,
            filter_spec=GRAFITE_SPEC, directory=tmp_path / "db",
        )
        model = self._fill(engine, seed=3, ops=200)
        engine.checkpoint()
        # Post-checkpoint tail, lost memtable, then crash.
        for key in (11, 22, 33):
            engine.put(key, f"tail{key}")
            model[key] = f"tail{key}"
        engine._wal.close()

        recovered = ShardedEngine.open(tmp_path / "db")
        assert recovered.range_scan(0, UNIVERSE - 1) == sorted(model.items())

    def test_open_refuses_missing_and_init_refuses_existing(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            ShardedEngine.open(tmp_path / "nothing-here")
        engine = ShardedEngine(1000, num_shards=2, directory=tmp_path / "db")
        engine.close()
        with pytest.raises(InvalidParameterError):
            ShardedEngine(1000, num_shards=2, directory=tmp_path / "db")

    def test_checkpoint_is_crash_atomic(self, tmp_path):
        """A crash at any point inside save_snapshot must leave the
        previous checkpoint recoverable: new run files are written under
        fresh generation-stamped names and the manifest rename is the
        only commit point."""
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=8, directory=tmp_path / "db"
        )
        model = self._fill(engine, seed=4, ops=60)
        engine.checkpoint()
        import repro.engine.persist as persist_mod

        manifest_before = (tmp_path / "db" / "MANIFEST.json").read_bytes()
        # Simulate dying mid-checkpoint: run files written, no manifest
        # rename, no garbage collection.
        real_replace = persist_mod.Path.replace
        try:
            def crash(self, target):
                raise OSError("simulated crash before manifest commit")
            persist_mod.Path.replace = crash
            engine.put(777, "lost-with-the-wal?")
            with pytest.raises(OSError):
                engine.checkpoint()
        finally:
            persist_mod.Path.replace = real_replace
        assert (tmp_path / "db" / "MANIFEST.json").read_bytes() == manifest_before
        engine._wal.close()
        recovered = ShardedEngine.open(tmp_path / "db")
        # Old snapshot intact, post-checkpoint write replayed from the WAL.
        assert recovered.range_scan(0, UNIVERSE - 1) == sorted(
            {**model, 777: "lost-with-the-wal?"}.items()
        )

    def test_checkpoint_garbage_collects_old_generations(self, tmp_path):
        from repro.engine import persist

        engine = ShardedEngine(
            UNIVERSE, num_shards=1, memtable_limit=4, directory=tmp_path / "db"
        )
        for seed in (5, 6, 7):
            self._fill(engine, seed=seed, ops=40)
            engine.checkpoint()
        names = {p.name for p in (tmp_path / "db" / "shard-0000").glob("*.sst")}
        reopened = ShardedEngine.open(tmp_path / "db")  # must still load
        assert reopened.run_count >= 1
        # The current epoch and the retained previous one (rollback
        # fodder) survive on disk; every older generation is collected.
        current = persist.load_manifest(tmp_path / "db")
        previous = persist.load_manifest(
            tmp_path / "db", name=persist.PREV_MANIFEST_NAME
        )
        kept = {f"{current['generation']:06d}", f"{previous['generation']:06d}"}
        generations = {n.split("-")[1] for n in names}
        assert generations <= kept
        assert f"{current['generation']:06d}" in generations

    def test_reopened_shards_rejoin_compaction_scheduler(self, tmp_path):
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=2, compaction_fanout=3,
            directory=tmp_path / "db",
        )
        for k in range(24):
            engine.put(k, "v")  # plenty of level-0 runs, never drained
        engine.flush_all()
        assert any(s.needs_compaction for s in engine.shards)
        persist_stats = engine.stats.compactions
        engine.checkpoint()  # snapshots the un-compacted level 0
        engine._wal.close()

        recovered = ShardedEngine.open(tmp_path / "db")
        assert any(s.needs_compaction for s in recovered.shards)
        # Read-only workload: the batch entry point must still drain.
        recovered.batch_range_empty([500], [600])
        assert not any(s.needs_compaction for s in recovered.shards)
        assert recovered.stats.compactions > persist_stats

    def test_context_manager_checkpoints_on_clean_exit(self, tmp_path):
        with ShardedEngine(1000, num_shards=2, directory=tmp_path / "db") as engine:
            engine.put(7, "seven")
        reopened = ShardedEngine.open(tmp_path / "db")
        assert reopened.get(7) == "seven"
        # Clean shutdown checkpointed: the data lives in runs, not the WAL.
        assert reopened.run_count >= 1


# ----------------------------------------------------------------------
# Model-based: the sharded engine behaves like a dict
# ----------------------------------------------------------------------
class TestModelBased:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dict_reference(self, data):
        engine = ShardedEngine(
            10_000,
            num_shards=data.draw(st.integers(min_value=1, max_value=5)),
            memtable_limit=data.draw(st.integers(min_value=1, max_value=8)),
            compaction_fanout=2,
            filter_spec=GRAFITE_SPEC if data.draw(st.booleans()) else None,
        )
        model: dict[int, str] = {}
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["put", "delete", "get", "scan", "empty", "drain"]),
                    st.integers(min_value=0, max_value=9_999),
                    st.integers(min_value=0, max_value=400),
                ),
                max_size=50,
            )
        )
        for op, key, extra in ops:
            if op == "put":
                engine.put(key, f"v{extra}")
                model[key] = f"v{extra}"
            elif op == "delete":
                engine.delete(key)
                model.pop(key, None)
            elif op == "get":
                assert engine.get(key) == model.get(key)
            elif op == "drain":
                engine.drain_compactions()
            elif op == "scan":
                hi = min(9_999, key + extra)
                expected = sorted((k, v) for k, v in model.items() if key <= k <= hi)
                assert engine.range_scan(key, hi) == expected
            else:  # empty
                hi = min(9_999, key + extra)
                expected_empty = not any(key <= k <= hi for k in model)
                assert engine.range_empty(key, hi) == expected_empty
                assert bool(engine.batch_range_empty([key], [hi])[0]) == expected_empty
        assert engine.range_scan(0, 9_999) == sorted(model.items())


# ----------------------------------------------------------------------
# Batch filter API parity (the layer the engine builds on)
# ----------------------------------------------------------------------
class TestBatchFilterApi:
    @pytest.mark.parametrize("build", [
        lambda keys: Grafite(keys, UNIVERSE, bits_per_key=12, max_range_size=64, seed=5),
        lambda keys: Grafite(keys, UNIVERSE, eps=0.4, max_range_size=4, seed=5),
        lambda keys: Bucketing(keys, UNIVERSE, bits_per_key=10),
    ])
    def test_batch_equals_scalar(self, build):
        rng = np.random.default_rng(11)
        keys = np.unique(rng.integers(0, UNIVERSE, 5000, dtype=np.uint64))
        filt = build(keys)
        los = rng.integers(0, UNIVERSE - 5000, 3000, dtype=np.uint64)
        his = los + rng.integers(0, 4000, 3000, dtype=np.uint64)
        batch = filt.may_contain_range_batch(los, his)
        scalar = np.asarray(
            [filt.may_contain_range(int(lo), int(hi)) for lo, hi in zip(los, his)]
        )
        assert bool((batch == scalar).all())

    def test_exact_mode_batch(self):
        filt = Grafite(list(range(0, 1000, 13)), 1000, bits_per_key=30,
                       max_range_size=64, seed=5)
        assert filt.is_exact
        los = np.arange(0, 990, dtype=np.uint64)
        his = los + 5
        batch = filt.may_contain_range_batch(los, his)
        scalar = np.asarray(
            [filt.may_contain_range(int(lo), int(hi)) for lo, hi in zip(los, his)]
        )
        assert bool((batch == scalar).all())

    def test_empty_filter_and_empty_batch(self):
        filt = Grafite([], UNIVERSE, eps=0.1)
        assert list(filt.may_contain_range_batch([1, 2], [5, 6])) == [False, False]
        assert filt.may_contain_range_batch([], []).size == 0

    def test_batch_validation(self):
        filt = Grafite([5], UNIVERSE, eps=0.1)
        with pytest.raises(InvalidQueryError):
            filt.may_contain_range_batch([10], [5])
        with pytest.raises(InvalidQueryError):
            filt.may_contain_range_batch([0], [UNIVERSE])
        with pytest.raises(InvalidQueryError):
            filt.may_contain_range_batch([0, 1], [2])

    def test_generic_fallback_used_by_other_filters(self):
        from repro.filters.surf import SuRF

        filt = SuRF([10, 20, 30], UNIVERSE, seed=2)
        assert "may_contain_range_batch" not in type(filt).__dict__  # inherits loop
        out = filt.may_contain_range_batch([10, 500_000], [10, 500_031])
        scalar = [filt.may_contain_range(10, 10),
                  filt.may_contain_range(500_000, 500_031)]
        assert list(out) == scalar
        assert bool(out[0])  # no false negatives

    def test_big_integer_universe_falls_back_to_scalar(self):
        keys = [2**70, 2**80, 2**100]
        filt = Grafite(keys, 2**128, eps=0.01, max_range_size=16, seed=3)
        los = [2**70, 2**90]
        his = [2**70 + 3, 2**90 + 3]
        batch = filt.may_contain_range_batch(los, his)
        scalar = [filt.may_contain_range(lo, hi) for lo, hi in zip(los, his)]
        assert list(batch) == scalar
        assert bool(batch[0])  # the stored key must be found

    def test_empty_bucketing_batch_still_validates(self):
        filt = Bucketing([], UNIVERSE, bucket_size=16)
        with pytest.raises(InvalidQueryError):
            filt.may_contain_range_batch([10], [5])
        with pytest.raises(InvalidQueryError):
            filt.may_contain_range_batch([0], [UNIVERSE])
        assert list(filt.may_contain_range_batch([1], [2])) == [False]

    def test_no_false_negatives_in_batch(self):
        rng = np.random.default_rng(9)
        keys = np.unique(rng.integers(0, UNIVERSE, 2000, dtype=np.uint64))
        filt = Grafite(keys, UNIVERSE, bits_per_key=10, max_range_size=32, seed=1)
        los = keys[:500]
        his = np.minimum(los + 10, UNIVERSE - 1)
        assert bool(filt.may_contain_range_batch(los, his).all())
