"""Tests for the sharded, persistent, batch-query engine.

Covers the contracts the subsystem introduces: shard routing and
cross-shard queries, WAL replay (including a torn tail after a simulated
crash), snapshot round trips that rebuild filters with identical verdicts,
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
from repro.engine.persist import unpack_int
from repro.errors import CorruptionError, InvalidParameterError, InvalidQueryError
from repro.filters import FilterSpec
from repro.lsm.cache import (
    _F_BLOCK, _F_TICK, _F_UID, _F_USED, BlockCache, SharedBlockCache,
)
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTable
from repro.lsm.store import IoStats, LSMStore
from repro.lsm.ttl import unwrap

UNIVERSE = 2**32
SHADOWING_UNIVERSE = 2**20
SHADOWING_KEYS = np.random.default_rng(3).choice(
    SHADOWING_UNIVERSE, 1200, replace=False
).tolist()


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=14, max_range_size=64, seed=7)
grafite_factory = GRAFITE_SPEC.factory()

LEDGER_FIELDS = ("reads_performed", "reads_avoided", "wasted_reads",
                 "cache_hits", "cache_misses")


def ledger(store):
    """The store's read ledger followed by every run's I/O counter."""
    return ([getattr(store.stats, f) for f in LEDGER_FIELDS]
            + [run.io_reads for run in store._runs()])


#: Block caches the ledger tests run under, by name: none, the LRU, an
#: LRU small enough to evict in the middle of a sub-batch, the slab.
CACHE_KINDS = {
    "lru": lambda: BlockCache(64, num_stripes=2),
    "tiny": lambda: BlockCache(2, num_stripes=1),
    "shared": lambda: SharedBlockCache(8, num_stripes=2),
}


@pytest.fixture
def caches():
    """``caches(kind)`` builds a :data:`CACHE_KINDS` cache (``None`` for
    none); every slab is closed at teardown."""
    made = []

    def make(kind):
        cache = None if kind is None else CACHE_KINDS[kind]()
        made.append(cache)
        return cache
    yield make
    for cache in made:
        if isinstance(cache, SharedBlockCache):
            cache.close()


def align_run_ids(store):
    """Number the store's runs by read-view position, in ``uid`` and in
    ``shared_id``: stores built alike then key their blocks alike, so
    their caches place and evict them alike."""
    for p, run in enumerate(store._runs()):
        run.uid = 10**9 + p
        run.shared_id = p + 1


def cache_state(cache):
    """The cache's resident blocks in LRU order: each stripe's keys for
    a ``BlockCache``, ``(slot, uid, block)`` by tick for a slab."""
    if cache is None:
        return None
    if isinstance(cache, SharedBlockCache):
        slots = cache._slots
        used = np.flatnonzero(slots[:, _F_USED])
        order = used[np.argsort(slots[used, _F_TICK], kind="stable")]
        return [(int(s), int(slots[s, _F_UID]), int(slots[s, _F_BLOCK]))
                for s in order]
    return [list(stripe.blocks) for stripe in cache._stripes]


def per_slice_runs(store, lo, hi):
    """The runs ``[lo, hi]`` must read, by the run-by-run walk every read
    path took before levels were fenced: each run in recency order, a
    fence check on its key bounds, then its filter; each skipped run is
    credited to ``reads_avoided`` as it is passed."""
    for run in store._runs():
        if not run.overlaps(lo, hi) or not run.may_contain_range(lo, hi):
            store.stats.reads_avoided += 1
            continue
        yield run


def per_slice_range_empty(store, lo, hi):
    """Reference ``range_empty``: the run-by-run walk over every slice."""
    shadowed = store._memtable_shadowed(lo, hi)
    if shadowed is None:
        return False
    for run in per_slice_runs(store, lo, hi):
        store.stats.reads_performed += 1
        matches = store._run_scan(run, lo, hi)
        if not matches:
            store.stats.wasted_reads += 1
            continue
        for key, live in matches.items_with_liveness(store.ttl_now):
            if key in shadowed:
                continue
            if live:
                return False
            shadowed.add(key)
    return True


def per_slice_get(store, key):
    """Reference ``get``: the run-by-run walk over every slice."""
    found, value = store._memtable.get(key)
    if found:
        return unwrap(value) if store._is_live(value) else None
    for run in per_slice_runs(store, key, key):
        store.stats.reads_performed += 1
        matches = store._run_scan(run, key, key)
        if matches:
            value = matches[0][1]
            return unwrap(value) if store._is_live(value) else None
        store.stats.wasted_reads += 1
    return None


def per_slice_range_scan(store, lo, hi):
    """Reference ``range_scan``: the run-by-run walk over every slice."""
    merged = dict(store._memtable.scan(lo, hi))
    for run in per_slice_runs(store, lo, hi):
        store.stats.reads_performed += 1
        matches = store._run_scan(run, lo, hi)
        if not matches:
            store.stats.wasted_reads += 1
        for key, value in matches:
            merged.setdefault(key, value)
    return [(k, unwrap(v)) for k, v in sorted(merged.items())
            if store._is_live(v)]


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

    def test_filter_rebuilt_with_identical_verdicts(self):
        keys = list(range(0, 20_000, 7))
        run = SSTable([(k, "v") for k in keys], UNIVERSE, grafite_factory)
        restored = run_from_bytes(run_to_bytes(run))
        # The recorded spec fixes the seed => the same hash constants, so
        # identical answers on every probe, including which empty ranges
        # false-positive.
        assert restored.filter.spec == GRAFITE_SPEC
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

    def test_filter_no_spec_built_cannot_be_checkpointed(self):
        run = SSTable([(1, "a"), (9, "b")], UNIVERSE,
                      lambda keys, u: Grafite(keys, u, bits_per_key=10))
        with pytest.raises(InvalidParameterError, match="not built by a FilterSpec"):
            run_to_bytes(run)

    @pytest.mark.parametrize(
        "record",
        [
            b'{"backend": "nope", "bits_per_key": 12.0, '
            b'"max_range_size": 32, "seed": 0}',
            b'{"backend": "grafite", "bits_per_key": NaN, '
            b'"max_range_size": 32, "seed": 0}',
            b'{"backend": "grafite", "bits_per_key": 12.0, '
            b'"max_range_size": 32, "seed": -1}',
            b'{"backend": "grafite", "bits_per_key": 12.0, '
            b'"max_range_size": 1.5, "seed": 0}',
            b'{"backend": "grafite", "bits_per_key": 12.0}',
            b'["grafite"]',
            b"not json",
        ],
        ids=["unknown-backend", "nan-bits", "negative-seed", "float-range",
             "missing-fields", "list", "not-json"],
    )
    def test_unbuildable_spec_record_is_corruption(self, record):
        """A spec record under a valid checksum that names no buildable
        filter is corruption, never an escaping InvalidParameterError."""
        blob = run_to_bytes(SSTable([(1, "a")], UNIVERSE, grafite_factory))
        with pytest.raises(CorruptionError, match="filter spec"):
            run_from_bytes(with_spec_record(blob, record))


def with_spec_record(blob: bytes, record: bytes) -> bytes:
    """Rewrite a run file's filter-spec record, re-sealing the header
    and metadata under a valid crc32."""
    header = bytearray(blob[:96])
    # Header: magic, version, size, count, then ten u64 offsets and
    # lengths; off_meta is the eighth, meta_len the tenth.
    (off_meta,) = struct.unpack_from("<Q", header, 16 + 7 * 8)
    (meta_len,) = struct.unpack_from("<Q", header, 16 + 9 * 8)
    meta = blob[off_meta:off_meta + meta_len - 4]
    # Metadata: universe, slice-bounds flag (+ bounds), then the record.
    _, offset = unpack_int(meta, 0)
    sliced = meta[offset]
    offset += 1
    if sliced:
        _, offset = unpack_int(meta, offset)
        _, offset = unpack_int(meta, offset)
    body = meta[:offset] + struct.pack("<I", len(record)) + record
    struct.pack_into("<Q", header, 16 + 9 * 8, len(body) + 4)
    crc = zlib.crc32(body, zlib.crc32(bytes(header))) & 0xFFFFFFFF
    return bytes(header) + blob[96:off_meta] + body + struct.pack("<I", crc)


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

    @staticmethod
    def _shadowing_store(cache=None):
        """A leveled shard under a newer run that tombstones and expires
        older live keys, with live and tombstoned memtable entries, and
        ``cache`` attached (run ids aligned, see :func:`align_run_ids`)."""
        from repro.lsm.compaction import LeveledPolicy
        from repro.lsm.ttl import ExpiringValue

        store = LSMStore(
            SHADOWING_UNIVERSE, memtable_limit=50,
            filter_factory=grafite_factory,
            compaction_policy=LeveledPolicy(slice_target=40),
            auto_compact=False,
        )
        for key in SHADOWING_KEYS:
            store.put(key, b"v")
        store.compact()
        # One newer run: tombstones (some over older live keys) and
        # entries that expire, over older live keys and over none.
        for key in range(0, 20_000, 1000):
            store.delete(key)
        for key in SHADOWING_KEYS[:4]:
            store.delete(key)
        for key in SHADOWING_KEYS[4:8] + [900_001]:
            store.put(key, ExpiringValue(b"t", 5))
        store.flush()
        store.set_ttl_now(10)
        for key in (600_000, 600_100):
            store.put(key, b"m")  # live memtable entries
        for key in (700_000, 700_500):
            store.delete(key)  # tombstoned memtable entries
        align_run_ids(store)
        store.attach_cache(cache)
        return store

    SHADOWING_FIXED = [
        (SHADOWING_KEYS[0], SHADOWING_KEYS[0]),
        (SHADOWING_KEYS[4], SHADOWING_KEYS[4]), (900_001, 900_001),
        (600_050, 600_100), (700_000, 700_000), (700_400, 700_600),
        (SHADOWING_KEYS[1] - 5, SHADOWING_KEYS[1] + 200), (5_000, 5_100),
        (0, 10),
    ]

    def _shadowing_queries(self, n, seed):
        """``n`` ranges: the fixed cases above, then random ones."""
        fixed = self.SHADOWING_FIXED
        rng = np.random.default_rng(seed)
        extra = max(n - len(fixed), 0)
        los = np.concatenate((
            np.asarray([lo for lo, _ in fixed], dtype=np.uint64),
            rng.integers(0, SHADOWING_UNIVERSE - 300, extra, dtype=np.uint64),
        ))[:n]
        his = np.concatenate((
            np.asarray([hi for _, hi in fixed], dtype=np.uint64),
            los[len(fixed):] + rng.integers(0, 256, extra).astype(np.uint64),
        ))[:n]
        return los, his

    @pytest.mark.parametrize("n, cache", [
        pytest.param(n, cache, id=f"{n}{suffix}")
        for cache, suffix in (("lru", ""), (None, "-uncached"),
                              ("tiny", "-tiny"), ("shared", "-shared"))
        for n in (1, 8, 9, 64)
    ])
    def test_scalar_and_columnar_lanes_match_a_range_empty_loop(
        self, n, cache, caches, monkeypatch
    ):
        """Both lanes of ``shard_batch_empty`` — a loop for up to
        ``SCALAR_CUTOFF`` ranges, columnar above — give a loop of
        ``range_empty``'s verdicts and move the ledger and every run's
        I/O counter the same way, and leave the block cache (none, an
        LRU, one small enough to evict mid-batch, a shared slab) holding
        the same blocks in the same LRU order, over two sub-batches in a
        row. The loop itself matches the run-by-run reference walk."""
        from repro.engine import batch as batch_mod

        columnar_calls = []
        columnar = batch_mod._columnar_empty
        monkeypatch.setattr(
            batch_mod, "_columnar_empty",
            lambda *args: columnar_calls.append(1) or columnar(*args),
        )
        walked = []  # read-view position every scalar walk starts at
        walk = LSMStore._walk_runs
        monkeypatch.setattr(
            LSMStore, "_walk_runs",
            lambda self, lo, hi, shadowed, first=0, *rest: (
                walked.append(first)
                or walk(self, lo, hi, shadowed, first, *rest)
            ),
        )
        ref_store, loop_store, batch_store = (
            self._shadowing_store(caches(cache)) for _ in range(3)
        )
        assert len(batch_store._memtable) > 0
        assert batch_store.run_count > 2
        for seed in (n, n + 1000):  # the second sub-batch meets a warm cache
            los, his = self._shadowing_queries(n, seed)
            before = ledger(ref_store)
            ref = [per_slice_range_empty(ref_store, int(lo), int(hi))
                   for lo, hi in zip(los, his)]
            ref_delta = np.subtract(ledger(ref_store), before).tolist()
            before = ledger(loop_store)
            want = [loop_store.range_empty(int(lo), int(hi))
                    for lo, hi in zip(los, his)]
            loop_delta = np.subtract(ledger(loop_store), before).tolist()
            before = ledger(batch_store)
            walked.clear()
            got = batch_mod.shard_batch_empty(batch_store, los, his)
            batch_delta = np.subtract(ledger(batch_store), before).tolist()

            assert got.tolist() == want == ref
            assert batch_delta == loop_delta == ref_delta
            assert (cache_state(batch_store.cache)
                    == cache_state(loop_store.cache)
                    == cache_state(ref_store.cache))
            if n >= len(self.SHADOWING_FIXED):
                assert want[:3] == [True, True, True]  # shadowed, not deleted
                assert not all(want) and any(want)
                assert batch_delta[0] > 0 and batch_delta[1] > 0
                if cache is not None and seed == n:
                    assert batch_delta[4] > 0
                # A shadowed hand-off walks on from the next run.
                assert max(walked) > 0
        if cache == "tiny" and n > batch_mod.SCALAR_CUTOFF:
            assert batch_delta[4] > 2  # evictions within each sub-batch
        assert len(columnar_calls) == 2 * int(n > batch_mod.SCALAR_CUTOFF)

    @pytest.mark.parametrize("cache", ("lru", "tiny", "shared"))
    def test_cached_columnar_lane_makes_no_per_query_scan(
        self, cache, caches, monkeypatch
    ):
        """A cached store's columnar lane reads no range through
        ``scan`` — the per-query walk through the cache is gone — and
        calls ``touch`` exactly as often as a ``range_empty`` loop."""
        from repro.engine.batch import SCALAR_CUTOFF, shard_batch_empty
        from repro.lsm.cache import BlockCache, SharedBlockCache, _CacheCommon

        scans, fetches = [], []
        scan = _CacheCommon.scan
        monkeypatch.setattr(
            _CacheCommon, "scan",
            lambda self, *args: scans.append(1) or scan(self, *args),
        )
        for cls in (BlockCache, SharedBlockCache):
            monkeypatch.setattr(
                cls, "touch",
                lambda self, *args, _fetch=cls.touch: (
                    fetches.append(1) or _fetch(self, *args)
                ),
            )
        loop_store, batch_store = (
            self._shadowing_store(caches(cache)) for _ in range(2)
        )
        los, his = self._shadowing_queries(64, 7)
        assert los.size > SCALAR_CUTOFF
        for lo, hi in zip(los.tolist(), his.tolist()):
            loop_store.range_empty(lo, hi)
        loop_scans, loop_fetches = len(scans), len(fetches)
        assert loop_scans > 0 and loop_fetches > 0
        del scans[:], fetches[:]
        shard_batch_empty(batch_store, los, his)
        assert len(scans) == 0
        assert len(fetches) == loop_fetches
        assert cache_state(batch_store.cache) == cache_state(loop_store.cache)

    @staticmethod
    def _fenced_store(cache=None):
        """A two-level sliced shard over the full 64-bit universe, built
        run by run: a coalesced empty placeholder slice in each level,
        slices whose tombstones shadow live keys of the older level,
        keys 0 and 2^64 - 1, a level-0 run and memtable entries on top.
        The newer level's slices have filters, the older level's none, so
        its fence-passing probes read slices that hold nothing in range.
        ``cache`` is attached with the run ids aligned."""
        universe = 2**64
        top = universe - 1

        def piece(entries, span, factory=grafite_factory):
            return SSTable(sorted(entries), universe,
                           factory if entries else None, slice_bounds=span)

        newer = [
            piece([(0, b"a"), (10, TOMBSTONE), (500, TOMBSTONE)], (0, 999)),
            piece([(1000, TOMBSTONE), (1500, b"b"), (5000, TOMBSTONE),
                   (7000, b"b")]
                  + [(2**39 + 3 * i, b"b") for i in range(40)],
                  (1000, 2**40 - 1)),
            piece([], (2**40, 2**50 - 1)),  # two placeholders, fused
            piece([(2**50 + 1, b"d"), (top - 5, TOMBSTONE), (top, b"d")],
                  (2**50, top)),
        ]
        older = [
            piece([(10, b"e"), (20, b"e"), (5000, b"e"), (6000, b"e"),
                   (2**41 + 7, b"e")]
                  + [(2**39 + 3 * i + 1, b"e") for i in range(40)],
                  (0, 2**45 - 1), None),
            piece([], (2**45, 2**48 - 1)),
            piece([(2**48 + 3, b"g"), (top - 5, b"g"), (top - 1, b"g")],
                  (2**48, top), None),
        ]
        level0 = [SSTable([(20, TOMBSTONE), (2**41 + 100, b"z")], universe,
                          grafite_factory)]
        store = LSMStore.from_runs(
            universe, level0=level0, levels=[newer, older],
            filter_factory=grafite_factory, compaction_policy="leveled",
            auto_compact=False,
        )
        store.put(6000, b"m")
        store.delete(2**39 + 4)
        align_run_ids(store)
        store.attach_cache(cache)
        return store

    FENCED_QUERIES = [
        (0, 0), (2**64 - 1, 2**64 - 1), (0, 2**64 - 1), (10, 10),
        (5000, 5000), (999, 1000), (400, 1500), (2**41, 2**41 + 10),
        (2**45 + 5, 2**46), (2**64 - 6, 2**64 - 4), (20, 20),
        (2**40 - 10, 2**40 + 10), (2**39 + 4, 2**39 + 4), (6000, 6000),
        (2**39 + 1, 2**39 + 2), (2**48, 2**48 + 2), (400, 7000), (30, 40),
        (2**41, 2**48 + 5),
    ]

    @pytest.mark.parametrize("n, cache", [
        pytest.param(n, cache, id=f"{n}{suffix}")
        for cache, suffix in ((None, ""), ("lru", "-cached"),
                              ("tiny", "-tiny"), ("shared", "-shared"))
        for n in (1, 8, 9, 64)
    ])
    def test_fenced_levels_keep_the_per_slice_ledger(self, n, cache, caches):
        """Reading a sliced level through its fence index — the scalar
        walk's bisect, also where the columnar lane hands a query to
        that walk — gives the verdicts, the ledger and the per-run I/O
        counts of the run-by-run walk over every slice, and the same
        cache contents in the same LRU order, for 1-, 8-, 9- and
        64-range sub-batches, two in a row, without a block cache and
        with each of :data:`CACHE_KINDS`."""
        from repro.engine.batch import shard_batch_empty

        ref_store, loop_store, batch_store = (
            self._fenced_store(caches(cache)) for _ in range(3)
        )
        segments = batch_store._view.segments
        assert [index is not None for _, _, index in segments] == [
            False, True, True
        ]
        keys = np.asarray(sorted(
            k for run in batch_store._runs() for k in run.keys_view().tolist()
        ), dtype=np.uint64)
        for seed in (n, n + 1000):  # the second sub-batch meets a warm cache
            rng = np.random.default_rng(seed)
            picks = keys[rng.integers(0, keys.size, n)]
            widths = rng.integers(0, 8, n).astype(np.uint64)
            los = np.concatenate((
                np.asarray([lo for lo, _ in self.FENCED_QUERIES], dtype=np.uint64),
                picks - np.minimum(picks, widths),
            ))[:n]
            his = np.concatenate((
                np.asarray([hi for _, hi in self.FENCED_QUERIES], dtype=np.uint64),
                picks + np.minimum(np.uint64(2**64 - 1) - picks, widths),
            ))[:n]

            before = ledger(ref_store)
            want = [per_slice_range_empty(ref_store, int(lo), int(hi))
                    for lo, hi in zip(los, his)]
            ref_delta = np.subtract(ledger(ref_store), before).tolist()
            before = ledger(loop_store)
            got_loop = [loop_store.range_empty(int(lo), int(hi))
                        for lo, hi in zip(los, his)]
            loop_delta = np.subtract(ledger(loop_store), before).tolist()
            before = ledger(batch_store)
            got_batch = shard_batch_empty(batch_store, los, his).tolist()
            batch_delta = np.subtract(ledger(batch_store), before).tolist()

            assert got_loop == want
            assert got_batch == want
            assert loop_delta == ref_delta
            assert batch_delta == ref_delta
            assert (cache_state(batch_store.cache)
                    == cache_state(loop_store.cache)
                    == cache_state(ref_store.cache))
            if n == len(los) and n >= len(self.FENCED_QUERIES):
                assert want[:len(self.FENCED_QUERIES)] == [
                    False, False, False, True, True, True, False, False,
                    True, True, True, True, True, False, False, True,
                    False, True, False,
                ]

    def test_level_index_follows_the_run_set(self):
        """A level's fence index is rebuilt with the run set: a compaction
        step that rewrites the level replaces it at once, and every index
        bisects a range to exactly the slices a fence check on each
        slice's key bounds would pass."""
        from repro.lsm.compaction import LeveledPolicy

        store = LSMStore(
            2**32, memtable_limit=100,
            compaction_policy=LeveledPolicy(slice_target=64),
            auto_compact=False,
        )
        for key in range(0, 20_000, 7):
            store.put(key, b"v")
        store.flush()
        store.compact()

        def fenced():
            return [(store._view.runs[start:stop], index)
                    for start, stop, index in store._view.segments
                    if index is not None]

        def check():
            for level, index in fenced():
                for lo in range(0, 20_100, 331):
                    hi = lo + (lo % 3) * 97
                    hits = [p for p, run in enumerate(level)
                            if run.overlaps(lo, hi)]
                    first, stop = index.touched(lo, hi)
                    if hits:
                        assert (first, stop) == (hits[0], hits[-1] + 1)
                    else:
                        assert first == stop

        ((level, index),) = fenced()
        assert len(level) > 10
        check()
        store.put(3, b"x")
        store.flush()
        store.request_compaction()
        store.compact()
        ((rebuilt_level, rebuilt),) = fenced()
        assert rebuilt is not index
        assert list(rebuilt_level) == list(store.levels[0])
        check()

    @pytest.mark.parametrize("cache", [None, "lru"])
    def test_get_and_range_scan_keep_the_per_slice_ledger(self, cache, caches):
        """``get`` and ``range_scan`` go through the same fence index and
        move the ledger and per-run I/O counts as the run-by-run walk."""
        ref_store, store = (self._fenced_store(caches(cache))
                            for _ in range(2))
        top = 2**64 - 1
        for key in (0, 10, 20, 500, 1000, 5000, 6000, 2**39 + 4, 2**41 + 7,
                    2**41 + 100, 2**46, 2**48 + 3, top - 5, top - 1, top,
                    7001):
            before_ref, before = ledger(ref_store), ledger(store)
            assert store.get(key) == per_slice_get(ref_store, key)
            assert (np.subtract(ledger(store), before).tolist()
                    == np.subtract(ledger(ref_store), before_ref).tolist())
        for lo, hi in self.FENCED_QUERIES:
            before_ref, before = ledger(ref_store), ledger(store)
            assert store.range_scan(lo, hi) == per_slice_range_scan(
                ref_store, lo, hi
            )
            assert (np.subtract(ledger(store), before).tolist()
                    == np.subtract(ledger(ref_store), before_ref).tolist())

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
        # Identical answers, including which probes false-positive: each
        # filter was rebuilt from its recorded spec, hence the same seed.
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

    @pytest.mark.parametrize("damage", ["v4-stamp", "unknown-backend"])
    def test_unloadable_run_rolls_back_and_fails_scrub(self, tmp_path, damage):
        """A run file from the retired v4 format, or a crc-valid v5 spec
        record naming no backend, is corruption everywhere: ``open``
        rolls back to the intact previous epoch (and raises, naming the
        file, when there is none), and ``scrub`` reports the file."""
        from repro.cli import main as cli_main
        from repro.engine import persist

        db = tmp_path / "db"
        engine = ShardedEngine(
            UNIVERSE, num_shards=1, memtable_limit=32,
            filter_spec=GRAFITE_SPEC, directory=db,
        )
        self._fill(engine, seed=8, ops=120)
        engine.checkpoint()
        older = set(db.glob("shard-0000/*.sst"))
        self._fill(engine, seed=9, ops=120)
        engine.close()
        newest = persist.load_manifest(db)
        victim = db / "shard-0000" / f"run-{newest['generation']:06d}-0000.sst"
        assert victim.exists() and victim not in older
        blob = victim.read_bytes()
        if damage == "v4-stamp":
            blob = blob[:4] + struct.pack("<H", 4) + blob[6:]
            expected = "unsupported run format version 4"
        else:
            blob = with_spec_record(
                blob,
                b'{"backend": "quotient", "bits_per_key": 12.0, '
                b'"max_range_size": 64, "seed": 7}',
            )
            expected = "unknown filter backend 'quotient'"
        victim.write_bytes(blob)

        report = persist.scrub_snapshot(db)
        assert not report["ok"] and report["runs_corrupt"] == 1
        (error,) = report["errors"]
        assert victim.name in error and expected in error
        assert cli_main(["scrub", "--dir", str(db)]) == 1

        with pytest.warns(UserWarning, match=expected):
            rolled = ShardedEngine.open(db)
        assert rolled.rolled_back
        rolled._wal.close()
        # No intact epoch left: the damage surfaces, naming the file.
        (db / "MANIFEST.json").write_bytes((db / "MANIFEST.corrupt.json").read_bytes())
        (db / "MANIFEST.prev.json").unlink()
        with pytest.raises(CorruptionError, match=expected) as info:
            ShardedEngine.open(db)
        assert victim.name in str(info.value)

    def test_manifest_with_unbuildable_spec_rolls_back(self, tmp_path):
        """A crc-valid manifest whose filter spec names no backend is a
        damaged epoch: ``open`` serves the intact previous one."""
        import json

        from repro.engine import persist

        db = tmp_path / "db"
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=32,
            filter_spec=GRAFITE_SPEC, directory=db,
        )
        model = self._fill(engine, seed=10, ops=120)
        engine.checkpoint()
        self._fill(engine, seed=11, ops=120)
        engine.close()
        path = db / persist.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["filter_spec"]["backend"] = "quotient"
        manifest["crc32"] = persist.manifest_crc(manifest)
        path.write_text(json.dumps(manifest))
        assert persist.load_manifest(db)["filter_spec"]["backend"] == "quotient"

        with pytest.warns(UserWarning, match="unknown filter backend 'quotient'"):
            rolled = ShardedEngine.open(db)
        assert rolled.rolled_back
        assert rolled.filter_spec == GRAFITE_SPEC
        for key in list(model)[::5]:
            assert rolled.get(key) == model[key]
        rolled.close()

    def test_scrub_validates_specs_without_building_filters(self, tmp_path, monkeypatch):
        from repro.engine import persist
        from repro.filters.registry import FilterSpec

        db = tmp_path / "db"
        engine = ShardedEngine(
            UNIVERSE, num_shards=2, memtable_limit=32,
            filter_spec=GRAFITE_SPEC, directory=db,
        )
        self._fill(engine, seed=12, ops=120)
        engine.close()

        def no_build(self):
            raise AssertionError("scrub built a filter")

        monkeypatch.setattr(FilterSpec, "factory", no_build)
        report = persist.scrub_snapshot(db)
        assert report["ok"] and report["runs_checked"] >= 2

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
