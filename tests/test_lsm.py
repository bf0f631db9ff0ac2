"""Tests for the mini LSM store, including a model-based property test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grafite import Grafite
from repro.errors import InvalidParameterError, InvalidQueryError
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTable, merge_columns, split_columns
from repro.lsm.store import LSMStore

UNIVERSE = 2**32


def grafite_factory(keys, universe):
    return Grafite(keys, universe, bits_per_key=14, max_range_size=64, seed=7)


class TestMemTable:
    def test_put_get_overwrite(self):
        mt = MemTable()
        mt.put(5, "a")
        mt.put(5, "b")
        assert mt.get(5) == (True, "b")
        assert mt.get(6) == (False, None)
        assert len(mt) == 1

    def test_delete_leaves_tombstone(self):
        mt = MemTable()
        mt.put(1, "x")
        mt.delete(1)
        found, value = mt.get(1)
        assert found and value is TOMBSTONE

    def test_scan_sorted(self):
        mt = MemTable()
        for k in (30, 10, 20):
            mt.put(k, str(k))
        assert [k for k, _ in mt.scan(10, 25)] == [10, 20]
        mt.put(15, "15")  # scan must see post-insert state
        assert [k for k, _ in mt.scan(10, 25)] == [10, 15, 20]

    def test_values_sorted_and_clear(self):
        mt = MemTable()
        mt.put(2, "b")
        mt.put(1, "a")
        assert mt.keys_array().tolist() == [1, 2]
        assert mt.values_sorted() == ["a", "b"]
        mt.clear()
        assert len(mt) == 0

    def test_sorted_views_match_a_sorted_dict_model(self):
        top = 2**64 - 1
        rng = np.random.default_rng(7)
        mt = MemTable()
        model: dict[int, object] = {}

        def check():
            keys = sorted(model)
            assert mt.values_sorted() == [model[k] for k in keys]
            assert mt.keys_array().dtype == np.uint64
            assert mt.keys_array().tolist() == keys
            for lo, hi in [(0, 0), (top, top), (0, top), (1, top - 1),
                           (5, 5), (6, 4_999)]:
                want = [(k, model[k]) for k in keys if lo <= k <= hi]
                assert list(mt.scan(lo, hi)) == want, (lo, hi)

        check()  # empty
        for key in (0, top, 5, 4_999, 5_000):
            mt.put(key, f"v{key}")
            model[key] = f"v{key}"
            check()  # a scan right after an insert sees it
        for key in rng.integers(0, 10_000, size=200).tolist():
            mt.put(key, key)
            model[key] = key
        check()
        # Overwrites and deletes of present keys keep the sorted column.
        column = mt.keys_array()
        for key in (0, top, 5):
            mt.put(key, "again")
            model[key] = "again"
        mt.delete(4_999)
        model[4_999] = TOMBSTONE
        assert mt.keys_array() is column
        check()
        mt.put(6, "new")  # only a new key rebuilds it
        model[6] = "new"
        assert mt.keys_array() is not column
        check()


class TestSSTable:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SSTable([(2, "b"), (1, "a")], UNIVERSE)

    def test_get_counts_io(self):
        run = SSTable([(1, "a"), (5, "b")], UNIVERSE)
        assert run.get(5) == (True, "b")
        assert run.get(4) == (False, None)
        assert run.io_reads == 2

    def test_scan(self):
        run = SSTable([(1, "a"), (5, "b"), (9, "c")], UNIVERSE)
        assert run.scan(2, 8) == [(5, "b")]
        assert run.key_bounds == (1, 9)

    def test_full_uint64_universe_edges(self):
        top = 2**64 - 1
        run = SSTable([(0, "lo"), (5, "mid"), (top, "hi")], 2**64)
        assert run.get(0) == (True, "lo")
        assert run.get(top) == (True, "hi")
        assert run.get(top - 1) == (False, None)
        assert run.scan(0, 0) == [(0, "lo")]
        assert run.scan(top, top) == [(top, "hi")]
        assert run.scan(1, top - 1) == [(5, "mid")]
        assert run.scan(0, top) == [(0, "lo"), (5, "mid"), (top, "hi")]
        assert run.scan(top, 2**65) == [(top, "hi")]  # past u64: still ordered
        starts, stops, live = run.scan_batch(
            np.asarray([0, top, 1, 6], dtype=np.uint64),
            np.asarray([0, top, top - 1, top - 1], dtype=np.uint64),
            now=0,
        )
        assert starts.tolist() == [0, 2, 1, 2]
        assert stops.tolist() == [1, 3, 2, 2]
        assert live.tolist() == [True, True, True, False]

    def test_scan_batch_liveness_and_io(self):
        from repro.lsm.ttl import ExpiringValue

        run = SSTable(
            [(1, "a"), (2, TOMBSTONE), (3, ExpiringValue("e", 10)), (4, "d")],
            UNIVERSE,
        )
        los = np.asarray([1, 2, 2, 3, 5], dtype=np.uint64)
        his = np.asarray([1, 2, 3, 3, 9], dtype=np.uint64)
        _, _, live = run.scan_batch(los, his, now=5)
        assert live.tolist() == [True, False, True, True, False]
        _, _, live = run.scan_batch(los, his, now=10)
        assert live.tolist() == [True, False, False, False, False]
        assert run.io_reads == 2 * los.size
        for lo, hi, want in zip(los.tolist(), his.tolist(), live.tolist()):
            assert run.scan(lo, hi).any_live(10) == want

    def test_filter_attached(self):
        run = SSTable([(100, "v")], UNIVERSE, grafite_factory)
        assert run.filter is not None
        assert run.filter_bits > 0
        assert run.may_contain_range(100, 100)
        assert not run.may_contain_range(200_000, 200_063) or True  # maybe-FP allowed

    @staticmethod
    def merged(runs, **kw):
        columns = merge_columns(runs, **kw)
        (run,) = split_columns(columns, (0, columns.keys.size))
        return SSTable.from_columns(*run, UNIVERSE).entries()

    def test_merge_last_write_wins(self):
        new = SSTable([(1, "new"), (2, "x")], UNIVERSE)
        old = SSTable([(1, "old"), (3, "y")], UNIVERSE)
        merged = self.merged([new, old], drop_tombstones=False)
        assert merged == [(1, "new"), (2, "x"), (3, "y")]
        assert new.io_reads == old.io_reads == 1

    def test_merge_drops_tombstones_at_bottom(self):
        new = SSTable([(1, TOMBSTONE)], UNIVERSE)
        old = SSTable([(1, "old"), (2, "keep")], UNIVERSE)
        merged = self.merged([new, old], drop_tombstones=True)
        assert merged == [(2, "keep")]
        kept = self.merged([new, old], drop_tombstones=False)
        assert kept[0] == (1, TOMBSTONE)


class TestLSMStore:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LSMStore(universe=0)
        with pytest.raises(InvalidParameterError):
            LSMStore(memtable_limit=0)
        store = LSMStore(universe=100)
        with pytest.raises(InvalidQueryError):
            store.put(100, "x")
        with pytest.raises(InvalidQueryError):
            store.range_scan(5, 3)

    def test_put_get_through_flush(self):
        store = LSMStore(UNIVERSE, memtable_limit=4, filter_factory=grafite_factory)
        for k in range(10):
            store.put(k * 100, f"v{k}")
        assert store.get(300) == "v3"
        assert store.get(301) is None
        assert store.run_count >= 1

    def test_overwrite_across_flush(self):
        store = LSMStore(UNIVERSE, memtable_limit=2)
        store.put(7, "old")
        store.flush()
        store.put(7, "new")
        assert store.get(7) == "new"
        store.flush()
        assert store.get(7) == "new"

    def test_delete_across_levels(self):
        store = LSMStore(UNIVERSE, memtable_limit=100)
        store.put(42, "x")
        store.flush()
        store.delete(42)
        assert store.get(42) is None
        store.flush()
        assert store.get(42) is None
        store.compact()
        assert store.get(42) is None
        assert store.range_scan(0, 1000) == []

    def test_compaction_merges_runs(self):
        store = LSMStore(UNIVERSE, memtable_limit=2, compaction_fanout=2)
        for k in range(12):
            store.put(k, str(k))
        assert store.stats.compactions >= 1
        assert store.run_count <= 2
        assert store.get(11) == "11"

    def test_range_scan_merges_all_sources(self):
        store = LSMStore(UNIVERSE, memtable_limit=3)
        store.put(10, "a")
        store.put(20, "b")
        store.put(30, "c")  # triggers flush
        store.put(15, "d")  # stays in memtable
        result = store.range_scan(10, 25)
        assert result == [(10, "a"), (15, "d"), (20, "b")]

    def test_filters_save_io_on_empty_probes(self):
        store = LSMStore(UNIVERSE, memtable_limit=500, filter_factory=grafite_factory)
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, UNIVERSE, 2000, dtype=np.uint64))
        for k in keys:
            store.put(int(k), "v")
        store.flush()
        sorted_keys = np.sort(keys)
        probes = 0
        while probes < 300:
            lo = int(rng.integers(0, UNIVERSE - 64))
            hi = lo + 63
            idx = int(np.searchsorted(sorted_keys, lo))
            if idx < sorted_keys.size and int(sorted_keys[idx]) <= hi:
                continue
            probes += 1
            assert store.range_scan(lo, hi) == []
        stats = store.stats
        assert stats.reads_avoided > stats.reads_performed * 5, (
            "Grafite filters should avoid the vast majority of empty reads"
        )

    def test_no_filter_means_every_overlapping_probe_reads(self):
        store = LSMStore(UNIVERSE, memtable_limit=2)
        store.put(10, "a")
        store.put(20, "b")  # flush
        # Inside the run's key bounds: nothing can prune, the run is read.
        store.range_scan(12, 18)
        assert store.stats.reads_performed >= 1
        assert store.stats.reads_avoided == 0
        # Outside the bounds: the fence-pointer check prunes exactly,
        # filter or not.
        store.range_scan(1000, 1100)
        assert store.stats.reads_avoided >= 1

    def test_filter_bits_accounted(self):
        store = LSMStore(UNIVERSE, memtable_limit=2, filter_factory=grafite_factory)
        store.put(1, "a")
        store.put(2, "b")
        assert store.filter_bits_total > 0

    def test_len_counts_live_keys(self):
        store = LSMStore(UNIVERSE, memtable_limit=3)
        store.put(1, "a")
        store.put(2, "b")
        store.put(3, "c")
        store.delete(2)
        assert len(store) == 2


class TestModelBased:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, data):
        """Random op sequences: the store behaves like a dict."""
        store = LSMStore(
            10_000,
            memtable_limit=data.draw(st.integers(min_value=1, max_value=8)),
            compaction_fanout=data.draw(st.integers(min_value=2, max_value=4)),
            filter_factory=grafite_factory if data.draw(st.booleans()) else None,
        )
        model: dict[int, str] = {}
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["put", "delete", "get", "scan", "flush"]),
                    st.integers(min_value=0, max_value=9_999),
                    st.integers(min_value=0, max_value=50),
                ),
                max_size=60,
            )
        )
        for op, key, extra in ops:
            if op == "put":
                store.put(key, f"v{extra}")
                model[key] = f"v{extra}"
            elif op == "delete":
                store.delete(key)
                model.pop(key, None)
            elif op == "get":
                assert store.get(key) == model.get(key)
            elif op == "flush":
                store.flush()
            else:  # scan
                hi = min(9_999, key + extra)
                expected = sorted((k, v) for k, v in model.items() if key <= k <= hi)
                assert store.range_scan(key, hi) == expected
        # Final full check
        expected_all = sorted(model.items())
        assert store.range_scan(0, 9_999) == expected_all
