"""Model tests for the memtable's kept sorted key column.

A put of a new key only records its arrival; the next read merges the
arrivals into the column. These tests replay random interleavings of
writes and reads against a plain dict, and check that readers that
merge at the same time never leave a key in the column twice.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.memtable import TOMBSTONE, MemTable

TOP = 2**64 - 1

_keys = st.one_of(
    st.integers(0, 40),
    st.sampled_from([0, 1, TOP - 1, TOP]),
    st.integers(0, TOP),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _keys, st.integers(0, 3)),
        st.tuples(st.just("delete"), _keys, st.none()),
        st.tuples(st.just("keys"), st.none(), st.none()),
        st.tuples(st.just("scan"), _keys, _keys),
        st.tuples(st.just("values"), st.none(), st.none()),
        st.tuples(st.just("clear"), st.none(), st.none()),
    ),
    max_size=80,
)


def _check_column(mem: MemTable, model: dict) -> None:
    keys = mem.keys_array()
    assert keys.dtype == np.uint64
    assert keys.tolist() == sorted(model)


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_memtable_matches_a_dict_model(ops):
    mem, model = MemTable(), {}
    for op, a, b in ops:
        if op == "put":
            mem.put(a, b)
            model[a] = b
        elif op == "delete":
            mem.delete(a)
            model[a] = TOMBSTONE
        elif op == "keys":
            _check_column(mem, model)
        elif op == "scan":
            lo, hi = min(a, b), max(a, b)
            want = [(k, model[k]) for k in sorted(model) if lo <= k <= hi]
            assert list(mem.scan(lo, hi)) == want
        elif op == "values":
            assert mem.values_sorted() == [model[k] for k in sorted(model)]
        else:
            mem.clear()
            model.clear()
        assert len(mem) == len(model)
        if a is not None and op in ("put", "delete"):
            assert mem.get(a) == (True, model[a])
    _check_column(mem, model)
    assert mem.values_sorted() == [model[k] for k in sorted(model)]


def test_a_stale_merge_stored_last_loses_and_repeats_no_key():
    """Reader A merges from the pair it read while reader B merges and
    stores a newer pair; A's older pair landing last must still hold
    each key once, and the next read merges what it left out."""
    mem = MemTable()
    for key in (5, 1, TOP):
        mem.put(key, "a")
    mem.keys_array()
    for key in (3, 0, 1):  # 1 is an overwrite, not an arrival
        mem.put(key, "b")
    stale = mem._sorted  # A has read the pair and not yet merged
    mem.keys_array()  # B merges and stores
    mem.put(9, "c")
    mem.keys_array()
    mem._sorted = stale  # A's store lands last, with its older pair
    mem.put(TOP - 1, "d")
    assert mem.keys_array().tolist() == [0, 1, 3, 5, 9, TOP - 1, TOP]
    assert mem.values_sorted() == ["b", "b", "b", "a", "c", "d", "a"]


class _ParkingList(list):
    """An arrival list that parks the thread named ``reader-a`` in its
    first slice read (inside ``keys_array``'s merge) until released."""

    def __init__(self, items, parked: threading.Event, release: threading.Event):
        super().__init__(items)
        self.parked, self.release = parked, release

    def __getitem__(self, index):
        if isinstance(index, slice) and threading.current_thread().name == "reader-a":
            self.parked.set()
            assert self.release.wait(10)
        return super().__getitem__(index)


def test_two_readers_merging_at_once_leave_no_duplicate_keys():
    """Reader A is parked inside its merge while reader B merges and
    stores (both hold the service's shared read lock): A's column, B's
    and the next read's must each hold every key once."""
    mem = MemTable()
    for key in range(0, 100, 2):
        mem.put(key, "a")
    mem.keys_array()
    for key in (1, 3, 0, TOP):  # 0 is an overwrite, not an arrival
        mem.put(key, "b")
    parked, release = threading.Event(), threading.Event()
    mem._arrivals = _ParkingList(mem._arrivals, parked, release)
    seen = {}

    def read(name):
        seen[name] = mem.keys_array()

    a = threading.Thread(target=read, args=("a",), name="reader-a")
    b = threading.Thread(target=read, args=("b",), name="reader-b")
    a.start()
    assert parked.wait(10)
    b.start()
    b.join(10)
    release.set()
    a.join(10)
    assert not a.is_alive() and not b.is_alive()
    want = sorted(set(range(0, 100, 2)) | {1, 3, TOP})
    for column in (seen["a"], seen["b"], mem.keys_array()):
        assert column.tolist() == want


def test_many_readers_merging_after_each_write_block_leave_no_duplicates():
    """Stress: four reader threads, more than a small host has cores,
    call ``keys_array`` together after every block of writes."""
    rng = np.random.default_rng(7)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        mem, seen = MemTable(), []
        for _ in range(40):
            for key in rng.integers(0, 2**40, 64).tolist():
                mem.put(key, 0)
            start = threading.Barrier(4, timeout=10)

            def read():
                start.wait()
                seen.append(mem.keys_array())

            readers = [threading.Thread(target=read) for _ in range(4)]
            for t in readers:
                t.start()
            for t in readers:
                t.join(10)
            assert not any(t.is_alive() for t in readers)
        assert len(seen) == 160
        want = sorted(mem._data)
        assert mem.keys_array().tolist() == want
        for column in seen:
            assert np.all(column[1:] > column[:-1])  # sorted, no duplicates
            assert set(column.tolist()) <= set(want)
    finally:
        sys.setswitchinterval(old)
