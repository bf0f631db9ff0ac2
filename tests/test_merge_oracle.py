"""The columnar compaction merge against a heapq oracle.

:func:`repro.lsm.sstable.merge_columns` plus
:func:`repro.lsm.store.slice_outputs` must write exactly what the
decode-everything merge did: a ``heapq`` k-way merge of decoded
``(key, value)`` streams, chunked into slices and re-encoded by
``SSTable(entries)``. That merge lives on here as the oracle. Every
output column and heap must match it byte for byte; the one exception is
the pickle lane, compared by decoded equality because the oracle pickles
those values again.

Run sets are drawn from ``REPRO_DIFF_SEED`` (CI pins a second seed) and
cover every value tag, TTL expiry (including nested and out-of-range
:class:`ExpiringValue` wrappers, which ride the pickle lane), both
``drop_tombstones`` settings, span clipping at keys 0 and ``2**64-1``,
``slice_target`` chunking with the empty-span placeholder slice, and
inputs reopened from a checkpoint's memory map.

The flush side keeps its oracle too: the per-value ``_encode_one`` loop
``encode_values`` ran before it went columnar. Seeded columns of every
value kind must encode to the same columns and heap, and a flushed
2048-entry run must serialise to the same run file.
"""

import heapq
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.engine import ShardedEngine
from repro.engine.persist import run_to_bytes
from repro.lsm import store as store_mod
from repro.lsm.compaction import LeveledPolicy, MergeUnit
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import (
    FLAG_EXPIRES,
    _GATHER_BYTES,
    TAG_PICKLE,
    SSTable,
    _encode_one,
    decode_value,
    encode_values,
    merge_columns,
    split_columns,
)
from repro.lsm.store import LSMStore, slice_outputs
from repro.lsm.ttl import ExpiringValue

SEED = int(os.environ.get("REPRO_DIFF_SEED", "20240731"))
TOP = 2**64 - 1
UNIVERSE = 2**64
HEAP_KINDS = (4, 5, 6)  # bytes, str, pickle


# ----------------------------------------------------------------------
# The oracle: the heapq merge and list chunking compaction used to run
# ----------------------------------------------------------------------
def oracle_merge(runs, *, drop_tombstones, span=None, expire_before=None):
    lo, hi = span if span is not None else (0, TOP)

    def tagged(run, age):
        for key, value in run.scan(lo, hi):
            yield key, age, value

    streams = [tagged(run, age) for age, run in enumerate(runs)]
    previous = None
    for key, _, value in heapq.merge(*streams):
        if key == previous:
            continue
        previous = key
        if (
            expire_before is not None
            and isinstance(value, ExpiringValue)
            and value.expires_at <= expire_before
        ):
            value = TOMBSTONE
        if drop_tombstones and value is TOMBSTONE:
            continue
        yield key, value


def oracle_outputs(unit, universe, *, drop_tombstones, expire_before):
    """``[(slice_bounds, SSTable)]`` the old executor built for a unit."""
    merged = oracle_merge(
        unit.inputs, drop_tombstones=drop_tombstones, span=unit.span,
        expire_before=expire_before,
    )
    target = unit.slice_target
    if target is None:
        entries = list(merged)
        return [(unit.span, SSTable(entries, universe))] if entries else []
    chunks, current = [], []
    for entry in merged:
        current.append(entry)
        if len(current) >= target:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    if not chunks:
        return [(unit.span, SSTable([], universe))]
    span_lo, span_hi = unit.span if unit.span is not None else (0, universe - 1)
    out = []
    for i, chunk in enumerate(chunks):
        lo = span_lo if i == 0 else chunk[0][0]
        hi = span_hi if i == len(chunks) - 1 else chunks[i + 1][0][0] - 1
        out.append(((lo, hi), SSTable(chunk, universe)))
    return out


def assert_same_columns(got, want_run):
    """``got`` (a Columns) equals ``want_run``'s columns byte for byte,
    pickle-lane payloads by decoded equality."""
    keys, tags, va, vb, vexp, heap = got
    w_tags, w_va, w_vb, w_vexp, w_heap = want_run.value_columns()
    assert keys.tobytes() == want_run.keys_view().tobytes()
    assert tags.tobytes() == w_tags.tobytes()
    assert vexp.tobytes() == w_vexp.tobytes()
    heap = bytes(heap)
    pickled = (tags & 0x7F) == TAG_PICKLE
    if not pickled.any():
        assert va.tobytes() == w_va.tobytes()
        assert vb.tobytes() == w_vb.tobytes()
        assert heap == bytes(w_heap)
        return
    # The heap is still compact and in entry order ...
    uses = np.isin(tags & 0x7F, HEAP_KINDS)
    lens = vb[uses].astype(np.int64)
    assert va[uses].astype(np.int64).tolist() == (np.cumsum(lens) - lens).tolist()
    assert len(heap) == int(lens.sum())
    # ... non-heap operands match, and every heap payload decodes equal.
    assert va[~uses].tobytes() == w_va[~uses].tobytes()
    assert vb[~uses].tobytes() == w_vb[~uses].tobytes()
    for i in np.flatnonzero(uses).tolist():
        got_v = decode_value(int(tags[i]), int(va[i]), int(vb[i]), int(vexp[i]), heap)
        want_v = decode_value(
            int(w_tags[i]), int(w_va[i]), int(w_vb[i]), int(w_vexp[i]), w_heap
        )
        assert got_v == want_v


def check_unit(unit, universe=UNIVERSE, *, drop_tombstones, expire_before):
    want = oracle_outputs(
        unit, universe, drop_tombstones=drop_tombstones,
        expire_before=expire_before,
    )
    merged = merge_columns(
        unit.inputs, drop_tombstones=drop_tombstones, span=unit.span,
        expire_before=expire_before,
    )
    got = slice_outputs(merged, unit, universe)
    assert [b for b, _ in got] == [b for b, _ in want]
    for (_, cols), (_, run) in zip(got, want):
        assert_same_columns(cols, run)
    return got


# ----------------------------------------------------------------------
# Seeded run sets
# ----------------------------------------------------------------------
def draw_value(rng):
    kind = int(rng.integers(0, 14))
    t = int(rng.integers(0, 40))
    if kind == 0:
        return TOMBSTONE
    if kind == 1:
        return None
    if kind == 2:
        return bool(rng.integers(0, 2))
    if kind == 3:
        return int(rng.choice([0, -1, 7, -(2**63), 2**63 - 1]))
    if kind == 4:
        return float(rng.normal())
    if kind == 5:
        return bytes(rng.integers(0, 256, int(rng.integers(0, 6)), dtype=np.uint8))
    if kind == 6:
        return "sé" * int(rng.integers(0, 4))
    if kind == 7:
        return {"k": int(rng.integers(0, 9)), "t": (1, "x")}  # pickle lane
    if kind == 8:
        return 2**70 + int(rng.integers(0, 9))  # oversized int: pickle lane
    if kind in (9, 10):
        inner = draw_value(rng)
        return inner if inner is TOMBSTONE else ExpiringValue(inner, t)
    if kind == 11:  # nested wrapper: pickled whole
        return ExpiringValue(ExpiringValue(b"n", t + 5), t)
    if kind == 12:  # deadline outside u64: pickled whole
        return ExpiringValue("o", int(rng.choice([-3, 2**64 + 5])))
    return b"v"


def draw_put_value(rng):
    """A value a store accepts from ``put`` (never the tombstone)."""
    value = draw_value(rng)
    return b"t" if value is TOMBSTONE else value


def draw_run(rng, pool):
    n = int(rng.integers(0, 40))
    keys = np.unique(rng.choice(pool, size=n)) if n else np.zeros(0, np.uint64)
    return SSTable([(int(k), draw_value(rng)) for k in keys], UNIVERSE)


def draw_span(rng, pool):
    kind = int(rng.integers(0, 5))
    a, b = sorted(int(x) for x in rng.choice(pool, size=2))
    return [None, (0, b), (a, TOP), (0, TOP), (a, b)][kind]


@pytest.fixture(scope="module")
def key_pool():
    rng = np.random.default_rng(SEED)
    mid = rng.integers(1, 200, 60, dtype=np.uint64)
    return np.unique(np.concatenate((
        np.asarray([0, 1, TOP - 1, TOP], dtype=np.uint64), mid,
        np.asarray([2**63, 2**63 + 1], dtype=np.uint64),
    )))


@pytest.mark.parametrize("case", range(60))
def test_seeded_units_match_the_heapq_oracle(case, key_pool):
    rng = np.random.default_rng([SEED, case])
    runs = tuple(draw_run(rng, key_pool) for _ in range(int(rng.integers(1, 6))))
    span = draw_span(rng, key_pool)
    target = [None, 1, 3, 7, 50][int(rng.integers(0, 5))]
    for drop in (False, True):
        for expire_before in (None, 0, int(rng.integers(1, 45))):
            check_unit(
                MergeUnit(runs, span=span, slice_target=target),
                drop_tombstones=drop, expire_before=expire_before,
            )


@pytest.mark.parametrize("case", range(4))
def test_large_values_gather_across_windows(case):
    """Heap payloads around and past the gather window (one index gather
    per window, one slice copy per oversized span) still come out byte
    for byte, with every chunk's heap rebased."""
    rng = np.random.default_rng([SEED, 7, case])
    sizes = [0, 1, 100, _GATHER_BYTES - 1, _GATHER_BYTES, _GATHER_BYTES + 1,
             3 * _GATHER_BYTES]

    def value(i):
        n = int(rng.choice(sizes))
        if rng.random() < 0.5:
            return chr(97 + i % 26) * n
        return bytes(rng.integers(0, 256, n, dtype=np.uint8))

    runs = []
    for _ in range(3):
        keys = np.unique(rng.integers(0, 60, 25))
        runs.append(SSTable(
            [(int(k), TOMBSTONE if rng.random() < 0.1 else value(int(k)))
             for k in keys], UNIVERSE,
        ))
    for target in (None, 1, 4, 50):
        for drop in (False, True):
            check_unit(MergeUnit(tuple(runs), slice_target=target),
                       drop_tombstones=drop, expire_before=None)


def test_split_scratch_stays_near_the_heap_size():
    """Splitting a value-heavy merge allocates about the output heap, not
    a byte index over it (which would be 24 bytes per payload byte)."""
    big = 1 << 22
    run = SSTable([(1, b"a"), (2, b"b" * big), (3, "c" * big), (4, b"d")],
                  UNIVERSE)
    merged = merge_columns([run], drop_tombstones=False)
    tracemalloc.start()
    try:
        split_columns(merged, (0, 2, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (2 * big)


def test_span_clipping_at_both_universe_edges():
    new = SSTable([(0, "n0"), (TOP, "ntop")], UNIVERSE)
    old = SSTable([(0, "o0"), (5, "o5"), (TOP - 1, "o"), (TOP, "otop")], UNIVERSE)
    for span in [(0, 0), (TOP, TOP), (1, TOP - 1), (0, TOP), (6, TOP - 2)]:
        for target in (None, 1):
            check_unit(MergeUnit((new, old), span=span, slice_target=target),
                       drop_tombstones=False, expire_before=None)
    got = check_unit(MergeUnit((new, old), span=(0, TOP), slice_target=2),
                     drop_tombstones=False, expire_before=None)
    assert [b for b, _ in got] == [(0, TOP - 2), (TOP - 1, TOP)]


def test_fully_tombstoned_span_leaves_one_empty_placeholder():
    new = SSTable([(3, TOMBSTONE), (4, ExpiringValue(b"e", 2))], UNIVERSE)
    old = SSTable([(3, b"old"), (4, b"old"), (9, b"outside")], UNIVERSE)
    unit = MergeUnit((new, old), span=(0, 8), slice_target=4)
    (placeholder,) = check_unit(unit, drop_tombstones=True, expire_before=2)
    assert placeholder[0] == (0, 8) and placeholder[1].keys.size == 0
    assert placeholder[1].heap == b""
    # Without a slice target the unit writes nothing at all.
    assert check_unit(MergeUnit((new, old), span=(0, 8)),
                      drop_tombstones=True, expire_before=2) == []


def test_expired_and_pathological_wrappers_become_tombstones():
    nested = ExpiringValue(ExpiringValue(b"x", 100), 5)
    huge = ExpiringValue("h", 2**64 + 1)
    negative = ExpiringValue("n", -1)
    run = SSTable(
        [(1, nested), (2, huge), (3, negative), (4, ExpiringValue(7, 5)),
         (5, ExpiringValue(b"p", 6)), (6, b"plain")],
        UNIVERSE,
    )
    tags = run.value_columns()[0]
    assert (tags[:3] == TAG_PICKLE).all()  # whole wrappers, no expiry flag
    assert (tags[3:5] & FLAG_EXPIRES).all()
    merged = merge_columns([run], drop_tombstones=False, expire_before=5)
    assert merged.tags[[0, 2, 3]].tolist() == [0, 0, 0]  # expired at t=5
    assert merged.tags[[1, 4, 5]].tolist() != [0, 0, 0]
    check_unit(MergeUnit((run,)), drop_tombstones=True, expire_before=5)
    # With the clock off nothing expires, pathological wrappers included.
    off = merge_columns([run], drop_tombstones=True, expire_before=None)
    assert off.keys.tolist() == [1, 2, 3, 4, 5, 6]


# ----------------------------------------------------------------------
# Storage-backed inputs
# ----------------------------------------------------------------------
def test_memmap_inputs_from_a_reopened_checkpoint(tmp_path):
    rng = np.random.default_rng(SEED)
    engine = ShardedEngine(2**32, num_shards=1, memtable_limit=64,
                           compaction_fanout=50, directory=tmp_path / "db")
    pool = rng.integers(0, 2**32, 150, dtype=np.uint64)
    for _ in range(300):
        key = int(rng.choice(pool))
        if rng.random() < 0.15:
            engine.delete(key)
        else:
            engine.put(key, draw_put_value(rng))
    engine.flush_all()
    engine.close()
    reopened = ShardedEngine.open(tmp_path / "db")
    runs = tuple(reopened.shards[0]._runs())
    assert len(runs) >= 3
    # Each key column is a view (via a memoryview) over the file's mapping.
    assert all(isinstance(run.keys_view().base.obj, np.memmap) for run in runs)
    for drop in (False, True):
        for target in (None, 17):
            check_unit(MergeUnit(runs, slice_target=target),
                       2**32, drop_tombstones=drop, expire_before=30)
    reopened.close(checkpoint=False)


# ----------------------------------------------------------------------
# A whole leveled store: every unit it merges, checked as it runs
# ----------------------------------------------------------------------
def test_every_unit_of_a_leveled_store_matches_the_oracle(monkeypatch):
    checked = []
    real_merge = store_mod.merge_columns
    real_slice = store_mod.slice_outputs
    calls = {}

    def merge_spy(runs, **kw):
        calls["kw"] = {"drop_tombstones": kw["drop_tombstones"],
                       "expire_before": kw.get("expire_before")}
        return real_merge(runs, **kw)

    def slice_spy(merged, unit, universe):
        got = real_slice(merged, unit, universe)
        checked.append((unit, calls["kw"], got))
        return got

    monkeypatch.setattr(store_mod, "merge_columns", merge_spy)
    monkeypatch.setattr(store_mod, "slice_outputs", slice_spy)
    rng = np.random.default_rng(SEED)
    store = LSMStore(
        2**32, memtable_limit=48, compaction_fanout=3,
        compaction_policy=LeveledPolicy(slice_target=40, level_fanout=3,
                                        l1_budget=120),
    )
    pool = rng.integers(0, 2**32, 900, dtype=np.uint64)
    model = {}
    for step in range(3000):
        key = int(rng.choice(pool))
        if rng.random() < 0.12:
            store.delete(key)
            model[key] = TOMBSTONE
        else:
            value = draw_put_value(rng)
            store.put(key, value)
            model[key] = value
        if step % 400 == 399:
            store.set_ttl_now(store.ttl_now + 4)
    assert len(checked) > 20
    kinds = {(kw["drop_tombstones"], kw["expire_before"] is not None)
             for _, kw, _ in checked}
    assert {(False, True), (True, True)} <= kinds  # both levels, TTL on
    for unit, kw, got in checked:
        want = oracle_outputs(unit, 2**32, **kw)
        assert [b for b, _ in got] == [b for b, _ in want]
        for (_, cols), (_, run) in zip(got, want):
            assert_same_columns(cols, run)
    now = store.ttl_now
    live = sum(
        1 for v in model.values()
        if v is not TOMBSTONE
        and not (isinstance(v, ExpiringValue) and v.expires_at <= now)
    )
    assert len(store) == live


def test_rebuild_copies_columns_and_builds_a_fresh_filter():
    from repro.core.grafite import Grafite

    def factory(keys, universe):
        return Grafite(keys, universe, bits_per_key=10, max_range_size=64, seed=3)

    store = LSMStore(2**32, memtable_limit=16, compaction_fanout=100,
                     compaction_policy="leveled")
    rng = np.random.default_rng(SEED)
    for k in rng.integers(0, 2**32, 40, dtype=np.uint64):
        store.put(int(k), draw_put_value(rng))
    store.flush()
    before = {run.uid: run for run in store._runs()}
    snapshot = {
        uid: (run.keys_view().tobytes(),
              [c.tobytes() for c in run.value_columns()[:4]],
              bytes(run.value_columns()[4]))
        for uid, run in before.items()
    }
    store.set_filter_factory(factory)
    store.request_filter_rebuild()
    while store.compact_step():
        pass
    after = store._runs()
    assert all(run.filter is not None for run in after)
    assert all(run.io_reads == 1 for run in before.values())
    assert sorted(
        (run.keys_view().tobytes(), [c.tobytes() for c in run.value_columns()[:4]],
         bytes(run.value_columns()[4]))
        for run in after
    ) == sorted(snapshot.values())


def test_pickle_lane_bytes_survive_the_merge_unchanged():
    value = {"a": [1, 2, (3,)]}
    run = SSTable([(1, value), (2, b"x")], UNIVERSE)
    merged = merge_columns([run], drop_tombstones=True, expire_before=1)
    heap = bytes(merged.heap)
    blob = heap[int(merged.va[0]):int(merged.va[0]) + int(merged.vb[0])]
    assert blob == pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Flush encoding: the columnar encode_values against its per-value loop
# ----------------------------------------------------------------------
def oracle_encode(values):
    """The per-value loop ``encode_values`` ran before it went columnar."""
    n = len(values)
    tags = np.zeros(n, dtype=np.uint8)
    va = np.zeros(n, dtype=np.uint64)
    vb = np.zeros(n, dtype=np.uint64)
    vexp = np.zeros(n, dtype=np.uint64)
    heap = bytearray()
    for i, value in enumerate(values):
        tags[i], va[i], vb[i], vexp[i] = _encode_one(value, heap)
    return tags, va, vb, vexp, bytes(heap)


def draw_plain_value(rng):
    """A value of a kind the columnar lane encodes without falling back."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return TOMBSTONE
    if kind == 1:
        return None
    if kind == 2:
        return bytes(rng.integers(0, 256, int(rng.integers(0, 6)), dtype=np.uint8))
    if kind == 3:
        return bytearray(rng.integers(0, 256, int(rng.integers(0, 4)), dtype=np.uint8))
    return b"w"


def draw_column(rng, case):
    """Five column shapes: any kind (falls back per value), columnar
    kinds in a mix, one columnar kind alone (one tag fill), the flush
    column of a bytes workload with deletes (bytes plus tombstones), and
    columnar kinds with one value of another kind (falls back)."""
    n = int(rng.integers(0, 300))
    shape = case % 5
    if shape == 0:
        return [draw_value(rng) for _ in range(n)]
    if shape == 1:
        return [draw_plain_value(rng) for _ in range(n)]
    if shape == 2:
        first = draw_plain_value(rng)
        same = [draw_plain_value(rng) for _ in range(4 * n)]
        return [v for v in same if type(v) is type(first)][:n] or [first]
    if shape == 3:
        return [TOMBSTONE if rng.random() < 0.05 else b"w" for _ in range(n)]
    column = [draw_plain_value(rng) for _ in range(n)]
    column.insert(int(rng.integers(0, n + 1)), draw_value(rng))
    return column


def assert_same_encoding(got, want):
    for g, w in zip(got[:4], want[:4]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert type(got[4]) is bytes and got[4] == want[4]


@pytest.mark.parametrize("case", range(50))
def test_columnar_encode_matches_the_per_value_loop(case):
    rng = np.random.default_rng(SEED + 5000 + case)
    values = draw_column(rng, case)
    assert_same_encoding(encode_values(values), oracle_encode(values))


def test_columnar_encode_edges():
    """Empty columns and heaps stay empty, a bytearray joins the bytes
    heap, and columns with ints past int64 (either side) or a TTL
    wrapper go through the per-value lane."""
    for values in ([], [b""] * 3, [1, 2**63], [-(2**63) - 1, b"x"],
                   [ExpiringValue(b"x", 4), b"y"], [b"x", bytearray(b"yz")]):
        assert_same_encoding(encode_values(values), oracle_encode(values))


@pytest.mark.parametrize("mixed", [False, True])
def test_flushed_run_file_matches_the_per_value_loop(mixed):
    """A 2048-entry flush writes the same run file as columns the
    per-value loop encoded."""
    rng = np.random.default_rng(SEED + int(mixed))
    keys = np.unique(rng.integers(0, 2**40, 3000, dtype=np.uint64))[:2048]
    draw = draw_value if mixed else (
        lambda r: TOMBSTONE if r.random() < 0.05 else b"w"
    )
    store = LSMStore(UNIVERSE, memtable_limit=len(keys) + 1)
    entries = []
    for key in keys.tolist():
        value = draw(rng)
        entries.append((key, value))
        if value is TOMBSTONE:
            store.delete(key)
        else:
            store.put(key, value)
    store.flush()
    (run,) = store.level0_runs
    values = [v for _, v in entries]
    want = SSTable.from_columns(keys, *oracle_encode(values), UNIVERSE)
    assert len(run) == 2048
    assert run_to_bytes(run) == run_to_bytes(want)
