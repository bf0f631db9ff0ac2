"""Write-path parity: the sort-based build kernels equal what they replaced.

* :func:`~repro.filters.base.sorted_unique` equals ``np.unique`` on any
  column, and hands a strictly increasing column back uncopied;
* the one-pass block checksums of a run file equal a per-block walk of
  the heap spans (the walk the writer used before);
* every registry backend builds the same filter from shuffled keys with
  repeats as from their sorted unique column;
* Grafite's batch hashes (one block evaluation per run of equal blocks),
  the default one and the power-of-two one of string Grafite, equal the
  scalar hash on sorted, unsorted and single-block input, and near the
  top of the universe.
"""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hashing import LocalityPreservingHash, PowerOfTwoLocalityHash
from repro.engine.persist import _block_crcs, run_from_bytes, run_to_bytes
from repro.errors import InvalidKeyError
from repro.filters.base import as_key_array, sorted_unique
from repro.filters.registry import BACKENDS, FilterSpec
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import BLOCK_ENTRIES, _HEAP_TAGS, _TYPE_MASK, SSTable
from repro.lsm.ttl import ExpiringValue

TOP = 2**64 - 1


# ----------------------------------------------------------------------
# sorted_unique
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.integers(0, 40), st.integers(0, TOP), st.sampled_from([0, TOP])),
        max_size=300,
    ),
    order=st.sampled_from(["as_drawn", "sorted", "strict"]),
)
@example(values=[], order="as_drawn")
@example(values=[7], order="as_drawn")
@example(values=[0, TOP], order="strict")
@example(values=[TOP, 0, TOP, 0], order="as_drawn")
@example(values=[0, 0, 5, 5, TOP, TOP], order="sorted")
def test_sorted_unique_equals_np_unique(values, order):
    if order == "sorted":
        values = sorted(values)
    elif order == "strict":
        values = sorted(set(values))
    arr = np.asarray(values, dtype=np.uint64)
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    if arr.size and bool((arr[1:] > arr[:-1]).all()):
        assert got is arr  # already a key column: no copy


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=200))
def test_sorted_unique_equals_np_unique_on_signed_columns(values):
    arr = np.asarray(values, dtype=np.int64)
    assert sorted_unique(arr).tolist() == np.unique(arr).tolist()


def test_sorted_unique_does_not_write_into_its_input():
    arr = np.asarray([9, 3, 3, 7, 0], dtype=np.uint64)
    assert sorted_unique(arr).tolist() == [0, 3, 7, 9]
    assert arr.tolist() == [9, 3, 3, 7, 0]


def test_key_array_keeps_a_sorted_column_and_checks_the_universe():
    keys = np.arange(0, 3000, 3, dtype=np.uint64)
    assert as_key_array(keys, 3000) is keys
    with pytest.raises(InvalidKeyError, match="key 3000 outside universe"):
        as_key_array(np.asarray([5, 3000, 1], dtype=np.uint64), 3000)


# ----------------------------------------------------------------------
# One-pass block checksums
# ----------------------------------------------------------------------
def _reference_heap_bounds(tags, va, vb, start, stop):
    """The per-block walk: one ``isin`` over each block's tags."""
    kinds = tags[start:stop] & np.uint8(_TYPE_MASK)
    idx = np.flatnonzero(np.isin(kinds, _HEAP_TAGS))
    if idx.size == 0:
        return 0, 0
    first = start + int(idx[0])
    last = start + int(idx[-1])
    return int(va[first]), int(va[last]) + int(vb[last])


def _reference_block_crcs(keys, tags, va, vb, vexp, heap):
    n = int(keys.size)
    heap_mv = memoryview(heap)
    crcs = []
    for start in range(0, n, BLOCK_ENTRIES):
        stop = min(start + BLOCK_ENTRIES, n)
        crc = 0
        for col in (keys, tags, va, vb, vexp):
            crc = zlib.crc32(col[start:stop], crc)
        lo, hi = _reference_heap_bounds(tags, va, vb, start, stop)
        if hi > lo:
            crc = zlib.crc32(heap_mv[lo:hi], crc)
        crcs.append(crc & 0xFFFFFFFF)
    return crcs


def _mixed_value(i):
    """Ints, tombstones, bytes, str, pickled objects and expiring values;
    entries 256-767 hold no heap value, so two whole blocks have none."""
    if 256 <= i < 768:
        return TOMBSTONE if i % 5 == 0 else i
    kind = i % 6
    if kind == 0:
        return TOMBSTONE
    if kind == 1:
        return -i
    if kind == 2:
        return bytes([i % 251]) * (i % 9)
    if kind == 3:
        return f"value-{i}"
    if kind == 4:
        return (i, "pickled")
    return ExpiringValue(f"ttl-{i}", expires_at=10 + i)


@pytest.mark.parametrize(
    "n", [0, 1, 255, BLOCK_ENTRIES, BLOCK_ENTRIES + 1, 1000, 4 * BLOCK_ENTRIES]
)
def test_block_crcs_equal_the_per_block_walk(n):
    run = SSTable([(3 * i, _mixed_value(i)) for i in range(n)], 2**32)
    keys = run.keys_view()
    tags, va, vb, vexp, heap = run.value_columns()
    got = _block_crcs(keys, tags, va, vb, vexp, heap)
    assert got.tolist() == _reference_block_crcs(keys, tags, va, vb, vexp, heap)
    assert got.size == -(-n // BLOCK_ENTRIES)
    # The load path checks the same crcs: a round trip verifies and
    # gives the same entries back.
    loaded = run_from_bytes(run_to_bytes(run))
    assert loaded.entries() == run.entries()


def test_block_crcs_cover_a_heap_span_only_in_its_own_block():
    # Heap values in block 0 and block 2 only; block 1 holds none.
    values = [b"a" * 3] * BLOCK_ENTRIES + [1] * BLOCK_ENTRIES + ["tail"] * 10
    run = SSTable(list(enumerate(values)), 2**32)
    cols = (run.keys_view(),) + run.value_columns()
    assert _block_crcs(*cols).tolist() == _reference_block_crcs(*cols)


# ----------------------------------------------------------------------
# Every backend: shuffled keys with repeats == the sorted unique column
# ----------------------------------------------------------------------
UNIVERSE = 2**30


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_backends_build_the_same_filter_from_any_key_order(backend):
    rng = np.random.default_rng(23)
    unique = np.unique(rng.integers(0, UNIVERSE, 1500, dtype=np.uint64))
    messy = rng.permutation(np.concatenate([unique, unique[::3], unique[:5]]))
    spec = FilterSpec(backend=backend, bits_per_key=12, max_range_size=64, seed=4)
    build = spec.factory()
    from_sorted = build(unique, UNIVERSE)
    from_messy = build(messy, UNIVERSE)
    los = rng.integers(0, UNIVERSE - 64, 2000, dtype=np.uint64)
    his = los + rng.integers(0, 64, 2000, dtype=np.uint64)
    los[:200] = unique[:200]  # some ranges hold keys
    his[:200] = unique[:200]
    want = from_sorted.may_contain_range_batch(los, his)
    assert from_messy.may_contain_range_batch(los, his).tolist() == want.tolist()
    assert want[:200].all()
    assert from_messy.key_count == from_sorted.key_count == unique.size
    assert from_messy.size_in_bits == from_sorted.size_in_bits
    if backend == "grafite":
        codes = from_sorted._ef.to_array()
        assert codes.tolist() == from_messy._ef.to_array().tolist()
        assert codes.tolist() == np.unique(
            from_sorted._hash.hash_many(unique)
        ).tolist()


# ----------------------------------------------------------------------
# Grafite's batch hash == the scalar hash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("r, prime", [(1000, 2**61 - 1), (2**20, 2**31 - 1)])
@pytest.mark.parametrize("layout", ["sorted", "unsorted", "one_block"])
def test_hash_many_equals_the_scalar_hash(r, prime, layout):
    rng = np.random.default_rng(r)
    hasher = LocalityPreservingHash(r, domain=2**48, seed=5)
    assert hasher.block_hash.parameters[0] == prime  # both vectorised moduli
    if layout == "one_block":
        base = 17 * r
        keys = base + rng.integers(0, r, 300, dtype=np.uint64)
        keys.sort()
    else:
        keys = np.sort(rng.integers(0, 2**48, 3000, dtype=np.uint64))
        keys[100:110] = keys[100]  # repeated keys share a block too
        if layout == "unsorted":
            keys = rng.permutation(keys)
    before = keys.copy()
    got = hasher.hash_many(keys)
    assert got.dtype == np.uint64
    assert got.tolist() == [hasher(k) for k in keys.tolist()]
    assert keys.tolist() == before.tolist()


def test_hash_many_near_the_top_of_the_universe_uses_the_scalar_lane():
    hasher = LocalityPreservingHash(1 << 20, domain=2**64, seed=9)
    keys = np.asarray([TOP - 5, 3, TOP, 2**63], dtype=np.uint64)
    assert hasher.hash_many(keys).tolist() == [hasher(k) for k in keys.tolist()]


@pytest.mark.parametrize("k, domain", [(10, 2**64), (20, 2**40)])
@pytest.mark.parametrize("layout", ["sorted", "unsorted", "one_block", "near_top"])
def test_power_of_two_hash_many_equals_the_scalar_hash(k, domain, layout):
    """The shift-and-mask hash of string Grafite groups blocks the same
    way; a sum past 2^64 near the top of the universe only wraps bits the
    mask drops."""
    rng = np.random.default_rng(k)
    hasher = PowerOfTwoLocalityHash(k, domain=domain, seed=5)
    r = 1 << k
    if layout == "one_block":
        keys = np.sort(17 * r + rng.integers(0, r, 300, dtype=np.uint64))
    elif layout == "near_top":
        keys = np.asarray([domain - 1 - d for d in (0, 1, 5, r, 3 * r + 7)]
                          + [0, 3], dtype=np.uint64)
    else:
        keys = np.sort(rng.integers(0, domain - 1, 3000, dtype=np.uint64))
        keys[100:110] = keys[100]  # repeated keys share a block too
        if layout == "unsorted":
            keys = rng.permutation(keys)
    before = keys.copy()
    got = hasher.hash_many(keys)
    assert got.dtype == np.uint64
    assert got.tolist() == [hasher(x) for x in keys.tolist()]
    assert keys.tolist() == before.tolist()
