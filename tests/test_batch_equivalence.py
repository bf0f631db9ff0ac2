"""Property tests: every vectorised batch path equals its scalar loop.

The batch layer's whole contract is "semantically identical to calling
the scalar method per query" — an equivalence example tests keep
missing at exactly the awkward points (empty key sets, ``lo == hi``,
ranges hugging ``0`` or ``universe - 1``, ranges wider than Grafite's
reduced universe, Elias-Fano's ``lo > hi`` convention). Hypothesis
drives randomized key sets and query mixes through every filter with a
``may_contain_range_batch`` fast path (Grafite, Bucketing — and the
generic fallback on a filter without an override) plus
``EliasFano.contains_in_range_batch``, asserting element-wise equality
with the scalar loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketing import Bucketing
from repro.core.grafite import Grafite
from repro.engine import ShardedEngine
from repro.engine.batch import route_columnar, validate_batch_bounds
from repro.errors import InvalidQueryError
from repro.filters.base import RangeFilter
from repro.filters.registry import FilterSpec
from repro.succinct.elias_fano import EliasFano

UNIVERSE = 2**24


class ExactSetFilter(RangeFilter):
    """Minimal filter with *no* batch override: exercises the base-class
    ``may_contain_range_batch`` loop the engine's batch layer falls back
    to for filters without a vectorised fast path."""

    name = "exact-set"

    def __init__(self, keys, universe):
        super().__init__(universe)
        self._keys = np.unique(np.asarray(sorted(keys), dtype=np.uint64))

    @property
    def key_count(self):
        return int(self._keys.size)

    @property
    def size_in_bits(self):
        return int(self._keys.size) * 64

    def may_contain_range(self, lo, hi):
        self._check_range(lo, hi)
        idx = int(np.searchsorted(self._keys, lo, side="left"))
        return idx < self._keys.size and int(self._keys[idx]) <= hi

keys_strategy = st.lists(
    st.integers(0, UNIVERSE - 1), min_size=0, max_size=200
)


def queries_strategy(allow_inverted: bool):
    """Bound pairs mixing random, boundary-hugging and degenerate ranges."""
    bound = st.integers(0, UNIVERSE - 1)
    random_pair = st.tuples(bound, bound)
    boundary = st.sampled_from(
        [
            (0, 0),
            (0, UNIVERSE - 1),
            (UNIVERSE - 1, UNIVERSE - 1),
            (0, 1),
            (UNIVERSE - 2, UNIVERSE - 1),
        ]
    )
    pair = st.one_of(random_pair, boundary)
    if allow_inverted:
        return st.lists(pair, min_size=0, max_size=64)
    return st.lists(
        pair.map(lambda p: (min(p), max(p))), min_size=0, max_size=64
    )


def as_bounds(queries):
    los = np.asarray([lo for lo, _ in queries], dtype=np.uint64)
    his = np.asarray([hi for _, hi in queries], dtype=np.uint64)
    return los, his


def assert_batch_equals_scalar(filt, queries):
    los, his = as_bounds(queries)
    batch = filt.may_contain_range_batch(los, his)
    assert batch.dtype == bool and batch.shape == (len(queries),)
    for i, (lo, hi) in enumerate(queries):
        assert batch[i] == filt.may_contain_range(lo, hi), (
            f"{type(filt).__name__}: query {i} [{lo}, {hi}] diverged "
            f"(batch={bool(batch[i])})"
        )


@given(keys=keys_strategy, queries=queries_strategy(False), data=st.data())
@settings(max_examples=60, deadline=None)
def test_grafite_batch_equals_scalar(keys, queries, data):
    bits = data.draw(st.sampled_from([4, 8, 16]))
    max_range = data.draw(st.sampled_from([1, 16, 1024]))
    filt = Grafite(
        keys, UNIVERSE, bits_per_key=bits, max_range_size=max_range, seed=11
    )
    assert_batch_equals_scalar(filt, queries)


@given(keys=keys_strategy, queries=queries_strategy(False), data=st.data())
@settings(max_examples=60, deadline=None)
def test_bucketing_batch_equals_scalar(keys, queries, data):
    bits = data.draw(st.sampled_from([2, 8, 16]))
    filt = Bucketing(keys, UNIVERSE, bits_per_key=bits)
    assert_batch_equals_scalar(filt, queries)


@given(keys=st.lists(st.integers(0, UNIVERSE - 1), max_size=60),
       queries=queries_strategy(False))
@settings(max_examples=30, deadline=None)
def test_generic_batch_fallback_equals_scalar(keys, queries):
    """A filter without a vectorised override uses the base-class loop;
    the engine's batch layer relies on that being exactly equivalent."""
    filt = ExactSetFilter(keys, UNIVERSE)
    assert_batch_equals_scalar(filt, queries)


@given(values=keys_strategy, queries=queries_strategy(True))
@settings(max_examples=60, deadline=None)
def test_elias_fano_batch_equals_scalar(values, queries):
    ef = EliasFano(sorted(set(values)), UNIVERSE)
    los, his = as_bounds(queries)
    batch = ef.contains_in_range_batch(los, his)
    for i, (lo, hi) in enumerate(queries):
        assert batch[i] == ef.contains_in_range(lo, hi), (
            f"EliasFano: query {i} [{lo}, {hi}] diverged"
        )


@given(
    keys=st.lists(st.integers(0, UNIVERSE - 1), max_size=120),
    deletes=st.lists(st.integers(0, UNIVERSE - 1), max_size=20),
    queries=queries_strategy(False),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_engine_columnar_batch_equals_scalar(keys, deletes, queries, data):
    """The whole columnar pipeline — routing plan, straddler expansion,
    vectorised memtable probe, scatter-back — must equal a loop of
    scalar ``range_empty`` calls on any engine state, including shard
    widths narrow enough that random queries straddle boundaries."""
    num_shards = data.draw(st.sampled_from([1, 3, 8]))
    flush = data.draw(st.booleans())
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=num_shards,
        memtable_limit=32,
        compaction_fanout=3,
        filter_spec=FilterSpec(
            "grafite", bits_per_key=8, max_range_size=64, seed=3
        ),
    )
    for key in keys:
        engine.put(key, key & 0xFF)
    for key in deletes:
        engine.delete(key)
    if flush:
        engine.flush_all()
    los, his = as_bounds(queries)
    batch = engine.batch_range_empty(los, his)
    assert batch.dtype == bool and batch.shape == (len(queries),)
    for i, (lo, hi) in enumerate(queries):
        assert batch[i] == engine.range_empty(lo, hi), (
            f"engine({num_shards} shards): query {i} [{lo}, {hi}] diverged"
        )


@given(queries=queries_strategy(False), data=st.data())
@settings(max_examples=40, deadline=None)
def test_columnar_plan_matches_scalar_router(queries, data):
    """``route_columnar``'s segment columns must be exactly the scalar
    router's splits: same (shard, seg_lo, seg_hi) per query, grouped by
    shard with consistent CSR offsets."""
    num_shards = data.draw(st.sampled_from([1, 2, 5, 16]))
    engine_router = ShardedEngine(UNIVERSE, num_shards=num_shards).router
    los, his = validate_batch_bounds(UNIVERSE, *as_bounds(queries))
    plan = route_columnar(engine_router, los, his)
    got = {}
    for g in range(plan.shard_ids.size):
        sid, seg_lo, seg_hi, qid = plan.group(g)
        for j in range(qid.size):
            got.setdefault(int(qid[j]), []).append(
                (sid, int(seg_lo[j]), int(seg_hi[j]))
            )
    for i, (lo, hi) in enumerate(queries):
        want = sorted(engine_router.split(lo, hi))
        assert sorted(got.get(i, [])) == want, f"query {i} [{lo}, {hi}]"
    want_straddlers = {
        i for i, (lo, hi) in enumerate(queries)
        if len(engine_router.split(lo, hi)) > 1
    }
    assert set(plan.straddler_qids.tolist()) == want_straddlers


class TestValidateBatchBounds:
    """Regression: malformed bound columns used to flow straight into
    the uint64 cast — negative ``int64`` values wrapped around to huge
    keys and floats truncated silently, turning caller bugs into wrong
    verdicts instead of errors."""

    def test_rejects_negative_signed_bounds(self):
        los = np.array([-1, 5], dtype=np.int64)
        his = np.array([10, 20], dtype=np.int64)
        with pytest.raises(InvalidQueryError, match="negative bound"):
            validate_batch_bounds(UNIVERSE, los, his)
        with pytest.raises(InvalidQueryError, match="negative bound"):
            validate_batch_bounds(
                UNIVERSE, np.array([0, 5], dtype=np.int64),
                np.array([10, -20], dtype=np.int64),
            )

    def test_rejects_float_columns(self):
        with pytest.raises(InvalidQueryError, match="must be integer"):
            validate_batch_bounds(
                UNIVERSE, np.array([1.5, 2.0]), np.array([3.0, 4.0])
            )

    def test_rejects_object_column_overflow_and_junk(self):
        with pytest.raises(InvalidQueryError):
            validate_batch_bounds(
                UNIVERSE,
                np.array([2**70], dtype=object),
                np.array([2**70 + 1], dtype=object),
            )
        with pytest.raises(InvalidQueryError):
            validate_batch_bounds(
                UNIVERSE,
                np.array(["7"], dtype=object),
                np.array(["9"], dtype=object),
            )
        with pytest.raises(InvalidQueryError):
            validate_batch_bounds(
                UNIVERSE, np.array([-3], dtype=object),
                np.array([9], dtype=object),
            )

    def test_accepts_nonnegative_signed_and_python_ints(self):
        los, his = validate_batch_bounds(
            UNIVERSE, np.array([0, 5], dtype=np.int64), [7, 9]
        )
        assert los.dtype == np.uint64 and his.dtype == np.uint64
        np.testing.assert_array_equal(los, [0, 5])
        np.testing.assert_array_equal(his, [7, 9])

    def test_accepts_empty_columns(self):
        los, his = validate_batch_bounds(UNIVERSE, [], [])
        assert los.size == 0 and los.dtype == np.uint64


def test_empty_batches_are_empty_arrays():
    empty = np.zeros(0, dtype=np.uint64)
    grafite = Grafite([1, 5], UNIVERSE, bits_per_key=8, max_range_size=16)
    bucketing = Bucketing([1, 5], UNIVERSE, bits_per_key=8)
    ef = EliasFano([1, 5], UNIVERSE)
    for result in (
        grafite.may_contain_range_batch(empty, empty),
        bucketing.may_contain_range_batch(empty, empty),
        ef.contains_in_range_batch(empty, empty),
    ):
        assert result.shape == (0,) and result.dtype == bool


@pytest.mark.parametrize("n_keys", [0, 1, 3])
def test_no_false_negatives_on_member_ranges(n_keys):
    """Batch answers must stay superset-correct: a range containing a
    stored key can never come back 'surely empty'."""
    rng = np.random.default_rng(17)
    keys = np.unique(rng.integers(0, UNIVERSE, n_keys, dtype=np.uint64))
    grafite = Grafite(keys, UNIVERSE, bits_per_key=12, max_range_size=64)
    bucketing = Bucketing(keys, UNIVERSE, bits_per_key=12)
    if keys.size == 0:
        return
    los = keys
    his = np.minimum(keys + np.uint64(3), np.uint64(UNIVERSE - 1))
    assert grafite.may_contain_range_batch(los, his).all()
    assert bucketing.may_contain_range_batch(los, his).all()
