"""Zero-copy columnar batch range-emptiness over a sharded engine.

A serving tier rarely asks one question at a time: it accumulates a
batch of range probes and wants them answered at throughput, not
per-call latency. The batch path keeps per-query python overhead out of
the whole pipeline by moving the batch as structure-of-arrays columns:

0. :func:`batch_range_empty` validates the bound columns once. A batch
   of at most :data:`SCALAR_CUTOFF` ranges takes the straight path
   (:func:`_straight_batch_empty`): scalar ``router.split`` routing and
   each shard's segments through :func:`shard_batch_empty`'s scalar
   lane, with no planner dedup, columnar routing or negative cache —
   their set-up costs more than a handful of ranges saves. Larger
   batches go through the engine's planner, when one is attached, to
   :func:`routed_batch_empty`;
1. routing produces a :class:`ColumnarPlan` — contiguous ``uint64``
   ``seg_lo`` / ``seg_hi`` columns plus an ``int64`` position column
   (``qid``), argsort-grouped by shard with CSR-style group offsets.
   Queries straddling a shard boundary are expanded into per-shard
   segments *inside* the same columns with one vectorised ``np.repeat``
   — no python splits, no dict-of-lists, no per-query tuples;
2. per shard, every run's filter is consulted once for the *whole*
   sub-batch via :meth:`RangeFilter.may_contain_range_batch` — for
   Grafite that is the vectorised Algorithm 2, its intervals answered
   by one ``searchsorted`` over the run's decoded codes (decoded once,
   on the run's first batch probe); the memtable is probed with one
   ``searchsorted`` over its cached key column;
3. only queries some filter (or the memtable) flagged as "maybe
   non-empty" are verified exactly — under a well-sized filter that is
   the FPR-sized minority. The filter verdicts are reused, never
   probed again: each run is read once for all still-open queries with
   :meth:`~repro.lsm.sstable.SSTable.scan_batch` (a ``searchsorted``
   pair and a liveness reduce), and only memtable overlaps and queries
   whose newest matching run holds only dead keys take the store's
   scalar run walk (which bisects a leveled level's fence index,
   :mod:`repro.lsm.levels`, to the slices a range touches). A store
   with a block cache verifies the same way: the reads take the run
   columns, as every read does, and log their block spans, and the log
   is then replayed through the cache in a ``range_empty`` loop's order
   (:class:`~repro.lsm.cache.BlockTouchLog`), one ``touch`` per block,
   so the cache keeps the I/O ledger and charges the simulated device
   exactly as that loop would;
4. per-shard verdicts are scattered back into the result bitmap by the
   position column (``empty[qid[~sub_empty]] = False``), which AND-folds
   a straddler's segments for free.

Between the caller's bound arrays and the Elias-Fano kernel no per-query
Python object is created. Queries proven empty by the filters cost zero
simulated I/O and are credited to ``reads_avoided``, matching the scalar
path's accounting: every lane moves the
:class:`~repro.lsm.store.IoStats` ledger and each run's ``io_reads``
exactly as a run-by-run ``range_empty`` loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import gt
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidQueryError
from repro.lsm.cache import BlockTouchLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.engine import ShardedEngine
    from repro.engine.sharding import ShardRouter
    from repro.lsm.sstable import SSTable
    from repro.lsm.store import LSMStore

#: Sub-batches of at most this many ranges skip the columnar set-up (a
#: handful of ``range_empty`` calls beats numpy's per-call overhead).
SCALAR_CUTOFF = 8


@dataclass(frozen=True)
class ColumnarPlan:
    """A routed batch in structure-of-arrays form.

    ``seg_lo`` / ``seg_hi`` / ``qid`` are parallel columns holding every
    per-shard segment of the batch, sorted by owning shard;
    ``shard_ids[g]`` owns the half-open slice
    ``starts[g]:starts[g + 1]`` of those columns. ``qid`` maps each
    segment back to the originating query position, so verdicts scatter
    back with one fancy-indexed store per shard group. A query that
    straddles shard boundaries contributes one segment per overlapped
    shard (its ``qid`` repeats); ``straddler_qids`` lists those queries
    for callers that answer them atomically instead (the concurrent
    service holds all spanned locks at once).
    """

    shard_ids: np.ndarray      # int64, ascending, one per non-empty group
    starts: np.ndarray         # int64, len(shard_ids) + 1 CSR offsets
    seg_lo: np.ndarray         # uint64 segment lower bounds
    seg_hi: np.ndarray         # uint64 segment upper bounds
    qid: np.ndarray            # int64 originating query positions
    straddler_qids: np.ndarray # int64 queries spanning > 1 shard

    def group(self, g: int) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """The g-th shard group as ``(sid, seg_lo, seg_hi, qid)`` views."""
        sl = slice(int(self.starts[g]), int(self.starts[g + 1]))
        return int(self.shard_ids[g]), self.seg_lo[sl], self.seg_hi[sl], self.qid[sl]


def route_columnar(router: "ShardRouter", los: np.ndarray, his: np.ndarray) -> ColumnarPlan:
    """Route a validated batch into a :class:`ColumnarPlan`, all-numpy.

    Straddlers are expanded with ``np.repeat`` (shards own contiguous
    ranges, so a query spanning shards ``a..b`` becomes ``b - a + 1``
    consecutive segments) and every segment is clamped against the
    router's cached per-shard bound columns. A stable argsort then
    groups the segment columns by shard.
    """
    n = int(los.size)
    no_straddlers = np.zeros(0, dtype=np.int64)
    if router.num_shards == 1:  # width may be 2^64: no uint64 division
        return ColumnarPlan(
            shard_ids=np.zeros(1, dtype=np.int64),
            starts=np.asarray([0, n], dtype=np.int64),
            seg_lo=los,
            seg_hi=his,
            qid=np.arange(n, dtype=np.int64),
            straddler_qids=no_straddlers,
        )
    width = np.uint64(router.shard_width)
    sid_lo = (los // width).astype(np.int64)
    sid_hi = (his // width).astype(np.int64)
    counts = sid_hi - sid_lo + 1
    straddlers = np.flatnonzero(counts > 1)
    if straddlers.size == 0:
        # Fast path: one segment per query, group by owning shard.
        order = np.argsort(sid_lo, kind="stable")
        seg_lo, seg_hi, qid = los[order], his[order], order.astype(np.int64)
        sids = sid_lo[order]
    else:
        rep_qid = np.repeat(np.arange(n, dtype=np.int64), counts)
        seg_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(rep_qid.size, dtype=np.int64) - seg_starts[rep_qid]
        sids = sid_lo[rep_qid] + within
        shard_los, shard_his = router.bounds_arrays()
        seg_lo = np.maximum(los[rep_qid], shard_los[sids])
        seg_hi = np.minimum(his[rep_qid], shard_his[sids])
        order = np.argsort(sids, kind="stable")
        seg_lo, seg_hi, qid, sids = seg_lo[order], seg_hi[order], rep_qid[order], sids[order]
    if sids.size == 0:
        return ColumnarPlan(
            shard_ids=np.zeros(0, dtype=np.int64),
            starts=np.zeros(1, dtype=np.int64),
            seg_lo=seg_lo, seg_hi=seg_hi, qid=np.zeros(0, dtype=np.int64),
            straddler_qids=no_straddlers,
        )
    cuts = np.flatnonzero(np.diff(sids)) + 1
    starts = np.concatenate(([0], cuts, [sids.size])).astype(np.int64)
    return ColumnarPlan(
        shard_ids=sids[starts[:-1]].astype(np.int64),
        starts=starts,
        seg_lo=seg_lo,
        seg_hi=seg_hi,
        qid=qid,
        straddler_qids=straddlers.astype(np.int64),
    )


def route_single_shard(
    router, los: np.ndarray, his: np.ndarray
) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]], np.ndarray]:
    """Group single-shard queries: ``({sid: (los, his, qids)}, straddler_qids)``.

    The concurrent service's view of :func:`route_columnar`: single-shard
    queries (the overwhelming majority when shards are much wider than
    ranges) come back as per-shard columns ready for fan-out; queries
    straddling a shard boundary are returned as indices for the service
    to answer atomically under all spanned shards' locks.
    """
    plan = route_columnar(router, los, his)
    straddler_set = plan.straddler_qids
    groups: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    if straddler_set.size == 0:
        for g in range(plan.shard_ids.size):
            sid, q_lo, q_hi, qid = plan.group(g)
            groups[sid] = (q_lo, q_hi, qid)
        return groups, straddler_set
    keep_mask = np.ones(int(los.size), dtype=bool)
    keep_mask[straddler_set] = False
    for g in range(plan.shard_ids.size):
        sid, q_lo, q_hi, qid = plan.group(g)
        keep = keep_mask[qid]
        if keep.any():
            groups[sid] = (q_lo[keep], q_hi[keep], qid[keep])
    return groups, straddler_set


def _as_uint64_bounds(values, name: str) -> np.ndarray:
    """Coerce one bound column to ``uint64``, rejecting lossy casts.

    A bare ``np.asarray(..., dtype=np.uint64)`` silently wraps negative
    integers modulo 2^64 (``lo = -1`` becomes ``2**64 - 1``) and
    truncates floats — both turn caller bugs into well-formed queries
    over the wrong range. Negative and non-integer inputs raise
    :class:`InvalidQueryError` instead.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64, copy=False)
    if arr.dtype.kind == "i":
        if arr.size and bool((arr < 0).any()):
            raise InvalidQueryError(f"negative bound in batch {name} column")
        return arr.astype(np.uint64)
    if arr.size == 0:
        # np.asarray([]) defaults to float64; an empty column is fine.
        return arr.astype(np.uint64)
    if arr.dtype.kind == "O":
        # Python ints too large/mixed for a fixed-width dtype: insist on
        # integral elements (astype would happily *parse* numeric
        # strings), then let numpy range-check the per-element cast
        # instead of wrapping.
        integral = all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            for v in arr.flat
        )
        try:
            if not integral:
                raise TypeError("non-integer element in object column")
            return arr.astype(np.uint64)
        except (OverflowError, TypeError, ValueError) as exc:
            raise InvalidQueryError(
                f"batch {name} column must hold non-negative integers < 2**64"
            ) from exc
    raise InvalidQueryError(
        f"batch {name} column must be integer, got dtype {arr.dtype}"
    )


def validate_batch_bounds(
    universe: int, los: np.ndarray, his: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise and validate batch bound arrays; returns uint64 copies.

    Rejects mismatched shapes, ``lo > hi``, bounds at or past the
    universe, and — via :func:`_as_uint64_bounds` — negative or
    non-integer inputs that a raw uint64 cast would silently mangle.
    """
    los = _as_uint64_bounds(los, "lo")
    his = _as_uint64_bounds(his, "hi")
    if los.shape != his.shape or los.ndim != 1:
        raise InvalidQueryError(
            "batch queries need equal-length one-dimensional lo/hi arrays"
        )
    if los.size <= SCALAR_CUTOFF:
        # A few Python compares cost less than two numpy reductions.
        lo_list, hi_list = los.tolist(), his.tolist()
        out_of_order = any(map(gt, lo_list, hi_list))
        top = max(hi_list, default=0)
    else:
        out_of_order = bool((los > his).any())
        top = int(his.max())
    if out_of_order:
        raise InvalidQueryError("batch query with lo > hi")
    if los.size and top >= universe:
        raise InvalidQueryError("batch query outside the universe")
    return los, his


def memtable_overlaps(store: "LSMStore", q_lo: np.ndarray, q_hi: np.ndarray) -> np.ndarray:
    """Which queries have *any* memtable entry (live or tombstone) in range.

    One ``searchsorted`` over the memtable's cached sorted key column —
    the columnar replacement for a per-query python scan. Tombstones
    count: any entry in range means the memtable has an opinion and the
    query must take the exact verification path (or, in process mode,
    stay off the snapshot worker).
    """
    memtable = store._memtable
    if not len(memtable):
        return np.zeros(q_lo.size, dtype=bool)
    keys = memtable.keys_array()
    idx = np.searchsorted(keys, q_lo, side="left")
    overlaps = np.zeros(q_lo.size, dtype=bool)
    hit = idx < keys.size
    overlaps[hit] = keys[idx[hit]] <= q_hi[hit]
    return overlaps


def shard_batch_empty(
    store: "LSMStore", q_lo: np.ndarray, q_hi: np.ndarray
) -> np.ndarray:
    """The per-shard batch kernel: emptiness of each ``[q_lo[j], q_hi[j]]``.

    A sub-batch of at most :data:`SCALAR_CUTOFF` ranges runs as a loop
    of the exact :meth:`~repro.lsm.store.LSMStore.range_empty`; larger
    ones run columnar (:func:`_columnar_empty`). Both lanes give the same
    verdicts, the same :class:`~repro.lsm.store.IoStats` ledger and the
    same per-run I/O counts, and both report the sub-batch once to the
    shard's ``query_observer``.
    Returns a boolean array aligned with the inputs (``True`` = provably
    empty). This is the unit the concurrent service fans out: one call
    per (shard, chunk), safe under that shard's read lock.
    """
    if q_lo.size <= SCALAR_CUTOFF:
        empty = np.fromiter(
            map(store.range_empty, q_lo.tolist(), q_hi.tolist()),
            dtype=bool, count=int(q_lo.size),
        )
    else:
        empty = _columnar_empty(store, q_lo, q_hi)
    observer = store.query_observer
    if observer is not None:
        # Near-zero cost workload telemetry (two numpy reductions) for
        # the per-shard auto-tuner; never consulted for correctness.
        observer(q_lo, q_hi, empty)
    return empty


def _columnar_empty(
    store: "LSMStore", q_lo: np.ndarray, q_hi: np.ndarray
) -> np.ndarray:
    """The columnar lane of :func:`shard_batch_empty`.

    Probes the memtable with one vectorised ``searchsorted``, then walks
    the level topology in recency order consulting each run's filter
    once for the whole sub-batch. Before any filter is asked, each run's
    key bounds prune the sub-batch vectorially — under leveled
    compaction a level is many key-disjoint slices, so most queries skip
    most slices on this fence check alone and each slice's filter sees
    only the queries that can touch it. The per-run verdicts are kept:
    the "maybe" minority is then verified exactly without a second
    filter probe: in columns by :func:`_verify_columns`, and by the
    store's scalar walk for the queries the memtable has an opinion on.
    With a block cache attached, every read logs its block span instead
    of touching the cache, and the log is replayed through the cache at
    the end, so hits, misses and the LRU state are those of a
    ``range_empty`` loop.
    """
    # The memtable is exact (no false positives): any entry in range —
    # live or tombstone — sends the query to the verification path.
    overlap = memtable_overlaps(store, q_lo, q_hi)
    maybe = overlap.copy()
    runs = store._runs()
    must_read: List[Optional[np.ndarray]] = []  # per run; None: no query
    for run in runs:
        bounds = run.key_bounds
        if bounds is None:
            must_read.append(None)
            continue
        hits = (q_lo <= np.uint64(bounds[1])) & (q_hi >= np.uint64(bounds[0]))
        if run.filter is None or not hits.any():
            must = hits  # no filter: every overlapping probe reads the run
        elif bool(hits.all()):
            must = run.filter.may_contain_range_batch(q_lo, q_hi)
        else:
            idx = np.flatnonzero(hits)
            must = np.zeros(q_lo.size, dtype=bool)
            must[idx[run.filter.may_contain_range_batch(q_lo[idx], q_hi[idx])]] = True
        if must.any():
            maybe |= must
            must_read.append(must)
        else:
            must_read.append(None)
    # Queries every filter pruned are empty with zero I/O performed:
    # one avoided read per (query, run) pair, as in the scalar path —
    # which also credits keyless (empty) runs its fence check skips, so
    # the ledger the auto-tuner diffs must count *all* runs here too.
    clean = int((~maybe).sum())
    store.stats.reads_avoided += clean * len(runs)
    empty = np.ones(q_lo.size, dtype=bool)
    cache = store.cache
    touches = None if cache is None else BlockTouchLog()
    # The memtable has an opinion on the overlapping queries: they take
    # the scalar walk; the rest verify in columns.
    _verify_columns(store, runs, must_read, q_lo, q_hi,
                    np.flatnonzero(maybe & ~overlap), empty, touches)
    for j in np.flatnonzero(overlap).tolist():
        lo, hi = int(q_lo[j]), int(q_hi[j])
        shadowed = store._memtable_shadowed(lo, hi)
        empty[j] = shadowed is not None and store._walk_runs(
            lo, hi, shadowed, 0, _verdicts(must_read, j), _logger(touches, j)
        )
    if touches is not None:
        hits, misses = touches.replay(cache, runs)
        store.stats.cache_hits += hits
        store.stats.cache_misses += misses
    return empty


def _logger(touches: Optional[BlockTouchLog], j: int):
    """The scalar walk's ``log`` for query ``j`` (``None``: no cache)."""
    return None if touches is None else partial(touches.add, j)


def _verdicts(must_read: List[Optional[np.ndarray]], j: int) -> List[bool]:
    """Query ``j``'s filter verdict for every run."""
    return [must is not None and bool(must[j]) for must in must_read]


def _verify_columns(
    store: "LSMStore",
    runs: List["SSTable"],
    must_read: List[Optional[np.ndarray]],
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    open_q: np.ndarray,
    empty: np.ndarray,
    touches: Optional[BlockTouchLog] = None,
) -> None:
    """Exact verification of the queries ``open_q`` with column reads.

    Walks ``runs`` newest first over the still-open queries. The ones a
    run's filter flagged read it with one :meth:`SSTable.scan_batch`; a
    query closes as non-empty (``empty[j] = False``) when this newest
    matching run holds a live entry in range. When every matched entry
    is tombstoned or expired, the query is handed to the store's scalar
    walk from the next run on, with those keys shadowed. Queries no run
    matches stay empty. The ledger moves as a ``range_empty`` loop's.
    With ``touches`` given (a cached store) no read charges ``io_reads``
    or touches the cache; each logs its block span there instead.
    """
    stats = store.stats
    now = store.ttl_now
    for r, (run, must) in enumerate(zip(runs, must_read)):
        if open_q.size == 0:
            return
        if must is None:
            stats.reads_avoided += int(open_q.size)
            continue
        taken = np.flatnonzero(must[open_q])
        stats.reads_avoided += int(open_q.size - taken.size)
        if taken.size == 0:
            continue
        take = open_q[taken]
        stats.reads_performed += int(take.size)
        take_lo, take_hi = q_lo[take], q_hi[take]
        starts, stops, live = run.scan_batch(
            take_lo, take_hi, now, charge=touches is None
        )
        if touches is not None:
            touches.add_batch(take, r, run, take_lo, take_hi)
        matched = stops > starts
        stats.wasted_reads += int(take.size - matched.sum())
        empty[take[live]] = False
        keys = run.keys_view()
        for i in np.flatnonzero(matched & ~live).tolist():
            j = int(take[i])
            shadowed = set(keys[starts[i]:stops[i]].tolist())
            empty[j] = store._walk_runs(
                int(q_lo[j]), int(q_hi[j]), shadowed, r + 1,
                _verdicts(must_read, j), _logger(touches, j),
            )
        keep = np.ones(open_q.size, dtype=bool)
        keep[taken[matched]] = False
        open_q = open_q[keep]


def batch_range_empty(
    engine: "ShardedEngine",
    los: np.ndarray,
    his: np.ndarray,
) -> np.ndarray:
    """Answer ``range_empty`` for every ``[los[i], his[i]]`` at once.

    The public, validating entry: the bound columns are validated here,
    once, and nowhere further down. Returns a boolean array: ``True``
    means the range holds no live key (exact, never approximate —
    filters only *prune*, the maybes are verified by the store).
    Semantically identical to a loop of
    :meth:`ShardedEngine.range_empty`.

    A batch of at most :data:`SCALAR_CUTOFF` ranges takes the straight
    path (:func:`_straight_batch_empty`): no planner, no columnar
    routing, no negative cache. A larger one goes through the engine's
    planner, when one is attached, to :func:`routed_batch_empty`.
    """
    los, his = validate_batch_bounds(engine.universe, los, his)
    if los.size <= SCALAR_CUTOFF:
        return _straight_batch_empty(engine, los, his)
    planner = engine.planner
    if planner is None:
        return routed_batch_empty(engine, los, his)
    return planner.execute(los, his, partial(routed_batch_empty, engine))


def _straight_batch_empty(
    engine: "ShardedEngine", los: np.ndarray, his: np.ndarray
) -> np.ndarray:
    """A tiny validated batch, routed with the scalar ``router.split``.

    Each shard's segments still go through :func:`shard_batch_empty`
    (its scalar lane, as no shard gets more than one segment per query),
    so the shard's ``query_observer`` sees every sub-batch. Planner
    dedup and the negative cache are skipped: on fresh ranges they cost
    more than they save.
    """
    groups: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
    for j, (lo, hi) in enumerate(zip(los.tolist(), his.tolist())):
        for sid, seg_lo, seg_hi in engine.router.split(lo, hi):
            seg_los, seg_his, qids = groups.setdefault(sid, ([], [], []))
            seg_los.append(seg_lo)
            seg_his.append(seg_hi)
            qids.append(j)
    if len(groups) == 1:
        # One shard holds every range whole (a range that straddled
        # shards would have made a second group): its segments are the
        # ranges themselves, and its verdicts the batch's.
        (sid,) = groups
        return shard_batch_empty(engine.shards[sid], los, his)
    empty = np.ones(los.size, dtype=bool)
    for sid in sorted(groups):
        seg_los, seg_his, qids = groups[sid]
        sub_empty = shard_batch_empty(
            engine.shards[sid],
            np.asarray(seg_los, dtype=np.uint64),
            np.asarray(seg_his, dtype=np.uint64),
        )
        for j, seg_empty in zip(qids, sub_empty.tolist()):
            if not seg_empty:
                empty[j] = False
    return empty


def routed_batch_empty(
    engine: "ShardedEngine",
    los: np.ndarray,
    his: np.ndarray,
) -> np.ndarray:
    """The columnar batch path over already-validated ``uint64`` columns.

    Routing, per-shard probing and the scatter back to query positions
    all run on contiguous columns; a straddler's segments AND-fold
    through the scatter (the result starts ``True`` and only ever flips
    to ``False``). With a planner attached, each shard's segments — a
    straddler's included, as each lies in one shard — go through its
    negative cache (:meth:`~repro.engine.planner.BatchPlanner.shard_empty`).
    """
    plan = route_columnar(engine.router, los, his)
    planner = engine.planner
    empty = np.ones(los.size, dtype=bool)
    for g in range(plan.shard_ids.size):
        sid, q_lo, q_hi, qid = plan.group(g)
        store = engine.shards[sid]
        if planner is None:
            sub_empty = shard_batch_empty(store, q_lo, q_hi)
        else:
            sub_empty = planner.shard_empty(
                sid, store, q_lo, q_hi, partial(shard_batch_empty, store)
            )
        empty[qid[~sub_empty]] = False
    return empty
