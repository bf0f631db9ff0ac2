"""Batch query planner: dedup, negative-result cache, dispatch.

The columnar batch path (:mod:`repro.engine.batch`) executes whatever
the caller hands it, verbatim. Skewed serving traffic — the Zipfian
batches the net front door's batching windows coalesce — is full of
exact duplicates, and a range-emptiness workload has a property no
key-value cache enjoys: emptiness verdicts *compose*. An empty range
proves every contained range empty, and "``[a, b]`` was empty" stays
true for as long as the shard's run set is unchanged and no memtable
write landed inside ``[a, b]``. The planner exploits both, as a
pipeline of discrete passes in front of the executor:

1. **dedup** — :func:`plan_batch` lexsorts the batch and folds exact
   duplicates; the executor is asked about each distinct ``(lo, hi)``
   pair once and the verdicts scatter back through ``inverse``. Ranges
   are never widened: a filter's false-positive probability grows with
   the queried width, so a cover merged from overlapping ranges is
   rarely proven empty and its members would be asked again. All
   numpy, no per-query python objects.
2. **negative cache** — :class:`NegativeRangeCache`, a per-shard
   sorted-disjoint-interval structure of ranges proven empty, tagged
   with the shard's :attr:`~repro.lsm.store.LSMStore.runs_version` at
   the time of proof. It runs per shard, inside the sub-batch
   (:meth:`BatchPlanner.shard_empty`), under the same lock hold that
   executes it: the live version is read once, a hit requires the
   stored tag to match it (flush/compaction bump it, evicting
   wholesale) and the live memtable to have no entry — live or
   tombstone — inside the queried range (writes do not bump the
   version; the overlap check is what makes replaying a cached verdict
   exact), and the new empties are recorded at that same version.
   Containment counts: a cached ``[0, 100]`` answers ``[10, 20]``.
3. **dispatch** — :meth:`BatchPlanner.choose_mode` sends a per-shard
   sub-batch of the process-mode service to the snapshot workers when
   it is large enough to pay the round trip and its memtable overlap is
   low; everything else runs locally, where
   :func:`~repro.engine.batch.shard_batch_empty` picks its own scalar
   or columnar lane by size.

Exactness is preserved end to end: every verdict the planner emits is
either the executor's own answer or a cached verdict whose validity
conditions are checked at hit time. The hypothesis equivalence suite
and the planner-enabled differential streams hold it to that.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.engine.batch import memtable_overlaps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.engine import ShardedEngine
    from repro.lsm.store import LSMStore

#: Answers a (lo, hi) column pair with an exact emptiness column.
Executor = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: A process-mode sub-batch below this many ranges stays local: the
#: workers' marshalling round trip is not amortised.
PROCESS_FLOOR = 64
#: Above this memtable-overlap fraction a snapshot worker would bounce
#: most queries back to the local exact path anyway.
OVERLAP_CEILING = 0.5


def _merge_intervals(
    los: np.ndarray, his: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge inclusive uint64 intervals into sorted disjoint covers.

    Overlapping *and adjacent* intervals coalesce (``[0, 5]`` and
    ``[6, 10]`` become ``[0, 10]``): for emptiness semantics the union
    of empty ranges is empty, and a denser cover answers more
    containment probes. The adjacency test is uint64-overflow-safe (see
    :func:`_coalesce_sorted`).
    """
    if los.size == 0:
        return los.astype(np.uint64), his.astype(np.uint64)
    order = np.argsort(los)  # ties need no order: the cover is canonical
    return _coalesce_sorted(los[order], his[order])


def _coalesce_sorted(
    los: np.ndarray, his: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The linear pass of :func:`_merge_intervals`: coalesce intervals
    already sorted by ``lo`` into sorted disjoint covers."""
    cummax = np.maximum.accumulate(his)
    starts = np.ones(los.size, dtype=bool)
    nxt, prev = los[1:], cummax[:-1]
    # A gap needs lo > prev_hi + 1; ``nxt - 1`` only wraps at nxt == 0,
    # where the first test is already False.
    starts[1:] = (nxt > prev) & (nxt - np.uint64(1) > prev)
    idx = np.flatnonzero(starts)
    return los[idx], cummax[np.append(idx[1:], los.size) - 1]


def _fold_into(
    elos: np.ndarray, ehis: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_merge_intervals` of an entry's sorted disjoint intervals
    plus a new batch, sorting only the batch: one ``searchsorted`` places
    the sorted batch among the entry's intervals, then one linear pass
    coalesces.
    """
    order = np.argsort(q_lo)
    q_lo, q_hi = q_lo[order], q_hi[order]
    at = np.searchsorted(elos, q_lo) + np.arange(q_lo.size)
    theirs = np.ones(elos.size + q_lo.size, dtype=bool)
    theirs[at] = False
    los = np.empty(theirs.size, dtype=np.uint64)
    his = np.empty(theirs.size, dtype=np.uint64)
    los[at], his[at] = q_lo, q_hi
    los[theirs], his[theirs] = elos, ehis
    return _coalesce_sorted(los, his)


@dataclass(frozen=True)
class BatchPlan:
    """The dedup pass's output.

    ``uniq_lo`` / ``uniq_hi`` are the distinct (lo, hi) pairs of the
    batch in lexicographic order; ``inverse`` scatters unique verdicts
    back to original positions.
    """

    uniq_lo: np.ndarray   # uint64 distinct lower bounds, lexsorted
    uniq_hi: np.ndarray   # uint64 distinct upper bounds
    inverse: np.ndarray   # int64, original position -> unique index
    n_queries: int

    @property
    def n_unique(self) -> int:
        """Distinct (lo, hi) pairs in the batch."""
        return int(self.uniq_lo.size)


def plan_batch(los: np.ndarray, his: np.ndarray) -> BatchPlan:
    """The dedup pass: fold exact duplicates of one validated batch.

    One ``lexsort``, no per-query python objects. Inputs must already
    be uint64 columns with ``lo <= hi`` (the caller runs
    :func:`~repro.engine.batch.validate_batch_bounds` first).
    """
    n = int(los.size)
    if n == 0:
        empty_u = np.zeros(0, dtype=np.uint64)
        return BatchPlan(empty_u, empty_u, np.zeros(0, dtype=np.int64), 0)
    order = np.lexsort((his, los))
    slo, shi = los[order], his[order]
    new = np.ones(n, dtype=bool)
    if n > 1:
        new[1:] = (slo[1:] != slo[:-1]) | (shi[1:] != shi[:-1])
    uidx = np.flatnonzero(new)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return BatchPlan(slo[uidx], shi[uidx], inverse, n)


class NegativeRangeCache:
    """Per-shard intervals proven empty at a pinned ``runs_version``.

    Each shard's entry is ``(version, los, his)`` — sorted disjoint
    inclusive intervals, every one proven empty while the shard's run
    set was at ``version``. Lookup is a single ``searchsorted``
    containment probe per column. The structure is deliberately
    version-monotone: recording at an older version than the stored
    entry is dropped (stale proof), recording at a newer version
    replaces the entry wholesale (the old proofs died with the old run
    set). ``capacity`` bounds per-shard interval count: a full entry
    takes no new proofs until its shard's run set changes.

    Thread safety: mutation is serialised by an internal mutex and
    entries are replaced atomically (tuples are never mutated in
    place), so lock-free readers see either the old or the new entry.
    Counters are best-effort under races, like
    :class:`~repro.lsm.store.IoStats`.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._capacity = int(capacity)
        self._mutex = threading.Lock()
        self._shards: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0

    def lookup(
        self, sid: int, version: int, q_lo: np.ndarray, q_hi: np.ndarray
    ) -> np.ndarray:
        """Containment mask: which queries a current-version interval covers.

        Callers must hold the shard steady (the service's read lock)
        and still apply the memtable-overlap check before trusting a
        hit — the cache knows nothing about unflushed writes.
        """
        out = np.zeros(int(q_lo.size), dtype=bool)
        entry = self._shards.get(sid)
        if entry is None or entry[0] != version:
            self.misses += int(q_lo.size)
            return out
        _, clos, chis = entry
        idx = np.searchsorted(clos, q_lo, side="right") - 1
        ok = idx >= 0
        out[ok] = chis[idx[ok]] >= q_hi[ok]
        n_hit = int(out.sum())
        self.hits += n_hit
        self.misses += int(q_lo.size) - n_hit
        return out

    def record(
        self, sid: int, version: int, q_lo: np.ndarray, q_hi: np.ndarray
    ) -> None:
        """Fold freshly proven-empty intervals into the shard's entry.

        ``version`` is the shard's ``runs_version`` read under the lock
        hold that proved the intervals empty. An entry already holding
        ``capacity`` intervals at that version takes nothing more; a
        merged entry longer than ``capacity`` keeps its first
        ``capacity`` intervals.
        """
        if q_lo.size == 0 or self._capacity <= 0:
            return
        with self._mutex:
            entry = self._shards.get(sid)
            if entry is not None and entry[0] > version:
                return  # proofs predate the stored run set: stale
            if entry is not None and entry[0] == version:
                if entry[1].size >= self._capacity:
                    return  # full until the run set changes
                mlos, mhis = _fold_into(entry[1], entry[2], q_lo, q_hi)
            else:
                if entry is not None:
                    self.invalidations += 1
                mlos, mhis = _merge_intervals(q_lo, q_hi)
            cap = self._capacity
            self._shards[sid] = (int(version), mlos[:cap], mhis[:cap])
            self.insertions += int(q_lo.size)

    def clear(self) -> None:
        """Forget everything; counters keep accumulating."""
        with self._mutex:
            self._shards.clear()

    @property
    def n_intervals(self) -> int:
        """Total intervals held across shards right now."""
        return sum(entry[1].size for entry in self._shards.values())

    @property
    def hit_rate(self) -> float:
        """Lifetime hits / lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BatchPlanner:
    """The discrete-pass batch optimizer in front of the executor.

    Attach one to a :class:`~repro.engine.engine.ShardedEngine` (via
    :meth:`~repro.engine.engine.ShardedEngine.attach_planner`); the
    engine's and service's ``batch_range_empty`` then run every batch
    through :meth:`execute` and, under each shard's lock hold, every
    shard's sub-batch through :meth:`shard_empty`. ``cache_capacity=0``
    disables the negative cache. One planner serves one engine — the
    cache is keyed by shard id and tagged by that engine's shards'
    ``runs_version``.
    """

    def __init__(self, *, cache_capacity: int = 4096) -> None:
        self._cache: Optional[NegativeRangeCache] = (
            NegativeRangeCache(cache_capacity) if cache_capacity > 0 else None
        )
        self._engine: Optional["ShardedEngine"] = None
        # Best-effort counters (IoStats-style) for stats_snapshot().
        self._batches = 0
        self._queries = 0
        self._duplicates_folded = 0
        self._executed_probes = 0
        self._mode_counts: Dict[str, int] = {"local": 0, "process": 0}

    # -- lifecycle ----------------------------------------------------

    def attach(self, engine: "ShardedEngine") -> None:
        """Bind to the engine whose shards version the negative cache."""
        if self._engine is not None and self._engine is not engine:
            # A different engine's runs_versions mean nothing here.
            if self._cache is not None:
                self._cache.clear()
        self._engine = engine

    def detach(self) -> None:
        """Unbind; drops all cached intervals."""
        self._engine = None
        if self._cache is not None:
            self._cache.clear()

    @property
    def cache(self) -> Optional[NegativeRangeCache]:
        """The negative cache, or ``None`` when disabled."""
        return self._cache

    # -- the planned execution path -----------------------------------

    def execute(
        self, los: np.ndarray, his: np.ndarray, executor: Executor
    ) -> np.ndarray:
        """Answer a validated batch: dedup, executor, scatter.

        ``executor`` answers the batch's distinct pairs exactly — the
        engine's columnar path or the service's locking fan-out, both of
        which run each shard's sub-batch through :meth:`shard_empty`.
        Returns the per-query verdict column, bit-identical to what the
        executor alone would return.
        """
        n = int(los.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        self._batches += 1
        self._queries += n
        plan = plan_batch(los, his)
        self._duplicates_folded += n - plan.n_unique
        out = np.asarray(executor(plan.uniq_lo, plan.uniq_hi), dtype=bool)
        return out[plan.inverse]

    def shard_empty(
        self,
        sid: int,
        store: "LSMStore",
        q_lo: np.ndarray,
        q_hi: np.ndarray,
        kernel: Executor,
    ) -> np.ndarray:
        """One shard's sub-batch through the negative cache.

        The caller holds the shard steady for the whole call (the
        service's read lock; the single-threaded engine trivially), so
        the ``runs_version`` read here is the one the kernel executes
        at. Cached intervals answer the queries they contain unless the
        live memtable has an entry in range; ``kernel`` answers the
        rest exactly, and its new empties are recorded at that version.
        Every ``[q_lo[j], q_hi[j]]`` must lie inside shard ``sid``.
        """
        cache = self._cache
        if cache is None:
            self._executed_probes += int(q_lo.size)
            return kernel(q_lo, q_hi)
        version = store.runs_version
        hit = cache.lookup(sid, version, q_lo, q_hi)
        if hit.any():
            pos = np.flatnonzero(hit)
            hit[pos[memtable_overlaps(store, q_lo[pos], q_hi[pos])]] = False
        todo = np.flatnonzero(~hit)
        out = np.ones(int(q_lo.size), dtype=bool)
        if todo.size:
            out[todo] = kernel(q_lo[todo], q_hi[todo])
            self._executed_probes += int(todo.size)
            proved = todo[out[todo]]
            cache.record(sid, version, q_lo[proved], q_hi[proved])
        return out

    # -- service integration ------------------------------------------

    def choose_mode(
        self,
        store,
        q_lo: np.ndarray,
        q_hi: np.ndarray,
        *,
        process_available: bool,
    ) -> str:
        """``"process"`` or ``"local"`` for one per-shard sub-batch.

        Process needs a worker pool, at least :data:`PROCESS_FLOOR`
        ranges (the dedup pass already folded duplicates) and a
        memtable overlap of at most :data:`OVERLAP_CEILING`; the overlap
        is only probed once the first two hold. Tallies the decision
        for :meth:`stats_snapshot`.
        """
        mode = "local"
        if (
            process_available
            and q_lo.size >= PROCESS_FLOOR
            and memtable_overlaps(store, q_lo, q_hi).mean() <= OVERLAP_CEILING
        ):
            mode = "process"
        self._mode_counts[mode] += 1
        return mode

    # -- observability ------------------------------------------------

    def stats_snapshot(self) -> Dict[str, object]:
        """Counters for ``stats_snapshot()`` / the ``[serve]`` line."""
        cache: Dict[str, object] = {"enabled": self._cache is not None}
        if self._cache is not None:
            cache.update(
                hits=self._cache.hits,
                misses=self._cache.misses,
                hit_rate=self._cache.hit_rate,
                intervals=self._cache.n_intervals,
                insertions=self._cache.insertions,
                invalidations=self._cache.invalidations,
            )
        return {
            "batches": self._batches,
            "queries": self._queries,
            "duplicates_folded": self._duplicates_folded,
            "executed_probes": self._executed_probes,
            "modes": dict(self._mode_counts),
            "negative_cache": cache,
        }
