"""A miniature LSM key-value store with pluggable range filters.

This is the application substrate the paper's introduction motivates:
key-value stores (RocksDB-style) keep many immutable sorted runs on disk
and consult an in-memory filter per run before reading it. The store
implements:

* a memtable flushed into level-0 runs at a size threshold;
* a pluggable compaction axis (:mod:`repro.lsm.compaction`): level 0
  plus a stack of deeper levels, maintained by a
  :class:`~repro.lsm.compaction.CompactionPolicy` in bounded *steps* —
  the default :class:`~repro.lsm.compaction.FullMergePolicy` reproduces
  the seed behaviour (one bottom run, tombstones dropped there), while
  tiered and leveled policies bound how much data a single step
  rewrites;
* point gets, range scans and emptiness probes that consult each run's
  range filter first, over a :class:`ReadView` rebuilt with the run
  set: a leveled level is read through its
  :class:`~repro.lsm.levels.LevelIndex`, which bisects to the slices a
  range touches instead of fence-checking every slice;
* an I/O ledger (:class:`IoStats`) separating necessary reads, reads
  saved by filters, and wasted reads caused by filter false positives —
  the quantity an adversary inflates when the filter is not robust
  (§1, §6.7) — plus flush/compaction write volumes, which make write
  amplification a first-class measured quantity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
    Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import InvalidParameterError, InvalidQueryError
from repro.lsm.compaction import (
    CompactionPolicy,
    CompactionStep,
    MergeUnit,
    resolve_policy,
)
from repro.lsm.levels import LevelIndex
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import (
    Columns,
    FilterFactory,
    SSTable,
    encode_values,
    merge_columns,
    split_columns,
)
from repro.lsm.ttl import is_live, unwrap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lsm.cache import BlockCache


@dataclass
class IoStats:
    """Ledger of simulated disk accesses.

    Under a concurrent service the counters are best-effort: readers on
    the same shard may race an increment and under-count. The ledger is
    diagnostic, never consulted for correctness.
    """

    reads_performed: int = 0
    reads_avoided: int = 0
    wasted_reads: int = 0  # filter said "maybe", run had nothing in range
    flushes: int = 0
    compactions: int = 0   # bounded compaction *steps* executed
    cache_hits: int = 0    # block reads served by the block cache
    cache_misses: int = 0  # block reads that went to the simulated disk
    entries_flushed: int = 0    # entries written by memtable flushes
    entries_compacted: int = 0  # entries (re)written by compaction steps
    bytes_compacted: int = 0    # simulated bytes those rewrites cost

    @property
    def total_filter_decisions(self) -> int:
        return self.reads_performed + self.reads_avoided

    @property
    def waste_ratio(self) -> float:
        """Fraction of performed reads that were useless (filter FPs)."""
        return self.wasted_reads / self.reads_performed if self.reads_performed else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of block fetches the cache absorbed."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def write_amplification(self) -> float:
        """Total entries written per user entry flushed.

        ``(entries_flushed + entries_compacted) / entries_flushed`` —
        the classic LSM write-amp ratio at simulation granularity. 0
        before the first flush. Leveled compaction exists to keep this
        number's compaction term proportional to the data actually
        touched instead of the whole store.
        """
        if not self.entries_flushed:
            return 0.0
        return (self.entries_flushed + self.entries_compacted) / self.entries_flushed

    def merge(self, other: "IoStats") -> "IoStats":
        """Component-wise sum with ``other``; returns a new ledger."""
        return IoStats(
            reads_performed=self.reads_performed + other.reads_performed,
            reads_avoided=self.reads_avoided + other.reads_avoided,
            wasted_reads=self.wasted_reads + other.wasted_reads,
            flushes=self.flushes + other.flushes,
            compactions=self.compactions + other.compactions,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            entries_flushed=self.entries_flushed + other.entries_flushed,
            entries_compacted=self.entries_compacted + other.entries_compacted,
            bytes_compacted=self.bytes_compacted + other.bytes_compacted,
        )

    @classmethod
    def aggregate(cls, ledgers: "Iterable[IoStats]") -> "IoStats":
        """Sum many ledgers (the per-shard view of a sharded engine)."""
        total = cls()
        for ledger in ledgers:
            total = total.merge(ledger)
        return total


class ReadView(NamedTuple):
    """The run set as reads walk it, rebuilt whenever the set changes.

    ``runs`` holds every run in recency order: level 0 newest first,
    then each deeper level. ``segments`` cuts ``runs`` into one
    ``(start, stop, index)`` span per level: level 0 and any level
    without a :class:`~repro.lsm.levels.LevelIndex` (``index`` is
    ``None``) are walked run by run, a fenced level through its index.
    """

    runs: Tuple[SSTable, ...]
    segments: Tuple[Tuple[int, int, Optional[LevelIndex]], ...]


def slice_outputs(
    merged: Columns, unit: MergeUnit, universe: int
) -> List[Tuple[Optional[Tuple[int, int]], Columns]]:
    """Cut a unit's merged columns into its output runs, as
    ``(slice_bounds, columns)`` pairs.

    Without a ``slice_target`` the unit yields one run owning
    ``unit.span``, or none when nothing survived. With one, the columns
    are cut into slices of ``slice_target`` entries whose owning bounds
    partition ``unit.span``: the boundary between two consecutive slices
    cuts at the later slice's first key, and the first and last slice
    inherit the span's edges, so the level's spans stay a gap-free tiling
    no matter how the data skews. A span whose entries were all
    tombstoned away still yields one empty placeholder slice holding it
    (slice spans tile the universe — the routing invariant); a later
    merge into the span consumes it for free.
    """
    n = int(merged.keys.size)
    target = unit.slice_target
    if n == 0 and target is None:
        return []
    if n == 0 or target is None:
        return [(unit.span, split_columns(merged, (0, n))[0])]
    cuts = list(range(0, n, target)) + [n]
    span_lo, span_hi = unit.span if unit.span is not None else (
        0, universe - 1
    )
    keys = merged.keys
    last = len(cuts) - 2
    return [
        (
            (
                span_lo if i == 0 else int(keys[cuts[i]]),
                span_hi if i == last else int(keys[cuts[i + 1]]) - 1,
            ),
            columns,
        )
        for i, columns in enumerate(split_columns(merged, cuts))
    ]


class LSMStore:
    """LSM key-value store over integer keys.

    Parameters
    ----------
    universe:
        Exclusive key-universe bound.
    memtable_limit:
        Flush the memtable into a level-0 run at this many entries.
    compaction_fanout:
        A level that accumulates this many runs is compaction pressure
        (level 0 for every policy; deeper levels too under tiered).
    filter_factory:
        Per-run range-filter builder ``(keys, universe) -> RangeFilter``;
        ``None`` disables filtering (every probe reads the run).
    auto_compact:
        When ``True`` (default) a flush or clock advance that leaves the
        store needing compaction compacts immediately (all steps,
        inline). ``False`` defers: the store only fires
        :attr:`compaction_hook`, and an external scheduler — e.g.
        :class:`repro.engine.scheduler.CompactionScheduler` — runs
        bounded :meth:`compact_step` calls at convenient points.
    compaction_policy:
        A :class:`~repro.lsm.compaction.CompactionPolicy` instance, a
        registered policy name (``"full"``/``"tiered"``/``"leveled"``),
        or ``None`` for the backward-compatible full-merge default.
    """

    def __init__(
        self,
        universe: int = 2**64,
        *,
        memtable_limit: int = 1024,
        compaction_fanout: int = 4,
        filter_factory: Optional[FilterFactory] = None,
        auto_compact: bool = True,
        compaction_policy: "str | CompactionPolicy | None" = None,
    ) -> None:
        if universe <= 0:
            raise InvalidParameterError("universe must be positive")
        if memtable_limit < 1:
            raise InvalidParameterError("memtable_limit must be >= 1")
        if compaction_fanout < 2:
            raise InvalidParameterError("compaction_fanout must be >= 2")
        self.universe = int(universe)
        self._memtable_limit = int(memtable_limit)
        self._fanout = int(compaction_fanout)
        self._factory = filter_factory
        self._auto_compact = bool(auto_compact)
        self._policy = resolve_policy(compaction_policy)
        self._memtable = MemTable()
        self._level0: List[SSTable] = []  # newest first
        self._levels: List[List[SSTable]] = []  # L1, L2, ... (older, deeper)
        self._ttl_now = 0  # logical TTL clock; monotone (see set_ttl_now)
        self._runs_version = 0
        self._compaction_requested = False
        self._stale_filter_uids: set[int] = set()
        self._cache: Optional["BlockCache"] = None
        self._view = ReadView((), ())
        #: Optional ``(q_lo, q_hi, empty) -> None`` hook the batch kernel
        #: calls after answering a sub-batch (see repro.engine.autotune).
        self.query_observer: Optional[Any] = None
        #: Optional ``(store) -> None`` hook, the one way compaction
        #: pressure leaves the store. It fires from every place pressure
        #: can rise: :meth:`flush` and :meth:`set_ttl_now` when they
        #: leave the store needing compaction under
        #: ``auto_compact=False``, and :meth:`request_compaction` /
        #: :meth:`request_filter_rebuild` always. An external scheduler
        #: plugs in here, so it never has to poll the store on writes
        #: (see repro.engine.scheduler).
        self.compaction_hook: Optional[Callable[["LSMStore"], None]] = None
        # Serialises mutations (put/delete/flush/compact) so a flush can
        # never tear the memtable swap out from under another writer.
        # Reader-vs-writer isolation is the *caller's* job — the service
        # layer wraps each shard in a reader/writer lock; the bare store
        # stays single-reader like the rest of the reproduction.
        self._write_lock = threading.RLock()
        self.stats = IoStats()

    @classmethod
    def from_runs(
        cls,
        universe: int,
        *,
        level0: Sequence[SSTable],
        levels: Optional[Sequence[Sequence[SSTable]]] = None,
        memtable_limit: int = 1024,
        compaction_fanout: int = 4,
        filter_factory: Optional[FilterFactory] = None,
        auto_compact: bool = True,
        compaction_policy: "str | CompactionPolicy | None" = None,
        ttl_now: int = 0,
    ) -> "LSMStore":
        """Rebuild a store around already-constructed runs.

        This is the recovery path of :mod:`repro.engine.persist`: runs
        (and their filters) come back from disk exactly as snapshotted,
        so queries after a reopen behave identically to before it.
        ``levels`` is the full deep-level topology (L1 first).
        ``ttl_now`` restores the logical TTL clock the manifest
        recorded, so expired entries stay invisible across a reopen.
        """
        store = cls(
            universe,
            memtable_limit=memtable_limit,
            compaction_fanout=compaction_fanout,
            filter_factory=filter_factory,
            auto_compact=auto_compact,
            compaction_policy=compaction_policy,
        )
        store._ttl_now = int(ttl_now)
        store._level0 = list(level0)
        if levels is not None:
            store._levels = [list(level) for level in levels if level]
        store._reindex()
        return store

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.universe:
            raise InvalidQueryError(f"key {key} outside universe [0, {self.universe})")

    def put(self, key: int, value: Any) -> None:
        """Insert or overwrite a key."""
        self._check_key(key)
        if value is TOMBSTONE:
            raise InvalidParameterError("use delete() instead of writing the tombstone")
        with self._write_lock:
            self._memtable.put(key, value)
            self._maybe_flush()

    def delete(self, key: int) -> None:
        """Delete a key (tombstone until compaction)."""
        self._check_key(key)
        with self._write_lock:
            self._memtable.delete(key)
            self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self._memtable) >= self._memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Force the memtable into a new level-0 run.

        The whole transition — drain the memtable, install the run —
        happens under the write lock, so a concurrent writer can never
        slip an entry into the memtable between the snapshot and the
        clear (the lost-write window the unguarded version had). A flush
        is where structural pressure rises: one that leaves the store
        needing compaction either compacts inline (``auto_compact=True``)
        or fires :attr:`compaction_hook`, so a deferred store surfaces
        the pending work without anyone polling it.
        """
        with self._write_lock:
            keys = self._memtable.keys_array()
            if not keys.size:
                return
            values = encode_values(self._memtable.values_sorted())
            run = self._new_run(Columns(keys, *values), None)
            self._level0.insert(0, run)  # newest first
            self._memtable = MemTable()
            self._reindex()
            self._runs_version += 1
            self.stats.flushes += 1
            self.stats.entries_flushed += len(run)
            self._settle_or_announce()

    def _settle_or_announce(self) -> None:
        """Compact inline or fire :attr:`compaction_hook`, if pressure
        is due; the caller holds the write lock."""
        if not self.needs_compaction:
            return
        if self._auto_compact:
            self.compact()
        elif self.compaction_hook is not None:
            self.compaction_hook(self)

    # ------------------------------------------------------------------
    # TTL clock
    # ------------------------------------------------------------------
    @property
    def ttl_now(self) -> int:
        """The logical TTL clock expiry is judged against (starts at 0)."""
        return self._ttl_now

    def _is_live(self, value: Any) -> bool:
        """Visible at the current clock: not a tombstone, not expired."""
        return value is not TOMBSTONE and is_live(value, self._ttl_now)

    def set_ttl_now(self, now: int) -> None:
        """Advance the logical TTL clock (monotone; going back raises).

        Advancing the clock can only turn entries invisible, never
        visible — which is what makes cached "empty" verdicts (the batch
        planner's negative cache) stay correct across an advance.
        ``runs_version`` is still bumped: process-mode snapshot workers
        and planner entries tagged with the old clock must re-verify, as
        their run-set view predates the new visibility cut. An advance
        that leaves aged-out work behind (a bottom run now fully
        expired) triggers compaction exactly like a flush would.
        """
        now = int(now)
        if now < self._ttl_now:
            raise InvalidParameterError(
                f"TTL clock may not go backwards ({self._ttl_now} -> {now})"
            )
        if now == self._ttl_now:
            return
        with self._write_lock:
            self._ttl_now = now
            self._runs_version += 1
            self._settle_or_announce()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _expire_candidates(self) -> List[SSTable]:
        """Bottom-level runs that can be aged out whole at the current
        clock.

        Only the deepest level qualifies: an expired run there shadows
        nothing (there is nothing older below), so removing it cannot
        resurrect an overwritten value. Within that level, a sliced
        (leveled) topology is key-disjoint — every fully-expired slice
        is fair game — while an age-ordered (tiered/full) level may only
        shed its *oldest* run per step, since a newer expired run still
        shadows older entries of the same keys. Mixed levels (an adopted
        pre-slicing run among slices) are skipped conservatively; reads
        are exact regardless, aging out is only an optimisation.
        """
        if not self._levels:
            return []
        bottom = self._levels[-1]
        if not bottom:
            return []
        if all(run.slice_bounds is not None for run in bottom):
            return [run for run in bottom if run.fully_expired(self._ttl_now)]
        if any(run.slice_bounds is not None for run in bottom):
            return []
        oldest = bottom[-1]
        return [oldest] if oldest.fully_expired(self._ttl_now) else []

    def _plan_expire_step(self) -> Optional[CompactionStep]:
        """A metadata-only step aging out fully-expired bottom runs."""
        candidates = self._expire_candidates()
        if not candidates:
            return None
        units = tuple(
            MergeUnit((run,), span=run.slice_bounds) for run in candidates
        )
        return CompactionStep(
            kind="expire",
            units=units,
            output_level=len(self._levels),
            drop_tombstones=True,
            reason=f"aged out {len(units)} fully-expired bottom run(s) "
                   f"at t={self._ttl_now}",
        )

    def _plan_step(self) -> Optional[CompactionStep]:
        """Ask the policy for the next step; prune dangling stale uids.

        Fully-expired bottom runs are aged out before the policy is
        consulted — the expire step is policy-independent (it follows
        from the recency invariant alone) and consuming it first keeps
        the :meth:`compact` loop converging.
        """
        if self._stale_filter_uids:
            live = {run.uid for run in self._runs()}
            self._stale_filter_uids &= live
        expire = self._plan_expire_step()
        if expire is not None:
            return expire
        return self._policy.plan(
            self._level0,
            self._levels,
            fanout=self._fanout,
            universe=self.universe,
            requested=self._compaction_requested,
            stale_uids=self._stale_filter_uids,
        )

    def compact(self) -> None:
        """Run compaction steps until the policy reports the store settled.

        Under the default :class:`~repro.lsm.compaction.FullMergePolicy`
        this is exactly the seed behaviour — one step merges every run
        into a single tombstone-free bottom run, (re)built with the
        *current* filter factory, so a factory swapped in by
        :meth:`set_filter_factory` takes over every key of the store
        here, not just future flushes. Under tiered/leveled policies the
        loop may run several bounded steps back to back; callers that
        must not hold the store that long use :meth:`compact_step`.
        """
        with self._write_lock:
            while True:
                step = self._plan_step()
                if step is None:
                    self._compaction_requested = False
                    return
                self._apply_step(step)

    def compact_step(self) -> bool:
        """Execute exactly one bounded compaction step, if one is due.

        Returns ``True`` when a step ran. This is the unit the deferred
        scheduler and the serving layer's background worker drain — a
        shard write lock is held for one step's rewrite, never for a
        whole-store merge.
        """
        with self._write_lock:
            step = self._plan_step()
            if step is None:
                self._compaction_requested = False
                return False
            self._apply_step(step)
            return True

    def _apply_expire(self, step: CompactionStep) -> None:
        """Age out fully-expired bottom runs; caller holds the write lock.

        Metadata-only: no entry is read or rewritten. A sliced run is
        replaced by an empty placeholder slice holding its owning span
        (slice spans must keep tiling the universe — the same invariant
        :func:`slice_outputs` preserves for fully-tombstoned spans); a
        non-sliced run is simply removed.
        """
        replacements: dict[int, List[SSTable]] = {}
        for unit in step.units:
            run = unit.inputs[0]
            if run.slice_bounds is not None:
                replacements[run.uid] = [
                    SSTable([], self.universe, None,
                            slice_bounds=run.slice_bounds)
                ]
            else:
                replacements[run.uid] = []
        bottom = self._levels[-1]
        self._levels[-1] = [
            out
            for run in bottom
            for out in replacements.get(run.uid, [run])
        ]
        while self._levels and not self._levels[-1]:
            self._levels.pop()
        self._stale_filter_uids -= set(replacements)
        self._reindex()
        self._runs_version += 1
        self.stats.compactions += 1

    def _apply_step(self, step: CompactionStep) -> None:
        """Execute one planned step; caller holds the write lock."""
        if step.kind == "expire":
            self._apply_expire(step)
            return
        consumed: set[int] = set()
        outputs_by_unit: List[Tuple[MergeUnit, List[SSTable]]] = []
        written_entries = 0
        written_bytes = 0
        for unit in step.units:
            consumed.update(run.uid for run in unit.inputs)
            if step.kind == "rebuild":
                source = unit.inputs[0]
                copied = merge_columns([source], drop_tombstones=False)
                (columns,) = split_columns(copied, (0, len(source)))
                outputs = [self._new_run(columns, source.slice_bounds)]
            else:
                merged = merge_columns(
                    unit.inputs,
                    drop_tombstones=step.drop_tombstones,
                    span=unit.span,
                    expire_before=self._ttl_now if self._ttl_now else None,
                )
                outputs = [
                    self._new_run(columns, bounds)
                    for bounds, columns in slice_outputs(
                        merged, unit, self.universe
                    )
                ]
            for out in outputs:
                written_entries += len(out)
                written_bytes += out.nbytes
            outputs_by_unit.append((unit, outputs))
        if step.kind == "rebuild":
            self._replace_in_place(outputs_by_unit)
        else:
            self._install_merge(step, consumed, outputs_by_unit)
        self._stale_filter_uids -= consumed
        if step.clears_request:
            self._compaction_requested = False
        self._reindex()
        self._runs_version += 1
        self.stats.compactions += 1
        self.stats.entries_compacted += written_entries
        self.stats.bytes_compacted += written_bytes

    def _new_run(
        self, columns: Columns, slice_bounds: Optional[Tuple[int, int]]
    ) -> SSTable:
        """A run adopting flushed or merged ``columns``, with a filter
        from the current factory unless it is empty (a placeholder slice)."""
        filt = (
            self._factory(columns.keys, self.universe)
            if self._factory is not None and columns.keys.size
            else None
        )
        return SSTable.from_columns(
            *columns, self.universe, filt, slice_bounds=slice_bounds
        )

    def _replace_in_place(self, outputs_by_unit) -> None:
        """Swap rebuilt runs into the positions their sources held."""
        for unit, outputs in outputs_by_unit:
            source = unit.inputs[0]
            replacement = outputs[0]
            for level in [self._level0] + self._levels:
                for i, run in enumerate(level):
                    if run.uid == source.uid:
                        level[i] = replacement
                        break

    def _install_merge(self, step, consumed: set, outputs_by_unit) -> None:
        """Remove a merge step's inputs and splice in its outputs."""
        self._level0 = [r for r in self._level0 if r.uid not in consumed]
        for li in range(len(self._levels)):
            if li < step.output_level - 1:
                # A sliced input consumed from a level *above* the output
                # (a budget push-down victim) leaves an empty placeholder
                # behind so the level's owning spans keep tiling the
                # universe — same pattern as TTL expiry.
                self._levels[li] = self._coalesce_empty_slices([
                    r if r.uid not in consumed else
                    SSTable([], self.universe, None,
                            slice_bounds=r.slice_bounds)
                    for r in self._levels[li]
                    if r.uid not in consumed or r.slice_bounds is not None
                ])
            else:
                self._levels[li] = [
                    r for r in self._levels[li] if r.uid not in consumed
                ]
        while len(self._levels) < step.output_level:
            self._levels.append([])
        target = self._levels[step.output_level - 1]
        sliced = any(
            out.slice_bounds is not None
            for _, outputs in outputs_by_unit
            for out in outputs
        )
        for _, outputs in outputs_by_unit:
            if sliced:
                target.extend(outputs)
            else:
                # Age-ordered level (tiered): the merged run is newer
                # than everything already below, so it goes in front.
                target[:0] = outputs
        if sliced:
            target.sort(key=lambda run: (
                run.slice_bounds[0] if run.slice_bounds else 0
            ))
        # Drop empty trailing levels so topology introspection stays tidy.
        while self._levels and not self._levels[-1]:
            self._levels.pop()

    def _coalesce_empty_slices(self, level: List[SSTable]) -> List[SSTable]:
        """Fuse runs of span-adjacent empty placeholder slices into one.

        Repeated budget push-downs evacuate a level slice by slice, each
        leaving an empty placeholder so the spans keep tiling. Without
        coalescing those placeholders accumulate without bound and every
        probe pays a per-run check for each; fusing contiguous empties
        keeps the level's run count proportional to its *live* data.
        ``level`` must be span-sorted (sliced levels always are).
        """
        out: List[SSTable] = []
        for run in level:
            prev = out[-1] if out else None
            if (
                prev is not None
                and len(run) == 0 and len(prev) == 0
                and run.slice_bounds is not None
                and prev.slice_bounds is not None
                and prev.slice_bounds[1] + 1 == run.slice_bounds[0]
            ):
                out[-1] = SSTable(
                    [], self.universe, None,
                    slice_bounds=(prev.slice_bounds[0], run.slice_bounds[1]),
                )
            else:
                out.append(run)
        return out

    def set_filter_factory(self, factory: Optional[FilterFactory]) -> None:
        """Swap the per-run filter builder for *future* runs.

        Existing runs keep the filters they were built with (they are
        immutable); the next flush or compaction uses ``factory``. This
        is the mechanism :mod:`repro.engine.autotune` uses to retarget a
        shard — typically paired with :meth:`request_filter_rebuild` so
        existing runs converge to the new backend step by step. Never
        changes any query result: filters only prune.

        Deliberately lock-free: a single attribute store is atomic under
        the GIL, and taking the write lock here would stall the caller
        (the auto-tuner, holding its own lock with query observers
        queued behind it) for the full duration of any in-flight
        compaction. A swap landing mid-compaction simply means that
        compaction finishes under the old factory — the paired rebuild
        request queues the work that converges it.
        """
        self._factory = factory

    @property
    def filter_factory(self) -> Optional[FilterFactory]:
        """The per-run filter builder currently in effect."""
        return self._factory

    def request_compaction(self) -> None:
        """Force :attr:`needs_compaction` on even below the fanout.

        The converge-everything escape hatch: the policy satisfies it
        with whatever "settle the store" means under its topology (a
        full merge for the default and tiered policies, an L0 push-down
        for leveled). A no-op once the compaction machinery drains the
        store. Fires :attr:`compaction_hook` at once, so a scheduler
        queues the store without waiting for a flush; it never compacts
        inline, even under ``auto_compact=True``. Lock-free like
        :meth:`set_filter_factory` (same stall concern); the unlocked
        emptiness peek can at worst set the flag for a store that just
        compacted to nothing, which the next :meth:`compact` clears for
        free.
        """
        if self._level0 or self._levels:
            self._compaction_requested = True
            if self.compaction_hook is not None:
                self.compaction_hook(self)

    def request_filter_rebuild(self) -> None:
        """Tag every current run's filter as stale.

        The compaction machinery then rewrites the tagged runs under the
        *current* filter factory — as one full merge under the default
        policy (the seed behaviour a backend switch used to trigger), or
        as bounded per-run/per-slice rebuild steps under tiered/leveled,
        so a backend switch on a big sliced shard costs one slice per
        step instead of a monolithic whole-shard merge. Runs rewritten
        by ordinary merges shed their stale tag for free. Like
        :meth:`request_compaction` it fires :attr:`compaction_hook` at
        once and never compacts inline. Lock-free for the same reason as
        :meth:`set_filter_factory`; a run installed by an in-flight
        compaction racing this call may miss its tag (and keep a
        previous backend's filter), which is self-healing — filters only
        prune, and the auto-tuner's next decision on a still-misbehaving
        shard tags the survivors again.
        """
        uids = {run.uid for run in self._runs()}
        if uids:
            self._stale_filter_uids |= uids
            if self.compaction_hook is not None:
                self.compaction_hook(self)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def attach_cache(self, cache: Optional["BlockCache"]) -> None:
        """Route run reads through ``cache`` (``None`` detaches).

        With a cache attached, a run read touches each block of its
        range in the cache, and only the misses charge the run's
        ``io_reads``; hit/miss counts fold into :attr:`stats`. Entries
        always come from the run's columns, so attaching or detaching
        never changes any query result.
        """
        self._cache = cache

    @property
    def cache(self) -> Optional["BlockCache"]:
        return self._cache

    def _run_scan(self, run: SSTable, lo: int, hi: int) -> List[Tuple[int, Any]]:
        """``run.scan`` through the block cache when one is attached."""
        if self._cache is None:
            return run.scan(lo, hi)
        matches, hits, misses = self._cache.scan(run, lo, hi)
        self.stats.cache_hits += hits
        self.stats.cache_misses += misses
        return matches

    def _runs(self) -> List[SSTable]:
        """All runs, in recency order: level 0 newest first, then each
        deeper level (slices within a leveled level are key-disjoint, so
        their relative order carries no recency meaning)."""
        return list(self._view.runs)

    def _reindex(self) -> None:
        """Rebuild :attr:`_view` after the run set changed; the caller
        holds the write lock (or owns the store outright).

        The previous view goes at once, so no reader-side structure
        keeps a consumed run alive past the step that replaced it.
        """
        runs = list(self._level0)
        segments = [(0, len(runs), None)]
        for level in self._levels:
            index = LevelIndex.build(level)
            segments.append((len(runs), len(runs) + len(level), index))
            runs.extend(level)
        self._view = ReadView(tuple(runs), tuple(segments))

    def _prune(self, run: SSTable, lo: int, hi: int) -> bool:
        """Can ``run`` be skipped for ``[lo, hi]`` without reading it?

        Two exact-or-conservative gates: the run's key bounds (a fence
        check) and then its range filter. Both count as an avoided read
        when they prune.
        """
        if not run.overlaps(lo, hi):
            return True
        return not run.may_contain_range(lo, hi)

    def _must_read(
        self,
        lo: int,
        hi: int,
        first: int = 0,
        verdicts: Optional[Sequence[bool]] = None,
    ) -> Iterator[Tuple[int, SSTable]]:
        """The runs ``[lo, hi]`` must read, newest first, from position
        ``first`` of the read view on, as ``(position, run)`` pairs.

        Every run it skips is credited to ``reads_avoided`` at the point
        a run-by-run walk would credit it. A fenced level bisects to the
        slices the range touches and credits the others in bulk: those
        before the touched ones at once, those after once the touched
        ones are read — so a caller that stops early (a live key found)
        leaves the later ones uncredited, as the run-by-run walk does.
        ``verdicts[p]``, when given, is a batch filter pass's answer for
        run ``p`` (``True`` = must read it) and stands in for the fence
        and filter check, so the batch lanes never probe a filter twice.
        """
        stats = self.stats
        runs = self._view.runs
        for start, stop, index in self._view.segments:
            if stop <= first:
                continue
            begin = max(start, first)
            end = stop
            if index is not None:
                a, b = index.touched(lo, hi)
                begin, end = max(start + a, begin), max(start + b, begin)
                stats.reads_avoided += begin - max(start, first)
            for p in range(begin, end):
                run = runs[p]
                if verdicts is not None:
                    must = verdicts[p]
                else:
                    must = not self._prune(run, lo, hi)
                if must:
                    yield p, run
                else:
                    stats.reads_avoided += 1
            stats.reads_avoided += stop - end

    def get(self, key: int) -> Optional[Any]:
        """Point lookup through memtable then runs (newest wins)."""
        self._check_key(key)
        found, value = self._memtable.get(key)
        if found:
            return unwrap(value) if self._is_live(value) else None
        for _, run in self._must_read(key, key):
            self.stats.reads_performed += 1
            if self._cache is None:
                found, value = run.get(key)
            else:
                matches = self._run_scan(run, key, key)
                found = bool(matches)
                value = matches[0][1] if matches else None
            if found:
                return unwrap(value) if self._is_live(value) else None
            self.stats.wasted_reads += 1
        return None

    def range_scan(self, lo: int, hi: int) -> List[Tuple[int, Any]]:
        """All live ``(key, value)`` pairs in ``[lo, hi]``, in key order."""
        if lo > hi:
            raise InvalidQueryError(f"scan range has lo={lo} > hi={hi}")
        self._check_key(lo)
        self._check_key(hi)
        merged: dict[int, Any] = {}
        for key, value in self._memtable.scan(lo, hi):
            merged.setdefault(key, value)
        # Recency order: setdefault keeps the newest version.
        for _, run in self._must_read(lo, hi):
            self.stats.reads_performed += 1
            matches = self._run_scan(run, lo, hi)
            if not matches:
                self.stats.wasted_reads += 1
            for key, value in matches:
                merged.setdefault(key, value)
        return [
            (k, unwrap(v)) for k, v in sorted(merged.items())
            if self._is_live(v)
        ]

    def range_empty(self, lo: int, hi: int) -> bool:
        """Approximate-then-exact emptiness probe for ``[lo, hi]``.

        Unlike :meth:`range_scan` this never materialises the merged
        result: it walks sources newest first and returns ``False`` at
        the first key whose newest version is live. Only tombstoned keys
        (which shadow older versions) need remembering.
        """
        if lo > hi:
            raise InvalidQueryError(f"probe range has lo={lo} > hi={hi}")
        self._check_key(lo)
        self._check_key(hi)
        shadowed = self._memtable_shadowed(lo, hi)
        return shadowed is not None and self._walk_runs(lo, hi, shadowed)

    def _memtable_shadowed(self, lo: int, hi: int) -> Optional[set]:
        """The memtable's part of :meth:`range_empty`: ``None`` when it
        holds a live key in ``[lo, hi]``, else the keys in range it
        tombstoned or saw expire (they shadow older versions)."""
        shadowed: set[int] = set()
        for key, value in self._memtable.scan(lo, hi):
            if self._is_live(value):
                return None  # newest version of this key, and it is live
            shadowed.add(key)
        return shadowed

    def _walk_runs(
        self,
        lo: int,
        hi: int,
        shadowed: set,
        first: int = 0,
        verdicts: Optional[Sequence[bool]] = None,
        log: Optional[Callable[[int, SSTable, int, int], None]] = None,
    ) -> bool:
        """The run walk of :meth:`range_empty` over the read view from
        position ``first`` on, ``False`` at the first key whose newest
        version is live.

        ``shadowed`` holds the keys a newer source already decided dead;
        the walk adds to it. ``verdicts`` is passed to
        :meth:`_must_read`. With ``log`` given, each run is read from its
        columns without touching the cache or charging I/O, and
        ``log(position, run, lo, hi)`` records the read for a later
        replay through the cache (:class:`~repro.lsm.cache.BlockTouchLog`),
        which moves the cache counters. The rest of the ledger moves
        exactly as without.
        """
        stats = self.stats
        for p, run in self._must_read(lo, hi, first, verdicts):
            stats.reads_performed += 1
            if log is None:
                matches = self._run_scan(run, lo, hi)
            else:
                matches = run.scan(lo, hi, charge=False)
                log(p, run, lo, hi)
            if not matches:
                stats.wasted_reads += 1
                continue
            if not shadowed:
                # Nothing can shadow these entries, so the probe only
                # needs "is anything live?" — a vectorised mask over the
                # matched blocks, no value ever decoded.
                if matches.any_live(self._ttl_now):
                    return False
                shadowed.update(matches.keys_ints())
                continue
            for key, live in matches.items_with_liveness(self._ttl_now):
                if key in shadowed:
                    continue
                if live:
                    return False
                shadowed.add(key)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def run_count(self) -> int:
        return len(self._view.runs)

    @property
    def compaction_policy(self) -> CompactionPolicy:
        """The policy steering this store's compaction."""
        return self._policy

    @property
    def needs_compaction(self) -> bool:
        """True when the policy sees structural pressure, a rebuild
        was explicitly requested via :meth:`request_compaction` /
        :meth:`request_filter_rebuild`, or the TTL clock has left a
        fully-expired bottom run ready to age out."""
        return (
            self._compaction_requested
            or bool(self._stale_filter_uids)
            or self._policy.needs_work(self._level0, self._levels, self._fanout)
            or bool(self._expire_candidates())
        )

    @property
    def runs_version(self) -> int:
        """Monotone counter bumped whenever the run set changes.

        Flushes and compaction steps increment it; memtable writes do
        not. The process-mode serving layer compares it against the
        version recorded at the last checkpoint to decide whether a
        read-only snapshot worker still sees this store's exact level
        topology.
        """
        return self._runs_version

    @property
    def memtable_size(self) -> int:
        """Number of entries currently buffered in the memtable."""
        return len(self._memtable)

    @property
    def level0_runs(self) -> Tuple[SSTable, ...]:
        """The level-0 runs, newest first (read-only view for snapshots)."""
        return tuple(self._level0)

    @property
    def levels(self) -> Tuple[Tuple[SSTable, ...], ...]:
        """The deep levels (L1 first), as read-only views."""
        return tuple(tuple(level) for level in self._levels)

    @property
    def bottom_run(self) -> Optional[SSTable]:
        """The single bottom run, when the topology has one.

        Exact under the default full-merge policy (the seed's
        ``bottom``); ``None`` whenever the deep topology holds anything
        other than exactly one run — sliced or tiered stores have no
        single bottom to name.
        """
        if len(self._levels) == 1 and len(self._levels[0]) == 1:
            return self._levels[0][0]
        return None

    def level_stats(self) -> List[Dict[str, int]]:
        """Per-level topology snapshot: for L0 and each deep level, the
        run/slice count, total entries, and (when the policy budgets
        levels) the level's entry budget.

        Pure introspection — reads the level lists without touching any
        run's data, so it is cheap enough for a stats endpoint to call
        on every snapshot.
        """
        stats: List[Dict[str, int]] = [{
            "level": 0,
            "runs": len(self._level0),
            "entries": sum(len(r) for r in self._level0),
        }]
        budget_of = getattr(self._policy, "level_budget", None)
        for li, level in enumerate(self._levels, start=1):
            row = {
                "level": li,
                "runs": len(level),
                "entries": sum(len(r) for r in level),
                "slices": sum(
                    1 for r in level if r.slice_bounds is not None
                ),
            }
            budget = budget_of(li) if budget_of is not None else None
            if budget is not None:
                row["budget"] = int(budget)
            stats.append(row)
        return stats

    @property
    def stale_filter_uids(self) -> frozenset:
        """Uids of runs tagged for a filter rebuild (diagnostic view)."""
        return frozenset(self._stale_filter_uids)

    @property
    def filter_bits_total(self) -> int:
        """Memory spent on filters across all runs."""
        return sum(run.filter_bits for run in self._view.runs)

    def __len__(self) -> int:
        """Number of live keys (merges every run; for tests/demos).

        The runs' columns go through :func:`merge_columns` — newest
        first, tombstones and entries expired at the clock dropped — and
        a memtable entry overrides every run entry of its key.
        """
        merged = merge_columns(
            self._runs(), drop_tombstones=True, expire_before=self._ttl_now
        )
        run_keys = merged.keys
        memtable = self._memtable
        if len(memtable):
            run_keys = run_keys[
                ~np.isin(run_keys, memtable.keys_array(), assume_unique=True)
            ]
        live = sum(map(self._is_live, memtable.values_sorted()))
        return live + int(run_keys.size)
