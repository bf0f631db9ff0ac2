"""Pluggable compaction policies for the LSM store.

The seed store knew exactly one maintenance move: fold *every* run into a
single bottom run. That keeps queries cheap but makes write amplification
proportional to the whole store — every compaction rewrites all data, and
a filter-backend switch (:mod:`repro.engine.autotune`) rebuilds every
filter in one monolithic merge. This module turns the compaction axis
into a policy object the store consults, with three implementations:

* :class:`FullMergePolicy` — the seed behaviour, kept as the default for
  exact backward compatibility: one step merges all runs into a single
  bottom run, dropping tombstones.
* :class:`TieredPolicy` — size-tiered: when a level accumulates
  ``fanout`` similar-aged runs they merge into one run pushed down a
  level. Each step rewrites only one level's runs, so write
  amplification per flushed entry is ``O(levels)`` instead of
  ``O(store / memtable)``.
* :class:`LeveledPolicy` — L1 holds non-overlapping key-range *slices*
  whose owning spans partition the universe. A level-0 merge rewrites
  only the slices its keys actually land in, and rebuilds only those
  slices' filters — rewrite cost proportional to the data touched, not
  the shard. Oversized output re-splits into fresh ``slice_target``-
  sized slices during the same rewrite, so no separate split pass ever
  runs.

A policy never *executes* anything: it plans. :meth:`CompactionPolicy.plan`
inspects the level topology plus the store's pending-work flags and
returns one bounded :class:`CompactionStep` (or ``None``). The store
executes the step under its write lock
(:meth:`repro.lsm.store.LSMStore.compact_step`), the scheduler and the
serving layer's background worker drain *steps* — so a shard write lock
is never held for a whole-store rebuild.

Recency invariant every policy maintains (and relies on): level 0 is
newest-first; for each ``k``, everything in level ``k`` is newer than
everything in level ``k + 1``; within a tiered level runs are
newest-first; within a leveled level slices are key-disjoint so their
order carries no recency meaning. Tombstones are dropped only when a
step's output lands with nothing older below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.lsm.sstable import SSTable


@dataclass(frozen=True)
class MergeUnit:
    """One k-way merge inside a step.

    ``inputs`` are ordered newest first (the merge's tie-break).
    ``span`` is the owning key range of the outputs — inputs are
    restricted to it, and slice bounds of re-sliced outputs partition
    it; ``None`` means unrestricted. ``slice_target`` asks the executor
    to chunk the merged entries into runs of roughly that many entries
    (``None`` = a single output run).
    """

    inputs: Tuple[SSTable, ...]
    span: Optional[Tuple[int, int]] = None
    slice_target: Optional[int] = None


@dataclass(frozen=True)
class CompactionStep:
    """One bounded unit of compaction work, planned by a policy.

    ``kind`` is ``"merge"`` (inputs disappear, outputs land in
    ``output_level``) or ``"rebuild"`` (a single run is rewritten in
    place — same entries, same position, fresh filter from the store's
    *current* factory). ``output_level`` is 1-based into the store's
    deep levels; rebuilds ignore it and keep the run's position.
    ``clears_request`` marks the step that satisfies an explicit
    :meth:`~repro.lsm.store.LSMStore.request_compaction`.
    """

    kind: str
    units: Tuple[MergeUnit, ...]
    output_level: int
    drop_tombstones: bool
    clears_request: bool = False
    reason: str = ""


class CompactionPolicy:
    """Strategy interface: decide *what* to compact, one step at a time.

    Policies are stateless with respect to any particular store (all
    state lives in the arguments), so one instance may be shared across
    every shard of an engine. ``level0`` is newest-first; ``levels`` is
    the list of deeper levels, L1 first.
    """

    #: Registry key, recorded in engine manifests.
    name: str = "?"

    def needs_work(
        self, level0: Sequence[SSTable], levels: Sequence[Sequence[SSTable]],
        fanout: int,
    ) -> bool:
        """Structural pressure alone (ignores explicit requests)."""
        raise NotImplementedError  # pragma: no cover - interface

    def plan(
        self,
        level0: Sequence[SSTable],
        levels: Sequence[Sequence[SSTable]],
        *,
        fanout: int,
        universe: int,
        requested: bool,
        stale_uids: Set[int],
    ) -> Optional[CompactionStep]:
        """The next bounded step, or ``None`` when the store is settled."""
        raise NotImplementedError  # pragma: no cover - interface

    def to_params(self) -> Dict[str, object]:
        """JSON-safe construction parameters (for the engine manifest)."""
        return {"name": self.name}

    def _full_converge_step(
        self,
        level0: Sequence[SSTable],
        levels: Sequence[Sequence[SSTable]],
        reason: str,
    ) -> Optional[CompactionStep]:
        """One step folding every run into a single tombstone-free L1 run
        — the converge-everything move :class:`FullMergePolicy` always
        makes and the others fall back to on an explicit request."""
        inputs = list(level0)
        for level in levels:
            inputs.extend(level)
        if not inputs:
            return None
        return CompactionStep(
            kind="merge",
            units=(MergeUnit(tuple(inputs)),),
            output_level=1,
            drop_tombstones=True,
            clears_request=True,
            reason=reason,
        )

    def _rebuild_step(
        self,
        level0: Sequence[SSTable],
        levels: Sequence[Sequence[SSTable]],
        stale_uids: Set[int],
    ) -> Optional[CompactionStep]:
        """A rebuild step for the first still-live stale run, if any.

        Rebuilds go one run at a time on purpose: each step rewrites
        exactly one run's entries (and that run's filter), so the write
        lock the executor holds is bounded by a single run — the partial
        filter rebuild the auto-tuner's backend switches ride on.
        """
        if not stale_uids:
            return None
        for li, level in enumerate([list(level0)] + [list(l) for l in levels]):
            for run in level:
                if run.uid in stale_uids:
                    return CompactionStep(
                        kind="rebuild",
                        units=(MergeUnit((run,), span=run.slice_bounds),),
                        output_level=li,
                        drop_tombstones=False,
                        reason=f"filter rebuild of run {run.uid} (L{li})",
                    )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_params()})"


class FullMergePolicy(CompactionPolicy):
    """The seed behaviour: merge everything into a single bottom run.

    One step folds all runs (level 0 plus every deeper level) into one
    tombstone-free run at L1. A pending filter-rebuild request is
    satisfied by the same full merge — exactly what the seed store's
    ``compact()`` did — so engines built without naming a policy behave
    bit-for-bit as before this subsystem existed.
    """

    name = "full"

    def needs_work(self, level0, levels, fanout) -> bool:
        return len(level0) >= fanout

    def plan(self, level0, levels, *, fanout, universe, requested, stale_uids):
        if not (requested or stale_uids or self.needs_work(level0, levels, fanout)):
            return None
        return self._full_converge_step(level0, levels, "full merge")


class TieredPolicy(CompactionPolicy):
    """Size-tiered: merge a level's similar-sized runs one level down.

    Flushes stack up in level 0; when any level holds ``fanout`` runs,
    one step merges *that level only* into a single run prepended
    (newest-first) to the level below. Tombstones drop only when the
    output becomes the oldest data in the store. Merges can cascade —
    the step that fills level ``k + 1`` makes the next
    :meth:`plan` call target it — but each step stays bounded by one
    level's data.

    An explicit :meth:`~repro.lsm.store.LSMStore.request_compaction`
    (the converge-everything escape hatch, e.g. after a filter-factory
    swap on the seed path) collapses the whole store into one bottom
    run, exactly like :class:`FullMergePolicy`.
    """

    name = "tiered"

    def needs_work(self, level0, levels, fanout) -> bool:
        if len(level0) >= fanout:
            return True
        return any(len(level) >= fanout for level in levels)

    def plan(self, level0, levels, *, fanout, universe, requested, stale_uids):
        if requested:
            step = self._full_converge_step(
                level0, levels, "requested full converge"
            )
            if step is not None:
                return step
        tiers: List[List[SSTable]] = [list(level0)] + [list(l) for l in levels]
        for li, tier in enumerate(tiers):
            if len(tier) < fanout or not tier:
                continue
            deeper_empty = all(len(t) == 0 for t in tiers[li + 1:])
            return CompactionStep(
                kind="merge",
                units=(MergeUnit(tuple(tier)),),
                output_level=li + 1,
                drop_tombstones=deeper_empty,
                reason=f"tiered merge of L{li} ({len(tier)} runs)",
            )
        return self._rebuild_step(level0, levels, stale_uids)


class LeveledPolicy(CompactionPolicy):
    """Deep leveled with overlapping-range slicing: partial rewrites only.

    Every deep level is a set of key-disjoint *slices* whose owning
    spans partition ``[0, universe)``. When level 0 fills (or a converge
    is requested), one step merges **all** level-0 runs down — but only
    into the L1 slices whose owning span actually contains a level-0
    key. Untouched slices keep their runs *and their filters*;
    rewritten regions re-chunk into fresh ``slice_target``-entry slices,
    so slices never grow without bound and no separate split pass exists.

    Levels past L1 grow by *budget pressure*: level ``k`` owns a budget
    of ``l1_budget * level_fanout**(k-1)`` entries, and when it exceeds
    that, one step pushes its largest slice down into the overlapping
    slices of level ``k + 1`` — a bounded, span-restricted merge exactly
    like the L0 push-down, leaving an empty placeholder slice behind so
    the level's spans keep tiling the universe. Geometric budgets mean
    each entry is rewritten ``O(log_fanout(N))`` times on its way to the
    deepest level — classic leveled shape. Tombstones (and TTL-expired
    entries) are dropped only when a step's output level is the deepest
    holding data; anywhere shallower they must keep shadowing older
    versions below.

    Contiguous overlapped slices are rewritten as one merge unit;
    disjoint overlapped regions become separate units of the same step,
    each restricted to its own owning span — which is what keeps a
    sparse, clustered ingest from rewriting the whole keyspace.

    Filter-rebuild requests (an auto-tuner backend switch) are served by
    the shared per-run rebuild steps: only the slices tagged stale are
    rewritten, one bounded step each.
    """

    name = "leveled"

    def __init__(
        self,
        slice_target: int = 2048,
        level_fanout: int = 8,
        l1_budget: Optional[int] = None,
    ) -> None:
        if slice_target < 1:
            raise InvalidParameterError("slice_target must be >= 1")
        if level_fanout < 2:
            raise InvalidParameterError("level_fanout must be >= 2")
        self.slice_target = int(slice_target)
        self.level_fanout = int(level_fanout)
        # ``None`` keeps the single-sliced-level topology (no budgets):
        # deep levels are opt-in, so existing leveled configurations keep
        # their exact shape and write amplification.
        self.l1_budget = None if l1_budget is None else int(l1_budget)
        if self.l1_budget is not None and self.l1_budget < 1:
            raise InvalidParameterError("l1_budget must be >= 1")

    def to_params(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "slice_target": self.slice_target,
            "level_fanout": self.level_fanout,
            "l1_budget": self.l1_budget,
        }

    def level_budget(self, level: int) -> Optional[int]:
        """Entry budget of deep level ``level`` (1-based): geometric in
        ``level_fanout`` from ``l1_budget`` (``None`` when unbudgeted)."""
        if self.l1_budget is None:
            return None
        return self.l1_budget * self.level_fanout ** (level - 1)

    def needs_work(self, level0, levels, fanout) -> bool:
        if len(level0) >= fanout:
            return True
        return self._over_budget(levels) is not None

    def _over_budget(self, levels) -> Optional[int]:
        """0-based index of the shallowest deep level over its budget
        (ignoring the deepest populated level — data must settle
        somewhere), or ``None``."""
        if self.l1_budget is None:
            return None
        deepest = len(levels) - 1
        while deepest >= 0 and not levels[deepest]:
            deepest -= 1
        for li, level in enumerate(levels):
            if li >= deepest:
                break
            size = sum(len(run) for run in level)
            if size > self.level_budget(li + 1):
                return li
        # The deepest populated level may still trigger growth of a new
        # level below it once it seriously overshoots (one extra fanout
        # of slack avoids ping-ponging a freshly-grown bottom).
        if deepest >= 0:
            size = sum(len(run) for run in levels[deepest])
            if size > self.level_budget(deepest + 1) * self.level_fanout:
                return deepest
        return None

    def plan(self, level0, levels, *, fanout, universe, requested, stale_uids):
        push_l0 = len(level0) >= fanout or (requested and level0)
        if push_l0:
            slices = list(levels[0]) if levels else []
            units = self._merge_units(level0, slices, universe)
            deeper_occupied = any(len(level) > 0 for level in levels[1:])
            return CompactionStep(
                kind="merge",
                units=tuple(units),
                output_level=1,
                # Tombstones may only vanish at the deepest data: with
                # L2+ occupied they still shadow older versions there.
                drop_tombstones=not deeper_occupied,
                clears_request=True,
                reason=(
                    f"leveled merge of {len(level0)} L0 runs into "
                    f"{sum(len(u.inputs) for u in units) - len(level0) * len(units)}"
                    f" of {len(slices)} slices"
                ),
            )
        pushdown = self._pushdown_step(levels, universe)
        if pushdown is not None:
            return pushdown
        # A converge request with nothing buffered above the slices
        # is already satisfied (a factory swap expresses its rebuild
        # through the stale set, not the request flag); the executor
        # clears the flag when plan() returns None.
        return self._rebuild_step(level0, levels, stale_uids)

    def _pushdown_step(
        self, levels: Sequence[Sequence[SSTable]], universe: int
    ) -> Optional[CompactionStep]:
        """One budget-pressure step: push the over-budget level's largest
        slice into the overlapping slices one level down."""
        li = self._over_budget(levels)
        if li is None:
            return None
        level = levels[li]
        # Largest slice first (most pressure relieved per rewrite);
        # ties resolve to the lowest owning span for determinism.
        victim = max(
            level,
            key=lambda run: (
                len(run),
                -(run.slice_bounds[0] if run.slice_bounds else 0),
            ),
        )
        vspan = victim.slice_bounds or victim.key_bounds or (0, universe - 1)
        below = list(levels[li + 1]) if li + 1 < len(levels) else []
        if below:
            spans = slice_spans(below, universe)
            group = [
                run for run, (span_lo, span_hi) in zip(below, spans)
                if span_lo <= vspan[1] and vspan[0] <= span_hi
            ]
            group_spans = [
                span for span in spans
                if span[0] <= vspan[1] and vspan[0] <= span[1]
            ]
            span = (
                min(lo for lo, _ in group_spans),
                max(hi for _, hi in group_spans),
            )
            inputs = (victim, *group)
        else:
            # Growing a brand-new deepest level: the push-down's outputs
            # must tile the whole universe so later pushes route into it.
            span = (0, universe - 1)
            inputs = (victim,)
        deeper_occupied = any(len(l) > 0 for l in levels[li + 2:])
        return CompactionStep(
            kind="merge",
            units=(
                MergeUnit(inputs, span=span, slice_target=self.slice_target),
            ),
            output_level=li + 2,
            drop_tombstones=not deeper_occupied,
            reason=(
                f"budget push-down of {len(victim)}-entry slice "
                f"L{li + 1} -> L{li + 2}"
            ),
        )

    def _merge_units(
        self,
        level0: Sequence[SSTable],
        slices: List[SSTable],
        universe: int,
    ) -> List[MergeUnit]:
        """Group the L0 push-down into span-restricted merge units."""
        l0 = tuple(level0)  # newest first
        if not slices:
            return [MergeUnit(l0, span=(0, universe - 1),
                              slice_target=self.slice_target)]
        spans = slice_spans(slices, universe)
        # A slice is overlapped iff any L0 key lands in its owning span.
        # One searchsorted of every L0 key against the span lower bounds
        # routes all keys at once (the "cheap key_bounds-based overlap
        # routing" the slices exist for).
        lows = np.asarray([lo for lo, _ in spans], dtype=np.uint64)
        overlapped = np.zeros(len(slices), dtype=bool)
        for run in l0:
            keys = run.keys_view()
            if keys.size == 0:
                continue
            owner = np.searchsorted(lows, keys, side="right") - 1
            overlapped[owner] = True
        units: List[MergeUnit] = []
        i = 0
        while i < len(slices):
            if not overlapped[i]:
                i += 1
                continue
            j = i
            while j + 1 < len(slices) and overlapped[j + 1]:
                j += 1
            group = tuple(slices[i:j + 1])
            span = (spans[i][0], spans[j][1])
            units.append(
                MergeUnit(l0 + group, span=span, slice_target=self.slice_target)
            )
            i = j + 1
        # Every L0 key has an owning slice, so the groups jointly cover
        # all of level 0 (inputs outside a unit's span are clipped by
        # the executor).
        return units


def slice_spans(
    slices: Sequence[SSTable], universe: int
) -> List[Tuple[int, int]]:
    """The owning key spans of a leveled level, partitioning the universe.

    Each slice carries the bounds it was created with
    (:attr:`~repro.lsm.sstable.SSTable.slice_bounds`); a run adopted
    into a leveled level without them (e.g. the bottom run of a
    full-merge checkpoint reopened as leveled) falls back to spans derived from the slices'
    key bounds: slice ``i`` owns from its first key (0 for the first
    slice) up to just before slice ``i + 1``'s first key (``universe-1``
    for the last). Either way the spans tile ``[0, universe)`` with no
    gaps, so every key has exactly one owning slice.
    """
    if not slices:
        return []
    if all(s.slice_bounds is not None for s in slices):
        return [s.slice_bounds for s in slices]  # type: ignore[misc]
    lows = [0]
    for s in slices[1:]:
        bounds = s.key_bounds
        lows.append(bounds[0] if bounds else lows[-1])
    spans = []
    for i, lo in enumerate(lows):
        hi = (lows[i + 1] - 1) if i + 1 < len(lows) else universe - 1
        spans.append((lo, hi))
    return spans


#: Registry of policy names for the CLI / manifest round trip.
POLICIES = {
    FullMergePolicy.name: FullMergePolicy,
    TieredPolicy.name: TieredPolicy,
    LeveledPolicy.name: LeveledPolicy,
}


def policy_names() -> List[str]:
    """All registered compaction-policy names, sorted."""
    return sorted(POLICIES)


def resolve_policy(
    spec: "str | CompactionPolicy | Dict[str, object] | None",
) -> CompactionPolicy:
    """Coerce a name, params dict, or instance into a policy object.

    ``None`` yields the backward-compatible :class:`FullMergePolicy`.
    A dict is the :meth:`CompactionPolicy.to_params` form recorded in
    engine manifests.
    """
    if spec is None:
        return FullMergePolicy()
    if isinstance(spec, CompactionPolicy):
        return spec
    if isinstance(spec, str):
        if spec not in POLICIES:
            raise InvalidParameterError(
                f"unknown compaction policy {spec!r}; pick one of {policy_names()}"
            )
        return POLICIES[spec]()
    if isinstance(spec, dict):
        params = dict(spec)
        name = params.pop("name", None)
        if name not in POLICIES:
            raise InvalidParameterError(f"unknown compaction policy {name!r}")
        return POLICIES[name](**params)
    raise InvalidParameterError(
        f"cannot resolve a compaction policy from {type(spec).__name__}"
    )
