"""Per-shard filter auto-tuning from live workload telemetry.

The paper's core tradeoff (§6.2, Figures 3-5): heuristic range filters
(SNARF, SuRF, Proteus, Bucketing) beat Grafite on *short, uncorrelated*
ranges — sometimes by orders of magnitude of FPR — but collapse toward
FPR ~ 1 the moment queries correlate with the keys, which an adversary
can force at will. Grafite's bound is distribution-free: it never wins
by as much, and never loses. A system that must pick one backend ahead
of time therefore picks Grafite; a system that can *observe its
workload* can do better, per shard, per flushed run. That is this
module.

:class:`AutoTuner` plugs into the engine/serving hot path at near-zero
cost: the per-shard batch kernel already computes its verdict bitmap,
and the tuner folds two numpy reductions per sub-batch (query count,
summed range length) into a per-shard window. The third signal
— key-query correlation — needs no extra work at all: the store's
:class:`~repro.lsm.store.IoStats` ledger already counts ``wasted_reads``
(filter said "maybe", run had nothing — exactly a false positive) and
``total_filter_decisions``, so the windowed false-positive rate *of the
filters actually mounted* falls out of two subtractions. Correlated or
adversarial traffic manifests as that rate exploding on a heuristic
backend; uncorrelated traffic shows it near the design epsilon.

After each batch (the between-batches slot the compaction scheduler
already owns) the tuner may retarget a shard:

* heuristic backend with windowed FP-rate above ``robust_fp_threshold``
  → switch to the robust default (Grafite) — the adversarial-safe move;
* robust backend, FP-rate under ``heuristic_fp_threshold``, observed
  mean range length within ``short_range_cutoff`` → try the heuristic
  backend (SNARF by default: the paper's Fig. 4 winner for short
  uncorrelated ranges);
* robust backend still paying too many false positives → buy bits
  (``bits_step`` more per key, up to ``max_bits``).

A retarget swaps the shard's filter factory (new flushes use it
immediately) and queues a filter rebuild
(:meth:`~repro.lsm.store.LSMStore.request_filter_rebuild`), so the
deferred/background compaction machinery converges existing runs to the
new backend at the next opportunity. How much work that costs is the
compaction policy's business: the default full-merge policy rebuilds
the shard in one monolithic merge (the seed behaviour), while a leveled
shard is rebuilt one slice per bounded step — the switch touches only
the slices it tags, never the whole shard at once. Nothing here can
change a query answer: filters only prune, and every backend is
false-negative-free by contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.filters.registry import BACKENDS, FilterSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import ShardedEngine


@dataclass
class ShardWindow:
    """Telemetry accumulated for one shard since its last decision."""

    queries: int = 0
    sum_len: int = 0       # sum of (hi - lo + 1) over observed queries
    decisions_base: int = 0  # IoStats.total_filter_decisions at window start
    wasted_base: int = 0     # IoStats.wasted_reads at window start


@dataclass(frozen=True)
class Decision:
    """One retargeting decision, kept for introspection and tests."""

    shard_id: int
    previous: FilterSpec
    chosen: FilterSpec
    fp_rate: float
    mean_range_len: float
    queries: int
    reason: str


@dataclass(frozen=True)
class AutoTunePolicy:
    """The thresholds of the heuristic-vs-robust tradeoff.

    Defaults are sized for the registry defaults (16 bits/key, design
    range 32): Grafite's epsilon there is ~2e-3, comfortably under
    ``heuristic_fp_threshold`` on honest uncorrelated traffic, while a
    heuristic backend under correlated traffic blows past
    ``robust_fp_threshold`` within one window.
    """

    robust_backend: str = "grafite"
    heuristic_backend: str = "snarf"
    min_window: int = 512          #: observed queries before a decision
    robust_fp_threshold: float = 0.05
    heuristic_fp_threshold: float = 0.005
    short_range_cutoff: float = 1024.0  #: mean range length for heuristics
    bits_step: float = 4.0
    max_bits: float = 24.0
    #: Probation after a heuristic backend is evicted for exploding FPR:
    #: the shard must sit out this many decision windows on the robust
    #: backend before the heuristic may be *retried*, and the sentence
    #: multiplies on every repeat offence (exponential backoff). This is
    #: what prevents oscillation under sustained correlated/adversarial
    #: traffic — a robust filter's own FP rate is distribution-free by
    #: construction, so it carries no evidence that the attack stopped,
    #: and each retry costs one window of near-1 FPR.
    probation_initial: int = 2
    probation_growth: int = 8
    probation_max: int = 512

    def __post_init__(self) -> None:
        for name in (self.robust_backend, self.heuristic_backend):
            if name not in BACKENDS:
                raise InvalidParameterError(f"unknown backend {name!r}")
        if not BACKENDS[self.robust_backend].robust:
            raise InvalidParameterError(
                f"robust_backend {self.robust_backend!r} is not adversarial-safe"
            )
        if self.min_window < 1:
            raise InvalidParameterError("min_window must be >= 1")
        if not 0 < self.heuristic_fp_threshold < self.robust_fp_threshold:
            raise InvalidParameterError(
                "need 0 < heuristic_fp_threshold < robust_fp_threshold"
            )


class AutoTuner:
    """Observes per-shard query telemetry and retargets filter backends.

    Attach via :meth:`ShardedEngine.attach_autotuner`; the engine (and
    the serving layer on top of it) then calls :meth:`maybe_retune`
    between batches. Thread-safe: observations arrive from pool threads,
    decisions are made on whichever thread finishes a batch.
    """

    def __init__(self, policy: Optional[AutoTunePolicy] = None) -> None:
        self._policy = policy or AutoTunePolicy()
        self._engine: Optional["ShardedEngine"] = None
        self._lock = threading.Lock()
        self._windows: Dict[int, ShardWindow] = {}
        self._current: Dict[int, FilterSpec] = {}
        self._decisions: List[Decision] = []
        self._probation: Dict[int, int] = {}  # windows before heuristic retry
        self._backoff: Dict[int, int] = {}    # current sentence length

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, engine: "ShardedEngine") -> None:
        """Subscribe to every shard's batch telemetry (engine-side API:
        prefer :meth:`ShardedEngine.attach_autotuner`)."""
        if self._engine is not None and self._engine is not engine:
            raise InvalidParameterError("tuner is already attached to an engine")
        self._engine = engine
        start = engine.filter_spec or FilterSpec(
            backend=self._policy.robust_backend
        )
        for sid, store in enumerate(engine.shards):
            self._current[sid] = start
            self._probation[sid] = 0
            self._backoff[sid] = 0
            self._windows[sid] = ShardWindow(
                decisions_base=store.stats.total_filter_decisions,
                wasted_base=store.stats.wasted_reads,
            )
            store.query_observer = self._make_observer(sid)
            if store.filter_factory is None:
                # An unfiltered engine gains filters on the next flush;
                # existing runs stay unfiltered until a compaction.
                store.set_filter_factory(start.factory())

    def detach(self) -> None:
        """Unsubscribe from the engine's shards (idempotent)."""
        if self._engine is None:
            return
        for store in self._engine.shards:
            store.query_observer = None
        self._engine = None

    def _make_observer(self, sid: int):
        def observe(q_lo: np.ndarray, q_hi: np.ndarray, empty: np.ndarray) -> None:
            n = int(q_lo.size)
            if n == 0:
                return
            span = int((q_hi - q_lo).sum()) + n
            with self._lock:
                window = self._windows[sid]
                window.queries += n
                window.sum_len += span

        return observe

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def maybe_retune(self) -> List[Decision]:
        """Decide per shard whose window is full; returns new decisions.

        Called by the engine/service between batches. A decision swaps
        the shard's filter factory and tags the existing runs for a
        filter rebuild, which the deferred scheduler (single-threaded
        engine) or the background compaction worker (serving layer)
        executes in policy-sized steps — per slice on a leveled shard,
        one full merge under the default policy — never inside a query.
        """
        if self._engine is None:
            return []
        made: List[Decision] = []
        for sid, store in enumerate(self._engine.shards):
            with self._lock:
                window = self._windows[sid]
                if window.queries < self._policy.min_window:
                    continue
                stats = store.stats
                # A pending rebuild means this window's runs were (partly)
                # built under the *previous* backend: deciding on that
                # evidence would misattribute its FP rate to the current
                # one — e.g. buying Grafite bits forever because evicted
                # heuristic runs are still answering. Discard the window
                # and wait for the compaction to land.
                stale = store.needs_compaction
                decisions = stats.total_filter_decisions - window.decisions_base
                wasted = stats.wasted_reads - window.wasted_base
                fp_rate = wasted / decisions if decisions > 0 else 0.0
                mean_len = window.sum_len / window.queries
                current = self._current[sid]
                chosen, reason = (
                    (None, "") if stale
                    else self._decide(sid, current, fp_rate, mean_len)
                )
                # Start a fresh window either way: stale evidence must not
                # dominate the next decision after the workload shifts.
                self._windows[sid] = ShardWindow(
                    decisions_base=stats.total_filter_decisions,
                    wasted_base=stats.wasted_reads,
                )
                if chosen is None:
                    continue
                self._current[sid] = chosen
                decision = Decision(
                    shard_id=sid,
                    previous=current,
                    chosen=chosen,
                    fp_rate=fp_rate,
                    mean_range_len=mean_len,
                    queries=window.queries,
                    reason=reason,
                )
                self._decisions.append(decision)
                # Apply while still holding the tuner lock, so two racing
                # retunes cannot commit decisions in one order and mount
                # factories in the other. Everything applied here is
                # non-blocking — the factory swap and stale tags are
                # atomic-enough stores, and the rebuild request's
                # compaction hook takes only the scheduler's short queue
                # lock — so query observers queued on this lock are never
                # made to wait on storage work.
                store.set_filter_factory(chosen.factory())
                store.request_filter_rebuild()
            made.append(decision)
        return made

    def _decide(
        self, sid: int, current: FilterSpec, fp_rate: float, mean_len: float
    ) -> tuple[Optional[FilterSpec], str]:
        """Pick the next spec for one shard; caller holds the lock."""
        policy = self._policy
        robust = BACKENDS[current.backend].robust
        if fp_rate > policy.robust_fp_threshold:
            if not robust:
                # Repeat offence: the heuristic's probation multiplies.
                self._backoff[sid] = min(
                    policy.probation_max,
                    (self._backoff[sid] * policy.probation_growth)
                    or policy.probation_initial,
                )
                self._probation[sid] = self._backoff[sid]
                return (
                    replace(current, backend=policy.robust_backend),
                    f"fp_rate {fp_rate:.3f} on heuristic backend: correlated or "
                    f"adversarial traffic, falling back to the robust default "
                    f"(heuristic on probation for {self._probation[sid]} windows)",
                )
            if current.bits_per_key < policy.max_bits:
                bits = min(policy.max_bits, current.bits_per_key + policy.bits_step)
                return (
                    replace(current, bits_per_key=bits),
                    f"fp_rate {fp_rate:.3f} under the robust backend: buying "
                    f"bits ({current.bits_per_key:g} -> {bits:g} per key)",
                )
            return None, ""
        if (
            robust
            and current.backend != policy.heuristic_backend
            and fp_rate < policy.heuristic_fp_threshold
            and mean_len <= policy.short_range_cutoff
        ):
            if self._probation[sid] > 0:
                self._probation[sid] -= 1
                return None, ""
            return (
                replace(current, backend=policy.heuristic_backend),
                f"fp_rate {fp_rate:.4f} and mean range {mean_len:.0f}: short "
                f"uncorrelated traffic, the heuristic backend wins here (Fig. 4)",
            )
        if not robust and fp_rate < policy.heuristic_fp_threshold:
            # The heuristic is earning its keep: slowly forgive history so
            # a genuinely shifted workload is not punished forever.
            self._backoff[sid] = max(0, self._backoff[sid] - 1)
        return None, ""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def policy(self) -> AutoTunePolicy:
        return self._policy

    @property
    def decisions(self) -> List[Decision]:
        """All retargeting decisions, oldest first."""
        with self._lock:
            return list(self._decisions)

    def current_spec(self, shard_id: int) -> FilterSpec:
        """The spec currently mounted (for new runs) on ``shard_id``."""
        with self._lock:
            return self._current[shard_id]

    def backend_counts(self) -> Dict[str, int]:
        """How many shards currently target each backend."""
        with self._lock:
            counts: Dict[str, int] = {}
            for spec in self._current.values():
                counts[spec.backend] = counts.get(spec.backend, 0) + 1
            return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AutoTuner(backends={self.backend_counts()}, "
            f"decisions={len(self._decisions)})"
        )
