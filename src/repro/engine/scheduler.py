"""Deferred ("background") compaction scheduling, in bounded steps.

With ``auto_compact=False`` an :class:`~repro.lsm.store.LSMStore` never
compacts inline. Pressure reaches the queue one way only: the store's
``compaction_hook``, which the engine wires to :meth:`notify`. The store
fires it from every place pressure can rise — a flush or a TTL clock
advance that leaves work behind, and an explicit
:meth:`~repro.lsm.store.LSMStore.request_compaction` or
:meth:`~repro.lsm.store.LSMStore.request_filter_rebuild` — so writes that
do not flush never poll the store. Besides the hook, only three places
queue a shard: the engine's one sweep over the shards it loads from a
snapshot, and the re-queue of a shard still under pressure after a step
(in :meth:`CompactionScheduler.drain` and in the service's worker). The
queued work is drained either *between* query batches (the
single-threaded :meth:`~repro.engine.engine.ShardedEngine.batch_range_empty`
path) or by the background compaction worker of
:class:`~repro.engine.service.RangeQueryService`.

The unit of work is one :meth:`~repro.lsm.store.LSMStore.compact_step` —
a single policy-planned rewrite (one merge, one slice rebuild), never a
whole-store merge. That is what lets the service's worker compact a
shard under its write lock without stalling queries for the duration of
a full rebuild: it takes the lock, runs one step, releases, and re-queues
the shard if the policy still sees pressure.

The queue is thread-safe: hooks :meth:`notify` from pool threads while
the worker :meth:`pop`-s, so every ``_pending`` access happens under one
lock. Making a step safe under concurrency is *not* this class's job:
the caller of :meth:`run_step` must hold whatever lock makes
``store.compact_step()`` safe (:meth:`drain` is the single-threaded
convenience that skips that ceremony).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.lsm.store import LSMStore


class TokenBucket:
    """Token-bucket rate limiter metered in *entries compacted*.

    Compaction cost is dominated by entries rewritten, not steps taken —
    a deep leveled push-down rewrites one slice's worth, a full merge
    rewrites the store — so the bucket refills at ``rate`` entries per
    second and each step *debits its actual rewrite size afterwards*.
    A step's cost is unknown before it runs, so admission is "balance is
    positive": one step may overdraw the bucket, and the debt then
    defers further steps until the refill catches up. That bounds
    sustained compaction throughput at ``rate`` while never deadlocking
    on a single step larger than the burst.

    ``clock`` is injectable (tests pass a fake monotone clock); the
    default is :func:`time.monotonic`. Thread-safe.
    """

    def __init__(
        self,
        rate: float,
        *,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise InvalidParameterError(
                f"rate must be positive entries/sec, got {rate}"
            )
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else self.rate
        if self.burst <= 0:
            raise InvalidParameterError("burst must be positive")
        self._clock = clock
        self._lock = threading.Lock()
        self._balance = self.burst  # may go negative after a big debit
        self._last = float(clock())

    def _refill_locked(self) -> None:
        now = float(self._clock())
        elapsed = now - self._last
        if elapsed > 0:
            self._balance = min(self.burst, self._balance + elapsed * self.rate)
            self._last = now

    def ready(self) -> bool:
        """May a compaction step start now? (Positive balance.)"""
        with self._lock:
            self._refill_locked()
            return self._balance > 0

    def debit(self, tokens: float) -> None:
        """Charge a finished step's actual entry count against the bucket."""
        if tokens <= 0:
            return
        with self._lock:
            self._refill_locked()
            self._balance -= float(tokens)

    def eta(self) -> float:
        """Seconds until the balance turns positive (0 when ready)."""
        with self._lock:
            self._refill_locked()
            if self._balance > 0:
                return 0.0
            return (-self._balance) / self.rate + 1e-9

    @property
    def balance(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._balance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenBucket(rate={self.rate}, balance={self.balance:.1f})"


class CompactionScheduler:
    """Thread-safe FIFO queue of shards whose level 0 reached the fanout."""

    def __init__(self, *, rate_limiter: Optional[TokenBucket] = None) -> None:
        self._lock = threading.Lock()
        self._pending: Dict[int, LSMStore] = {}  # insertion-ordered
        self._drained_total = 0
        self._throttled_total = 0
        self._rate_limiter = rate_limiter

    def notify(self, shard_id: int, store: LSMStore) -> None:
        """Record that ``shard_id`` may need compaction (cheap, idempotent).

        Safe to call from any thread.
        """
        if not store.needs_compaction:
            return
        with self._lock:
            self._pending.setdefault(shard_id, store)

    def pop(self) -> Optional[Tuple[int, LSMStore]]:
        """Dequeue the oldest pending shard, or ``None`` (non-blocking).

        The caller owns making the subsequent ``compact()`` safe (e.g.
        by taking the shard's write lock) and should re-check
        ``needs_compaction``: the shard may have been compacted
        explicitly since it was queued.
        """
        with self._lock:
            if not self._pending:
                return None
            shard_id = next(iter(self._pending))
            return shard_id, self._pending.pop(shard_id)

    @property
    def rate_limiter(self) -> Optional[TokenBucket]:
        """The compaction rate limiter, when one is configured."""
        return self._rate_limiter

    def set_rate_limiter(self, limiter: Optional[TokenBucket]) -> None:
        """Install (or remove) the compaction rate limiter.

        A single attribute store — atomic under the GIL, safe while the
        background worker is mid-drain: the worker picks the new limiter
        up on its next step admission.
        """
        self._rate_limiter = limiter

    def throttle_wait(self) -> float:
        """0 when a step may start now, else seconds until the limiter
        refills — the back-off a draining worker should sleep.

        Counts a throttle event whenever it defers, so sustained
        rate-limiting is visible in stats even when no step ever runs.
        """
        limiter = self._rate_limiter
        if limiter is None or limiter.ready():
            return 0.0
        with self._lock:
            self._throttled_total += 1
        return limiter.eta()

    def run_step(self, store: LSMStore) -> bool:
        """One :meth:`~repro.lsm.store.LSMStore.compact_step`, recorded
        in the ledger and debited from the rate limiter.

        Returns whether a step ran. The caller holds whatever lock makes
        the step safe (:meth:`drain` holds none).
        """
        before = store.stats.entries_compacted
        if not store.compact_step():
            return False
        with self._lock:
            self._drained_total += 1
        limiter = self._rate_limiter
        if limiter is not None:
            limiter.debit(store.stats.entries_compacted - before)
        return True

    def drain(self, max_steps: Optional[int] = None) -> int:
        """Run pending compaction steps (all, or at most ``max_steps``).

        Returns the number of bounded steps performed. A shard that
        settled since it was queued (e.g. an explicit
        :meth:`LSMStore.compact`) is skipped for free; a shard whose
        policy needs several steps runs them back to back until it
        settles or the step budget runs out — in which case it is
        re-queued so the next drain resumes it. This is the
        single-threaded path: the queue pops are synchronized, but the
        steps run on the calling thread with no shard locking.
        """
        done = 0
        throttled = False
        while max_steps is None or done < max_steps:
            item = self.pop()
            if item is None:
                break
            shard_id, store = item
            while store.needs_compaction and (
                max_steps is None or done < max_steps
            ):
                if self.throttle_wait() > 0:
                    # The bucket is in debt: leave the shard queued and
                    # return — drain() runs between query batches and
                    # must never sleep on the query path.
                    throttled = True
                    break
                if not self.run_step(store):
                    break
                done += 1
            # A throttled shard is known to need work; otherwise ask
            # again (the step budget may have run out mid-shard).
            if throttled or store.needs_compaction:
                self.notify(shard_id, store)
                break
        return done

    @property
    def pending_shards(self) -> Tuple[int, ...]:
        """Shard ids queued for compaction, oldest first."""
        with self._lock:
            return tuple(self._pending)

    @property
    def compactions_run(self) -> int:
        """Total compaction steps run through :meth:`run_step`."""
        with self._lock:
            return self._drained_total

    @property
    def compactions_throttled(self) -> int:
        """Times a step was deferred because the rate limiter was dry."""
        with self._lock:
            return self._throttled_total

    def __len__(self) -> int:
        with self._lock:
            return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactionScheduler(pending={len(self)})"
