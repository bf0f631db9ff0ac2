"""Time-to-live (TTL) values for the LSM store.

Time-series deployments of range filters (the paper's §6 workloads
include timestamp keys) retire old data wholesale: an entry is written
with an expiry stamp and must stop answering queries the moment the
clock passes it, long before compaction physically removes it. This
module supplies the value wrapper and the liveness predicate; the store
(:mod:`repro.lsm.store`) supplies the clock and the aging machinery.

Design points:

* **Logical clock.** Expiry is judged against an explicit, monotone
  integer clock (:meth:`repro.lsm.store.LSMStore.set_ttl_now`), never
  wall time — the whole test matrix stays deterministic, and recovery
  restores the clock from the checkpoint manifest so a reopened store
  answers exactly as before the crash.
* **Expired == deleted, exactly.** A key whose newest version has
  expired is absent from every read path (`get`, `range_scan`,
  `range_empty`), and — like a tombstone — it *shadows* older live
  versions of the same key: expiry never resurrects an overwritten
  value. Filters may still flag the range (they index raw keys), but
  the exact verification path applies :func:`is_live`, so verdicts
  never change, only prune-efficiency does.
* **Physical removal is a compaction concern.** Merges rewrite expired
  newest versions as tombstones (dropped at the bottom), and a bottom
  run whose entries have *all* expired ages out in one metadata-only
  ``"expire"`` step — the whole-key-range retirement leveled slices
  make cheap (see :meth:`~repro.lsm.sstable.SSTable.fully_expired`).

The wrapper is deliberately a plain picklable class. Runs and WAL
records share one typed value encoding, in which a wrapper is a tag
flag plus a u64 expiry word around its inner value; a pathological
wrapper (nested, or a deadline outside u64) is pickled whole. Either
way TTL entries survive crash recovery and process-mode snapshot
workers.
"""

from __future__ import annotations

from typing import Any, Optional


class ExpiringValue:
    """A value paired with the logical time at which it expires.

    The entry is live while ``now < expires_at`` and dead (invisible,
    shadowing) from ``expires_at`` on. Equality compares both fields —
    what WAL replay and differential harnesses need to verify recovery
    round-trips — while :func:`unwrap` recovers the payload read paths
    return.
    """

    __slots__ = ("value", "expires_at")

    def __init__(self, value: Any, expires_at: int) -> None:
        self.value = value
        self.expires_at = int(expires_at)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExpiringValue)
            and self.value == other.value
            and self.expires_at == other.expires_at
        )

    def __hash__(self) -> int:
        return hash((ExpiringValue, self.expires_at)) ^ hash(self.value)

    def __getstate__(self):
        return (self.value, self.expires_at)

    def __setstate__(self, state) -> None:
        self.value, self.expires_at = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExpiringValue({self.value!r}, expires_at={self.expires_at})"


def is_live(value: Any, now: int) -> bool:
    """Whether ``value`` is visible at logical time ``now``.

    Plain (non-expiring) values are always live; an
    :class:`ExpiringValue` is live strictly before its stamp. Tombstones
    are not this predicate's concern — read paths check them separately.
    """
    if isinstance(value, ExpiringValue):
        return now < value.expires_at
    return True


def unwrap(value: Any) -> Any:
    """The payload a read path should return for a live ``value``."""
    if isinstance(value, ExpiringValue):
        return value.value
    return value


def expiry_of(value: Any) -> Optional[int]:
    """``expires_at`` for an :class:`ExpiringValue`, else ``None``."""
    if isinstance(value, ExpiringValue):
        return value.expires_at
    return None
