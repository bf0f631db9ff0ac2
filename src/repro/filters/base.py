"""The common range-filter interface.

Every filter in this library — Grafite, Bucketing, and all the baselines
the paper evaluates against — implements :class:`RangeFilter`, so the
measurement harness (:mod:`repro.analysis`), the LSM store
(:mod:`repro.lsm`) and the benchmarks can treat them interchangeably.

The contract mirrors Problem 1 of the paper:

* ``may_contain_range(lo, hi)`` answers "might ``[lo, hi]`` intersect the
  key set?" — ``False`` is always correct (no false negatives allowed),
  ``True`` may be a false positive;
* ``size_in_bits`` is the payload space the filter occupies, used for the
  bits-per-key axes of Figures 4–6.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.errors import InvalidKeyError, InvalidQueryError


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a one-dimensional column.

    Equal to ``np.unique(values)`` without its hash table, which on
    numpy 2.x costs ~15x a sort at build sizes. A strictly increasing
    column (every LSM run's keys) is returned as is, not copied; any
    other is sorted and its repeats masked out. Callers must not write
    into the result: it may be their own input.
    """
    arr = np.asarray(values)
    if arr.size < 2 or (arr[1:] > arr[:-1]).all():
        return arr
    arr = np.sort(arr)
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))]


def as_key_array(keys: Sequence[int] | np.ndarray, universe: int) -> np.ndarray | list:
    """Validate and normalise input keys to a sorted, duplicate-free sequence.

    Keys must be integers in ``[0, universe)``. The paper works with the
    *set* ``S``, so duplicates are removed here, once, for all filters;
    already sorted input (every LSM run) skips the sort
    (:func:`sorted_unique`).

    For universes up to ``2^64`` the result is a ``uint64`` numpy array;
    larger universes (the string-key extension encodes keys into up to
    ``2^(8*width)``) fall back to a sorted list of Python integers.
    """
    if universe <= 0:
        raise InvalidKeyError(f"universe must be positive, got {universe}")
    if universe > 2**64:
        out = sorted({int(k) for k in keys})
        if out and (out[0] < 0 or out[-1] >= universe):
            raise InvalidKeyError("key outside the declared universe")
        return out
    try:
        arr = np.asarray(keys, dtype=np.uint64)
    except (OverflowError, ValueError) as exc:
        raise InvalidKeyError(f"keys do not fit the declared universe: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidKeyError("keys must be a one-dimensional sequence")
    arr = sorted_unique(arr)
    if arr.size and int(arr[-1]) >= universe:
        raise InvalidKeyError(f"key {int(arr[-1])} outside universe [0, {universe})")
    return arr


class RangeFilter(abc.ABC):
    """Abstract base class for approximate range-emptiness filters."""

    #: Human-readable name used in benchmark tables (subclasses override).
    name: str = "range-filter"

    #: The :class:`~repro.filters.registry.FilterSpec` that built this
    #: filter, stamped by its factory; ``None`` for a filter built any
    #: other way. A checkpoint records it to rebuild the filter on load.
    spec = None

    def __init__(self, universe: int) -> None:
        if universe <= 0:
            raise InvalidKeyError(f"universe must be positive, got {universe}")
        self._universe = int(universe)

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    @property
    def universe(self) -> int:
        """Exclusive upper bound of the key universe ``[0, u)``."""
        return self._universe

    @property
    @abc.abstractmethod
    def key_count(self) -> int:
        """Number of distinct keys the filter was built on."""

    @property
    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Payload size of the filter in bits."""

    @abc.abstractmethod
    def may_contain_range(self, lo: int, hi: int) -> bool:
        """Return ``False`` only if ``[lo, hi]`` surely contains no key."""

    # ------------------------------------------------------------------
    # Derived conveniences
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Point-query convenience: a range query of size one."""
        return self.may_contain_range(key, key)

    def may_contain_range_batch(
        self, los: Sequence[int] | np.ndarray, his: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Answer many range-emptiness queries at once.

        ``los[i]``/``his[i]`` are the bounds of query ``i``; the result is
        a boolean array aligned with them, semantically identical to
        calling :meth:`may_contain_range` per query. This base
        implementation is exactly that loop; filters with a vectorised
        hot path (:class:`~repro.core.grafite.Grafite`) override it — the
        batch layer of :mod:`repro.engine.batch` calls through this
        method so every registered filter works there, fast or not.
        """
        los_arr = np.asarray(los)
        his_arr = np.asarray(his)
        if los_arr.shape != his_arr.shape or los_arr.ndim != 1:
            raise InvalidQueryError(
                "batch queries need equal-length one-dimensional lo/hi arrays"
            )
        out = np.empty(los_arr.size, dtype=bool)
        for i in range(los_arr.size):
            out[i] = self.may_contain_range(int(los_arr[i]), int(his_arr[i]))
        return out

    @property
    def bits_per_key(self) -> float:
        """Space per key, the x-axis of the paper's Figures 4–6."""
        n = self.key_count
        return self.size_in_bits / n if n else 0.0

    def _check_range(self, lo: int, hi: int) -> None:
        """Validate a query range; raises :class:`InvalidQueryError`."""
        if lo > hi:
            raise InvalidQueryError(f"query range has lo={lo} > hi={hi}")
        if lo < 0 or hi >= self._universe:
            raise InvalidQueryError(
                f"query range [{lo}, {hi}] outside universe [0, {self._universe})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={self.key_count}, "
            f"bits_per_key={self.bits_per_key:.2f})"
        )
