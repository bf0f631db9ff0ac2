"""Query workload generators of §6.1.

All generators emit ``(lo, hi)`` inclusive ranges of a fixed size
``range_size`` (the paper's ``L``: 2^0 point, 2^5 small, 2^10 large) and,
except for the non-empty workload, *enforce emptiness* exactly as the
paper does: "we enforce the generation of empty queries by discarding the
query ranges that intersect the dataset".

Workloads:

* ``uncorrelated`` — left endpoint uniform over the universe;
* ``correlated(D)`` — a key ``k`` is drawn from the dataset, then the
  left endpoint is uniform in ``[k, k + 2^(30 (1 - D))]``; ``D = 0`` is
  effectively uncorrelated, ``D = 1`` touches the key's immediate
  neighbourhood (the adversarial regime of Figures 1 and 3);
* ``real_extracted`` — the left endpoint is a key removed from the
  dataset (the workload used for Books/Osm rows in Figures 4–5); returns
  the *remaining* keys alongside the queries;
* ``nonempty`` — ranges guaranteed to intersect the dataset (§6.5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError

Query = Tuple[int, int]


def intersects(sorted_keys: np.ndarray, lo: int, hi: int) -> bool:
    """True iff some key of the sorted array falls in ``[lo, hi]``."""
    idx = int(np.searchsorted(sorted_keys, lo, side="left"))
    return idx < sorted_keys.size and int(sorted_keys[idx]) <= hi


def _check(n_queries: int, range_size: int, universe: int) -> None:
    if n_queries < 1:
        raise InvalidParameterError("n_queries must be >= 1")
    if range_size < 1:
        raise InvalidParameterError("range_size must be >= 1")
    if universe <= range_size:
        raise InvalidParameterError("universe must exceed range_size")


def uncorrelated_queries(
    n_queries: int,
    range_size: int,
    universe: int,
    keys: Optional[np.ndarray] = None,
    seed: int = 0,
    max_attempts_factor: int = 200,
) -> List[Query]:
    """Uniform left endpoints; empty w.r.t. ``keys`` when provided."""
    _check(n_queries, range_size, universe)
    rng = np.random.default_rng(seed)
    sorted_keys = np.sort(np.asarray(keys, dtype=np.uint64)) if keys is not None else None
    out: List[Query] = []
    attempts = 0
    limit = n_queries * max_attempts_factor
    while len(out) < n_queries and attempts < limit:
        attempts += 1
        # Inclusive-placement draw: the last valid left endpoint is
        # universe - range_size (giving hi = universe - 1), and
        # rng.integers has an exclusive high bound, hence the + 1. The
        # uint64 dtype admits bounds up to 2^64 and draws the same
        # values as the default int64 for bounds below 2^63.
        lo = int(rng.integers(0, universe - range_size + 1, dtype=np.uint64))
        hi = lo + range_size - 1
        if sorted_keys is not None and intersects(sorted_keys, lo, hi):
            continue
        out.append((lo, hi))
    if len(out) < n_queries:
        raise InvalidParameterError(
            "could not generate enough empty queries; dataset too dense"
        )
    return out


def correlated_queries(
    keys: np.ndarray,
    n_queries: int,
    range_size: int,
    universe: int,
    correlation_degree: float = 0.8,
    seed: int = 0,
    max_attempts_factor: int = 500,
) -> List[Query]:
    """The §6.1 Correlated workload with degree ``D`` in [0, 1].

    Left endpoint uniform in ``[k, k + 2^(30 (1 - D))]`` for a random key
    ``k``; ranges intersecting the dataset are discarded, which at high
    ``D`` means the surviving queries hug the keys from the right — the
    adversarial shape existing heuristic filters cannot handle.
    """
    _check(n_queries, range_size, universe)
    if not 0.0 <= correlation_degree <= 1.0:
        raise InvalidParameterError("correlation_degree must be in [0, 1]")
    sorted_keys = np.sort(np.asarray(keys, dtype=np.uint64))
    if sorted_keys.size == 0:
        raise InvalidParameterError("correlated workload needs a non-empty key set")
    rng = np.random.default_rng(seed)
    spread = int(2 ** (30 * (1.0 - correlation_degree)))
    out: List[Query] = []
    attempts = 0
    limit = n_queries * max_attempts_factor
    while len(out) < n_queries and attempts < limit:
        attempts += 1
        k = int(sorted_keys[rng.integers(0, sorted_keys.size)])
        offset = int(rng.integers(0, spread + 1))
        lo = k + offset
        hi = lo + range_size - 1
        if hi >= universe or intersects(sorted_keys, lo, hi):
            continue
        out.append((lo, hi))
    if len(out) < n_queries:
        raise InvalidParameterError(
            "could not generate enough empty correlated queries; "
            "try a lower correlation degree or a sparser dataset"
        )
    return out


def zipfian_queries(
    keys: np.ndarray,
    n_queries: int,
    range_size: int,
    universe: int,
    *,
    skew: float = 1.1,
    n_hot: int = 1024,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Skewed serving traffic: Zipfian popularity over a hot key set.

    Models what a front door sees from "millions of users": a seeded
    subset of ``n_hot`` keys becomes the popularity universe, every
    query picks a hot key with probability proportional to
    ``1 / rank^skew`` (rank assignment is a seeded permutation, so the
    hottest key is an arbitrary one, not the smallest), and the range
    ``[lo, lo + range_size - 1]`` is jittered around the chosen key so
    repeats are near- but not always exact duplicates.

    Unlike the §6.1 generators this does **not** enforce emptiness —
    serving benchmarks want the realistic mix of empty and non-empty
    ranges — and it returns the two columnar arrays ``(los, his)``
    directly (``dtype=uint64``), ready for ``batch_range_empty`` or the
    wire protocol's packed batch frames. Fully vectorised and
    deterministic given ``seed``.
    """
    _check(n_queries, range_size, universe)
    if skew <= 0:
        raise InvalidParameterError("skew must be positive")
    if n_hot < 1:
        raise InvalidParameterError("n_hot must be >= 1")
    sorted_keys = np.sort(np.asarray(keys, dtype=np.uint64))
    if sorted_keys.size == 0:
        raise InvalidParameterError("zipfian workload needs a non-empty key set")
    rng = np.random.default_rng(seed)
    m = min(int(n_hot), sorted_keys.size)
    hot = sorted_keys[rng.permutation(sorted_keys.size)[:m]]
    weights = 1.0 / np.arange(1, m + 1, dtype=np.float64) ** skew
    ranks = rng.choice(m, size=n_queries, p=weights / weights.sum())
    anchors = hot[ranks].astype(np.int64)
    jitter = rng.integers(0, range_size, n_queries, dtype=np.int64)
    los = np.clip(anchors - jitter, 0, universe - range_size).astype(np.uint64)
    return los, los + np.uint64(range_size - 1)


def real_extracted_queries(
    keys: np.ndarray,
    n_queries: int,
    range_size: int,
    universe: int,
    seed: int = 0,
) -> Tuple[np.ndarray, List[Query]]:
    """§6.1 real-dataset workload: endpoints are keys removed from the set.

    Returns ``(remaining_keys, queries)``: build the filter on
    ``remaining_keys``; each query's left endpoint is one of the removed
    keys and the range is guaranteed empty w.r.t. the remaining set.
    """
    _check(n_queries, range_size, universe)
    sorted_keys = np.sort(np.asarray(keys, dtype=np.uint64))
    rng = np.random.default_rng(seed)
    order = rng.permutation(sorted_keys.size)
    removed_mask = np.zeros(sorted_keys.size, dtype=bool)
    out: List[Query] = []
    removed: List[int] = []
    for idx in order:
        if len(out) >= n_queries:
            break
        lo = int(sorted_keys[idx])
        hi = lo + range_size - 1
        if hi >= universe:
            continue
        removed_mask[idx] = True
        remaining_hit = _intersects_excluding(sorted_keys, removed_mask, lo, hi)
        if remaining_hit:
            removed_mask[idx] = False
            continue
        removed.append(idx)
        out.append((lo, hi))
    if len(out) < n_queries:
        raise InvalidParameterError(
            "could not extract enough query endpoints; "
            "reduce n_queries or range_size"
        )
    remaining = sorted_keys[~removed_mask]
    return remaining, out


def _intersects_excluding(
    sorted_keys: np.ndarray, removed_mask: np.ndarray, lo: int, hi: int
) -> bool:
    """Does ``[lo, hi]`` hit any not-yet-removed key?"""
    start = int(np.searchsorted(sorted_keys, lo, side="left"))
    idx = start
    while idx < sorted_keys.size and int(sorted_keys[idx]) <= hi:
        if not removed_mask[idx]:
            return True
        idx += 1
    return False


def nonempty_queries(
    keys: np.ndarray,
    n_queries: int,
    range_size: int,
    universe: int,
    seed: int = 0,
) -> List[Query]:
    """§6.5 workload: every range contains at least one key.

    A key ``k`` is drawn, then the left endpoint uniformly from
    ``[k - L + 1, k]`` so that ``k`` lies inside ``[lo, lo + L - 1]``.
    """
    _check(n_queries, range_size, universe)
    sorted_keys = np.sort(np.asarray(keys, dtype=np.uint64))
    if sorted_keys.size == 0:
        raise InvalidParameterError("nonempty workload needs a non-empty key set")
    rng = np.random.default_rng(seed)
    out: List[Query] = []
    while len(out) < n_queries:
        k = int(sorted_keys[rng.integers(0, sorted_keys.size)])
        lo = max(0, k - int(rng.integers(0, range_size)))
        hi = lo + range_size - 1
        if hi >= universe:
            continue
        assert lo <= k <= hi
        out.append((lo, hi))
    return out
