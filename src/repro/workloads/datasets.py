"""Synthetic datasets reproducing the key distributions of §6.1.

The paper evaluates on 200M-key datasets: Uniform (synthetic), Books
(Amazon sale popularity), Osm (OpenStreetMap cell ids) and mentions Fb
(Facebook ids) and a Normal dataset. The real SOSD files are not
available offline, so this module provides synthetic surrogates that
match the *distributional properties the experiments depend on* (see
DESIGN.md §5 for the substitution rationale):

* ``uniform``    — i.i.d. uniform keys over the universe;
* ``normal``     — Gaussian keys (mean ``u/2``, std ``0.1 u``), §6.1
  "other datasets";
* ``books_like`` — heavy-tailed (log-normal) gaps: a few huge jumps,
  many clustered keys, as in sales-popularity data;
* ``osm_like``   — dense local bursts around cluster centres separated
  by long empty stretches, the signature of geo cell ids;
* ``fb_like``    — almost all keys below ``2^38`` plus a handful of huge
  outliers, matching the paper's description of Fb ("mean value ~2^38,
  ... exclude the last 21 keys that are larger").

Every generator returns a sorted, duplicate-free ``uint64`` array and is
deterministic given ``seed``. Because sampling then deduplicating can
lose a few keys, generators oversample and trim to exactly ``n`` unless
the requested density makes that impossible.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import InvalidParameterError

DEFAULT_UNIVERSE = 2**64


def _finalise(samples: np.ndarray, n: int, universe: int) -> np.ndarray:
    """Clip, deduplicate, and trim a raw sample to ``n`` sorted keys."""
    keys = np.unique(np.clip(samples, 0, universe - 1).astype(np.uint64))
    if keys.size > n:
        # Trim uniformly so the distribution's shape is preserved.
        take = np.linspace(0, keys.size - 1, n).astype(np.int64)
        keys = keys[take]
    return keys


def _check_args(n: int, universe: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if not 2 <= universe <= 2**64:
        raise InvalidParameterError(
            f"universe must be in [2, 2^64] (keys are u64), got {universe}"
        )
    if n > universe:
        raise InvalidParameterError(f"cannot draw {n} distinct keys from [0, {universe})")


def uniform(n: int, universe: int = DEFAULT_UNIVERSE, seed: int = 0) -> np.ndarray:
    """Uniform keys: the paper's primary synthetic dataset."""
    _check_args(n, universe)
    rng = np.random.default_rng(seed)
    keys = np.zeros(0, dtype=np.uint64)
    want = n
    while keys.size < n:
        fresh = rng.integers(0, universe, int(want * 1.1) + 16, dtype=np.uint64)
        keys = np.unique(np.concatenate([keys, fresh]))
        want = n - keys.size
    return keys[:n] if keys.size > n else keys


def normal(
    n: int,
    universe: int = DEFAULT_UNIVERSE,
    seed: int = 0,
    mean_fraction: float = 0.5,
    std_fraction: float = 0.1,
) -> np.ndarray:
    """Gaussian keys (§6.1 "other datasets": mean 2^63, std 0.1 * 2^64)."""
    _check_args(n, universe)
    rng = np.random.default_rng(seed)
    raw = rng.normal(mean_fraction * universe, std_fraction * universe, int(n * 1.3) + 16)
    return _finalise(raw, n, universe)


def books_like(n: int, universe: int = DEFAULT_UNIVERSE, seed: int = 0) -> np.ndarray:
    """Heavy-tailed cumulative gaps, imitating sales-popularity data.

    Gaps are log-normal (sigma 2.0): most keys sit in tight clusters while
    occasional gaps are orders of magnitude larger — the clustering that
    makes trie/prefix heuristics lose precision on Books in Figure 4.
    """
    _check_args(n, universe)
    rng = np.random.default_rng(seed)
    count = int(n * 1.2) + 16
    gaps = rng.lognormal(mean=0.0, sigma=2.0, size=count)
    positions = np.cumsum(gaps)
    scaled = positions / positions[-1] * (universe - 1)
    return _finalise(scaled, n, universe)


def osm_like(n: int, universe: int = DEFAULT_UNIVERSE, seed: int = 0) -> np.ndarray:
    """Dense bursts around cluster centres, imitating geo cell ids.

    Roughly ``n / 256`` cluster centres are placed uniformly; each centre
    receives a burst of keys at exponential offsets about three orders of
    magnitude tighter than the global key spacing. Dense local
    neighbourhoods are what defeats prefix-based filters on Osm, while the
    intra-cluster gaps stay wide enough that empty range queries of the
    paper's sizes still exist (the §6.1 workloads discard non-empty ones).
    """
    _check_args(n, universe)
    rng = np.random.default_rng(seed)
    count = int(n * 1.3) + 64
    num_clusters = max(1, n // 256)
    # Integer arithmetic throughout: at 2^60 magnitudes float64 cannot
    # resolve offsets of a few thousand and the burst collapses to a
    # handful of distinct values.
    centres = rng.integers(0, universe, num_clusters, dtype=np.uint64)
    assignment = rng.integers(0, num_clusters, count)
    burst_scale = max(4096.0, universe / max(1, n) / 1024.0)
    offsets = np.ceil(rng.exponential(scale=burst_scale, size=count)).astype(np.uint64)
    with np.errstate(over="ignore"):
        raw = centres[assignment] + offsets
    raw = np.minimum(raw, np.uint64(universe - 1))
    keys = np.unique(raw)
    if keys.size > n:
        take = np.linspace(0, keys.size - 1, n).astype(np.int64)
        keys = keys[take]
    return keys


def fb_like(n: int, universe: int = DEFAULT_UNIVERSE, seed: int = 0) -> np.ndarray:
    """Fb surrogate: bulk below ``2^38`` plus ~21 giant outliers (§6.1)."""
    _check_args(n, universe)
    rng = np.random.default_rng(seed)
    bulk_bound = min(universe, 2**38)
    num_outliers = min(21, max(0, n - 1)) if universe > 2**38 else 0
    bulk = uniform(n - num_outliers, bulk_bound, seed=seed)
    if num_outliers:
        outliers = rng.integers(2**38, universe, num_outliers, dtype=np.uint64)
        return np.unique(np.concatenate([bulk, outliers]))
    return bulk


#: Registry used by the harness and the benchmarks (paper dataset names).
DATASETS: Dict[str, Callable[..., np.ndarray]] = {
    "uniform": uniform,
    "normal": normal,
    "books": books_like,
    "osm": osm_like,
    "fb": fb_like,
}


def load_dataset(
    name: str, n: int, universe: int = DEFAULT_UNIVERSE, seed: int = 0
) -> np.ndarray:
    """Generate a named dataset; raises for unknown names."""
    try:
        generator = DATASETS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
        ) from None
    return generator(n, universe, seed=seed)
