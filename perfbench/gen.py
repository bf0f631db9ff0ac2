"""Seeded, vectorised input generation for every workload.

Every stream is drawn from ``numpy.random.default_rng([seed, tag])``
before any timing starts, so the same seed yields byte-identical inputs
and the program under test only ever sees the generated columns. All
ranges are ``RANGE_SIZE`` wide, so a range is identified by its lower
bound and "duplicate-free" means "distinct lower bounds".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

UNIVERSE = 2**48
RANGE_SIZE = 32
CORRELATION = 0.8  # the paper's adversarial degree D

# Share of each probe batch: uncorrelated empty, correlated empty, non-empty.
MIX = (0.45, 0.45, 0.10)
DELETE_SHARE = 0.10  # of the ingest script's mutations
ZIPF_SKEW = 1.1

_TAG_KEYS, _TAG_PROBES, _TAG_ZIPF, _TAG_ZIPF_PICKS, _TAG_MUTATIONS, _TAG_SWEEP = range(6)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def make_keys(seed: int, n: int) -> np.ndarray:
    """``n`` distinct uniform keys below :data:`UNIVERSE`, in insertion order."""
    rng = _rng(seed, _TAG_KEYS)
    pool = np.unique(rng.integers(0, UNIVERSE, n + n // 8 + 64, dtype=np.uint64))
    while pool.size < n:
        more = rng.integers(0, UNIVERSE, n, dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, more]))
    return pool[rng.permutation(pool.size)[:n]]


def intersects(sorted_keys: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Which ranges ``[los[i], his[i]]`` hold a key of ``sorted_keys``."""
    idx = np.searchsorted(sorted_keys, los, side="left")
    inside = idx < sorted_keys.size
    out = np.zeros(los.size, dtype=bool)
    out[inside] = sorted_keys[idx[inside]] <= his[inside]
    return out


def uncorrelated_empty(rng, sorted_keys: np.ndarray, m: int) -> np.ndarray:
    """Lower bounds of ``m`` uniform ranges that hold no key."""
    out: List[np.ndarray] = []
    have = 0
    while have < m:
        lo = rng.integers(0, UNIVERSE - RANGE_SIZE + 1, m - have + 16, dtype=np.uint64)
        lo = lo[~intersects(sorted_keys, lo, lo + np.uint64(RANGE_SIZE - 1))]
        out.append(lo)
        have += lo.size
    return np.concatenate(out)[:m]


def correlated_empty(rng, sorted_keys: np.ndarray, m: int) -> np.ndarray:
    """Lower bounds of ``m`` empty ranges hugging keys (§6.1, degree D).

    A key ``k`` is drawn, the lower bound is uniform in
    ``[k, k + 2^(30 (1 - D))]``, and ranges that hit a key are discarded.
    """
    spread = int(2 ** (30 * (1.0 - CORRELATION)))
    out: List[np.ndarray] = []
    have = 0
    while have < m:
        want = m - have + m // 16 + 16
        k = sorted_keys[rng.integers(0, sorted_keys.size, want)]
        lo = k + rng.integers(0, spread + 1, want, dtype=np.uint64)
        hi = lo + np.uint64(RANGE_SIZE - 1)
        keep = (hi < np.uint64(UNIVERSE)) & ~intersects(sorted_keys, lo, hi)
        out.append(lo[keep])
        have += int(keep.sum())
    return np.concatenate(out)[:m]


def nonempty(rng, anchors: np.ndarray, m: int) -> np.ndarray:
    """Lower bounds of ``m`` ranges that each contain a drawn anchor key."""
    k = anchors[rng.integers(0, anchors.size, m)].astype(np.int64)
    lo = k - rng.integers(0, RANGE_SIZE, m, dtype=np.int64)
    return np.clip(lo, 0, UNIVERSE - RANGE_SIZE).astype(np.uint64)


def _mix_counts(size: int) -> Tuple[int, int, int]:
    unc = int(round(size * MIX[0]))
    cor = int(round(size * MIX[1]))
    return unc, cor, size - unc - cor


def probe_batches(seed: int, sorted_keys: np.ndarray, sizes: List[int]) -> List[np.ndarray]:
    """Fresh, duplicate-free probe batches with the 45/45/10 mix.

    Returns one ``uint64`` lower-bound column per requested size; no
    lower bound repeats anywhere in the returned stream.
    """
    rng = _rng(seed, _TAG_PROBES)
    need = np.zeros(3, dtype=np.int64)
    for size in sizes:
        need += _mix_counts(size)
    pools = []
    for share, draw in enumerate((
        lambda m: uncorrelated_empty(rng, sorted_keys, m),
        lambda m: correlated_empty(rng, sorted_keys, m),
        lambda m: nonempty(rng, sorted_keys, m),
    )):
        pools.append(draw(int(need[share] * 1.15) + 64))
    # Global dedup: a lower bound may appear in one batch only, once.
    cat = np.concatenate(pools)
    owner = np.repeat(np.arange(3), [p.size for p in pools])
    _, first = np.unique(cat, return_index=True)
    keep = np.zeros(cat.size, dtype=bool)
    keep[first] = True
    pools = [cat[keep & (owner == share)] for share in range(3)]
    for share, pool in enumerate(pools):
        if pool.size < need[share]:
            raise RuntimeError("probe pool exhausted by deduplication")
    cursor = [0, 0, 0]
    batches = []
    for size in sizes:
        parts = []
        for share, count in enumerate(_mix_counts(size)):
            parts.append(pools[share][cursor[share]:cursor[share] + count])
            cursor[share] += count
        batch = np.concatenate(parts)
        batches.append(batch[rng.permutation(batch.size)])
    return batches


def zipf_hot_set(seed: int, sorted_keys: np.ndarray, n_hot: int) -> np.ndarray:
    """``n_hot`` distinct hot ranges in popularity order; even ranks
    contain a key, odd ranks are correlated empty ranges, so every seed
    sends the same share of its traffic to each kind."""
    rng = _rng(seed, _TAG_ZIPF)
    half = n_hot // 2
    # Draw extra and dedupe, so the hot set has exactly n_hot members.
    hot_full = np.unique(nonempty(rng, sorted_keys, half * 2))
    hot_full = hot_full[rng.permutation(hot_full.size)][:half]
    hot_empty = correlated_empty(rng, sorted_keys, (n_hot - half) * 2)
    hot_empty = np.setdiff1d(np.unique(hot_empty), hot_full)
    hot_empty = hot_empty[rng.permutation(hot_empty.size)][:n_hot - half]
    hot = np.empty(n_hot, dtype=np.uint64)
    hot[0::2] = hot_full
    hot[1::2] = hot_empty
    return hot


def zipf_batches(seed: int, hot: np.ndarray, sizes: List[int]) -> List[np.ndarray]:
    """Batches of ranges drawn from ``hot`` with Zipf(:data:`ZIPF_SKEW`)
    popularity by rank, so batches repeat ranges within and across each
    other."""
    rng = _rng(seed, _TAG_ZIPF_PICKS)
    weights = 1.0 / np.arange(1, hot.size + 1, dtype=np.float64) ** ZIPF_SKEW
    picks = hot[rng.choice(hot.size, size=sum(sizes), p=weights / weights.sum())]
    return np.split(picks, np.cumsum(sizes)[:-1])


# Mutation script opcodes.
PUT, DELETE = 0, 1


@dataclass(frozen=True)
class MutationScript:
    """The ingest script: ``ops[i]`` applied to ``keys[i]`` in order, and
    one probe range (``probes[b]``, a lower bound) after each block."""

    ops: np.ndarray     # uint8 PUT/DELETE
    keys: np.ndarray    # uint64 key per op
    block: int          # mutations between probe points
    probes: np.ndarray  # uint64 lower bound per block


def mutation_script(
    seed: int, preloaded_sorted: np.ndarray, *, blocks: int, block: int,
) -> MutationScript:
    """90% puts of fresh keys, 10% deletes of keys the script put earlier.

    The probes follow the 45/45/10 mix across blocks; a non-empty probe
    is anchored on a preloaded key or, half the time, on a key put in
    the block just before it, so reads also reach the memtable and
    freshly flushed runs.
    """
    rng = _rng(seed, _TAG_MUTATIONS)
    n = blocks * block
    ops = (rng.random(n) < DELETE_SHARE).astype(np.uint8)
    ops[0] = PUT
    put_pos = np.flatnonzero(ops == PUT)
    fresh = rng.integers(0, UNIVERSE, put_pos.size + put_pos.size // 8 + 64, dtype=np.uint64)
    fresh = np.unique(fresh)
    fresh = np.setdiff1d(fresh, preloaded_sorted, assume_unique=True)
    if fresh.size < put_pos.size:
        raise RuntimeError("fresh key pool too small")
    fresh = fresh[rng.permutation(fresh.size)[:put_pos.size]]
    keys = np.zeros(n, dtype=np.uint64)
    keys[put_pos] = fresh
    del_pos = np.flatnonzero(ops == DELETE)
    # Each delete targets a key put earlier: draw uniformly among the
    # puts that precede it.
    puts_before = np.searchsorted(put_pos, del_pos, side="left")
    pick = (rng.random(del_pos.size) * puts_before).astype(np.int64)
    keys[del_pos] = fresh[pick]
    unc, cor, ne = _mix_counts(blocks)
    kind = rng.permutation(np.repeat(np.arange(3), [unc, cor, ne]))
    probes = np.zeros(blocks, dtype=np.uint64)
    probes[kind == 0] = uncorrelated_empty(rng, preloaded_sorted, unc)
    probes[kind == 1] = correlated_empty(rng, preloaded_sorted, cor)
    for i, b in enumerate(np.flatnonzero(kind == 2).tolist()):
        span = slice(b * block, (b + 1) * block)
        recent = keys[span][ops[span] == PUT]
        anchors = recent if i % 2 and recent.size else preloaded_sorted
        probes[b] = nonempty(rng, anchors, 1)[0]
    return MutationScript(ops, keys, block, probes)


def empty_sweep(seed: int, sorted_keys: np.ndarray, n: int) -> np.ndarray:
    """``n`` fresh empty ranges, half uncorrelated and half correlated."""
    rng = _rng(seed, _TAG_SWEEP)
    half = n // 2
    los = np.unique(np.concatenate([
        uncorrelated_empty(rng, sorted_keys, half),
        correlated_empty(rng, sorted_keys, n - half),
    ]))
    return los[rng.permutation(los.size)]
