"""Exact verdict oracle: the benchmark's own sorted key set.

Every key the benchmark ever stores is kept in one sorted column with
the script position that made it live (``born``) and the first position
that deleted it (``died``; never for keys no script deletes). The live
set after ``t`` applied mutations is then every key with
``born < t <= died``, so a range verdict at any point of the script is
one ``searchsorted`` pair plus an interval test — the same answer a
sorted live-key set with the mutations applied in order would give,
without copying that set at every probe point.
"""

from __future__ import annotations

import numpy as np

from gen import DELETE, PUT, RANGE_SIZE

NEVER = np.iinfo(np.int64).max


class Oracle:
    def __init__(self, preloaded: np.ndarray, ops=None, keys=None) -> None:
        pre = np.asarray(preloaded, dtype=np.uint64)
        all_keys = [pre]
        born = [np.full(pre.size, -1, dtype=np.int64)]
        died = [np.full(pre.size, NEVER, dtype=np.int64)]
        if ops is not None:
            ops = np.asarray(ops)
            keys = np.asarray(keys, dtype=np.uint64)
            put_pos = np.flatnonzero(ops == PUT)
            put_keys = keys[put_pos]
            if np.unique(put_keys).size != put_keys.size or np.intersect1d(put_keys, pre).size:
                raise ValueError("the oracle expects every put to store a fresh key")
            order = np.argsort(put_keys)
            put_keys, put_pos = put_keys[order], put_pos[order]
            first_death = np.full(put_keys.size, NEVER, dtype=np.int64)
            del_pos = np.flatnonzero(ops == DELETE)
            victim = np.searchsorted(put_keys, keys[del_pos])
            if victim.size and not np.array_equal(put_keys[np.minimum(victim, put_keys.size - 1)], keys[del_pos]):
                raise ValueError("the oracle expects deletes of keys the script put")
            # Deletes are scanned in script order; the first one wins.
            np.minimum.at(first_death, victim, del_pos)
            if np.any(first_death < put_pos):
                raise ValueError("a delete precedes the put of its key")
            all_keys.append(put_keys)
            born.append(put_pos)
            died.append(first_death)
        keys_all = np.concatenate(all_keys)
        order = np.argsort(keys_all, kind="stable")
        self.keys = keys_all[order]
        self.born = np.concatenate(born)[order]
        self.died = np.concatenate(died)[order]

    def empty(self, los: np.ndarray, t: int = NEVER) -> np.ndarray:
        """Exact emptiness of each ``[lo, lo + RANGE_SIZE - 1]`` after ``t``
        applied mutations (default: with no mutation script, all keys)."""
        los = np.asarray(los, dtype=np.uint64)
        his = los + np.uint64(RANGE_SIZE - 1)
        start = np.searchsorted(self.keys, los, side="left")
        stop = np.searchsorted(self.keys, his, side="right")
        out = start == stop
        # Ranges holding some key ever stored are empty when none of
        # those keys is live at ``t``: test each stored key of each such
        # range, then count the live ones per range.
        hit = np.flatnonzero(~out)
        if hit.size:
            counts = stop[hit] - start[hit]
            offsets = np.cumsum(counts) - counts
            idx = np.arange(counts.sum()) + np.repeat(start[hit] - offsets, counts)
            live = (self.born[idx] < t) & (t <= self.died[idx])
            out[hit] = np.add.reduceat(live.astype(np.int64), offsets) == 0
        return out

    def live_count(self, t: int = NEVER) -> int:
        return int(np.count_nonzero((self.born < t) & (t <= self.died)))


def wrong_verdicts(got: np.ndarray, expected: np.ndarray) -> int:
    """Number of positions where the program disagreed with the oracle."""
    got = np.asarray(got, dtype=bool)
    if got.shape != expected.shape:
        return int(expected.size)
    return int(np.count_nonzero(got != expected))
