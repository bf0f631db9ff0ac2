"""A plain bit vector backed by numpy 64-bit words.

The bit vector is the lowest-level substrate in this library: Elias-Fano
high parts (Grafite §3), the Bucketing occupancy vector (§4), Bloom filter
slots, the LOUDS-Sparse encoding of the Fast Succinct Trie (SuRF, Proteus)
and the SNARF / REncoder bit arrays are all stored in instances of
:class:`BitVector`.

Bits are addressed ``0 .. len-1``; bit ``i`` lives in word ``i // 64`` at
in-word offset ``i % 64`` (little-endian within the word). The structure is
mutable so constructions can fill it in place; rank/select support is added
by freezing it into a :class:`~repro.succinct.rank_select.RankSelect`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import InvalidParameterError

_WORD_BITS = 64

# Per-byte popcount table; numpy < 2.0 has no bitwise_count ufunc, so we
# popcount through a uint8 view and a 256-entry lookup.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint32)

#: True when numpy provides the hardware-popcount ufunc (numpy >= 2.0).
HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _popcount_words_table(words: np.ndarray) -> np.ndarray:
    """Table-walk fallback: popcount through a uint8 view and a lookup."""
    as_bytes = words.view(np.uint8).reshape(-1, 8)
    return _POPCOUNT8[as_bytes].sum(axis=1, dtype=np.uint64)


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Return the per-word population counts of a ``uint64`` array.

    Uses ``np.bitwise_count`` (a single hardware-popcount ufunc call) on
    numpy >= 2.0 and falls back to the per-byte table walk otherwise;
    both paths return ``uint64`` counts.
    """
    if words.dtype != np.uint64:
        raise InvalidParameterError("popcount_words expects a uint64 array")
    if HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.uint64)
    return _popcount_words_table(words)


class BitVector:
    """A fixed-length, mutable array of bits.

    Parameters
    ----------
    length:
        Number of addressable bits. May be zero.

    Notes
    -----
    ``size_in_bits`` reports the *payload* size (``length`` bits); the
    numpy word array rounds up to a multiple of 64, which is the same
    padding a C implementation would have.
    """

    __slots__ = ("_length", "_words")

    def __init__(self, length: int) -> None:
        if length < 0:
            raise InvalidParameterError(f"bit vector length must be >= 0, got {length}")
        self._length = int(length)
        self._words = np.zeros((self._length + _WORD_BITS - 1) // _WORD_BITS, dtype=np.uint64)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(cls, length: int, positions: Iterable[int]) -> "BitVector":
        """Build a bit vector of ``length`` bits with the given bits set.

        ``positions`` may contain duplicates; they are idempotent.
        """
        bv = cls(length)
        pos = np.asarray(list(positions) if not isinstance(positions, np.ndarray) else positions)
        if pos.size == 0:
            return bv
        pos = pos.astype(np.int64, copy=False)
        if pos.min() < 0 or pos.max() >= length:
            raise InvalidParameterError("bit position out of range")
        words = (pos // _WORD_BITS).astype(np.int64)
        masks = np.left_shift(np.uint64(1), (pos % _WORD_BITS).astype(np.uint64))
        np.bitwise_or.at(bv._words, words, masks)
        return bv

    @classmethod
    def from_bools(cls, bits: Iterable[bool]) -> "BitVector":
        """Build a bit vector from an iterable of booleans."""
        flags = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits, dtype=bool)
        bv = cls(flags.size)
        if flags.any():
            set_positions = np.flatnonzero(flags)
            words = set_positions // _WORD_BITS
            masks = np.left_shift(np.uint64(1), (set_positions % _WORD_BITS).astype(np.uint64))
            np.bitwise_or.at(bv._words, words, masks)
        return bv

    # ------------------------------------------------------------------
    # Bit access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._length:
            raise IndexError(f"bit index {i} out of range [0, {self._length})")

    def __getitem__(self, i: int) -> bool:
        self._check_index(i)
        word = int(self._words[i // _WORD_BITS])
        return bool((word >> (i % _WORD_BITS)) & 1)

    def set(self, i: int, value: bool = True) -> None:
        """Set (or clear) bit ``i``."""
        self._check_index(i)
        mask = np.uint64(1) << np.uint64(i % _WORD_BITS)
        if value:
            self._words[i // _WORD_BITS] |= mask
        else:
            self._words[i // _WORD_BITS] &= ~mask

    def set_many(self, positions: Iterable[int]) -> None:
        """Set all bits at ``positions`` (vectorised; duplicates allowed)."""
        pos = np.asarray(list(positions) if not isinstance(positions, np.ndarray) else positions)
        if pos.size == 0:
            return
        pos = pos.astype(np.int64, copy=False)
        if pos.min() < 0 or pos.max() >= self._length:
            raise InvalidParameterError("bit position out of range")
        words = pos // _WORD_BITS
        masks = np.left_shift(np.uint64(1), (pos % _WORD_BITS).astype(np.uint64))
        np.bitwise_or.at(self._words, words, masks)

    def get_many(self, positions: Iterable[int]) -> np.ndarray:
        """Return a boolean array with the values of the requested bits."""
        pos = np.asarray(list(positions) if not isinstance(positions, np.ndarray) else positions)
        if pos.size == 0:
            return np.zeros(0, dtype=bool)
        pos = pos.astype(np.int64, copy=False)
        if pos.min() < 0 or pos.max() >= self._length:
            raise InvalidParameterError("bit position out of range")
        words = self._words[pos // _WORD_BITS]
        shifts = (pos % _WORD_BITS).astype(np.uint64)
        return ((words >> shifts) & np.uint64(1)).astype(bool)

    def any_in_range(self, lo: int, hi: int) -> bool:
        """Return ``True`` iff some bit in the inclusive range ``[lo, hi]`` is set.

        Used by SNARF-style bit-array probes. Runs over whole words, so the
        cost is ``O((hi - lo) / 64)`` word operations.
        """
        if lo > hi:
            return False
        lo = max(lo, 0)
        hi = min(hi, self._length - 1)
        if lo > hi:
            return False
        first_word, last_word = lo // _WORD_BITS, hi // _WORD_BITS
        lo_off = lo % _WORD_BITS
        hi_off = hi % _WORD_BITS
        if first_word == last_word:
            mask = ((np.uint64(0xFFFFFFFFFFFFFFFF) >> np.uint64(_WORD_BITS - 1 - hi_off))
                    & (np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(lo_off)))
            return bool(self._words[first_word] & mask)
        head = self._words[first_word] >> np.uint64(lo_off)
        if head:
            return True
        tail_mask = np.uint64(0xFFFFFFFFFFFFFFFF) >> np.uint64(_WORD_BITS - 1 - hi_off)
        if self._words[last_word] & tail_mask:
            return True
        middle = self._words[first_word + 1:last_word]
        return bool(middle.any())

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Return the number of set bits."""
        return int(popcount_words(self._words).sum())

    def iter_set_positions(self) -> Iterator[int]:
        """Yield the positions of set bits in increasing order."""
        for word_index in np.flatnonzero(self._words):
            word = int(self._words[word_index])
            base = int(word_index) * _WORD_BITS
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    @property
    def words(self) -> np.ndarray:
        """The backing ``uint64`` word array (shared, not a copy)."""
        return self._words

    @property
    def size_in_bits(self) -> int:
        """Payload size in bits (excludes word padding)."""
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector(length={self._length}, ones={self.count()})"
