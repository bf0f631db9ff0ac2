"""Constant-time rank and select over a frozen bit vector.

This is the classic Jacobson/Clark design [8, 20 in the paper] in its
word-RAM practical form: per-word cumulative population counts give
``rank`` in O(1), and ``select`` first locates the word with a search over
the (monotone) cumulative counts, then finds the bit inside the word by
halving it with ``int.bit_count`` down to one byte and reading a
precomputed select-in-byte table. :meth:`RankSelect.next_zero` scans to
the end of a run of ones without any search, which is how Elias-Fano
finds a bucket's end once ``select0`` has found its start.

In a C implementation the auxiliary arrays are the ``o(n)`` overhead the
paper's space bounds refer to; :attr:`RankSelect.index_size_in_bits`
reports what we actually allocate so benches can account for it honestly.

Every operation is scalar: it serves the paper's per-query predecessor
(:meth:`EliasFano.predecessor`) and the FST's trie walk. Batch filter
probes do not come here — they search a run's decoded codes
(:meth:`EliasFano.contains_in_range_batch`). A scalar call reads words
as Python ints (``ndarray.item``) and its tables are Python ``bytes``,
so it pays no numpy scalar overhead past the one word search.
"""

from __future__ import annotations

import numpy as np

from repro.succinct.bitvector import BitVector, popcount_words

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1


def _build_select_in_byte_table() -> bytes:
    """``table[8 * b + k]`` = offset of the (k+1)-th set bit of byte ``b`` (8 if absent)."""
    table = bytearray([8]) * (256 * 8)
    for byte in range(256):
        k = 0
        for offset in range(8):
            if (byte >> offset) & 1:
                table[8 * byte + k] = offset
                k += 1
    return bytes(table)


_SELECT8 = _build_select_in_byte_table()


def _select_in_word(word: int, k: int) -> int:
    """Offset of the (k+1)-th set bit inside a 64-bit ``word`` (it must exist).

    Halves the word three times with ``int.bit_count`` to the byte that
    holds the bit, then reads the select-in-byte table.
    """
    offset = 0
    for half in (32, 16, 8):
        count = (word & ((1 << half) - 1)).bit_count()
        if k >= count:
            k -= count
            word >>= half
            offset += half
    return offset + _SELECT8[8 * (word & 0xFF) + k]


class RankSelect:
    """Rank/select support structure over a :class:`BitVector`.

    The underlying bit vector must not be mutated after this structure is
    built; the cumulative counts would go stale silently.

    Operations (all 0-indexed):

    * ``rank1(i)`` — number of set bits in positions ``[0, i)``;
    * ``rank0(i)`` — number of clear bits in positions ``[0, i)``;
    * ``select1(k)`` — position of the (k+1)-th set bit;
    * ``select0(k)`` — position of the (k+1)-th clear bit.
    """

    __slots__ = ("_bv", "_words", "_cum1", "_cum0", "_num_ones", "_num_zeros")

    def __init__(self, bitvector: BitVector) -> None:
        self._bv = bitvector
        self._words = bitvector.words  # the vector's own array, not a copy
        pops = popcount_words(bitvector.words)
        self._cum1 = np.concatenate(([0], np.cumsum(pops, dtype=np.int64)))
        self._cum0 = None  # zeros-before-word counts, built on first select0
        ones = int(self._cum1[-1])
        # Padding bits in the last word are zero, so they never inflate the
        # ones count; zeros are defined over the payload length only.
        self._num_ones = ones
        self._num_zeros = len(bitvector) - ones

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bitvector(self) -> BitVector:
        return self._bv

    @property
    def num_ones(self) -> int:
        return self._num_ones

    @property
    def num_zeros(self) -> int:
        return self._num_zeros

    @property
    def index_size_in_bits(self) -> int:
        """Bits allocated by the auxiliary rank index (the ``o(n)`` term)."""
        return self._cum1.size * 64

    # ------------------------------------------------------------------
    # Rank
    # ------------------------------------------------------------------
    def rank1(self, i: int) -> int:
        """Number of set bits in positions ``[0, i)``; ``i`` may equal ``len``."""
        if not 0 <= i <= len(self._bv):
            raise IndexError(f"rank position {i} out of range [0, {len(self._bv)}]")
        word_index, offset = divmod(i, _WORD_BITS)
        total = self._cum1.item(word_index)
        if offset:
            total += (self._words.item(word_index) & ((1 << offset) - 1)).bit_count()
        return total

    def rank0(self, i: int) -> int:
        """Number of clear bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    # ------------------------------------------------------------------
    # Select
    # ------------------------------------------------------------------
    def select1(self, k: int) -> int:
        """Position of the (k+1)-th set bit (``k`` is 0-indexed)."""
        if not 0 <= k < self._num_ones:
            raise IndexError(f"select1 argument {k} out of range [0, {self._num_ones})")
        cum1 = self._cum1
        word_index = int(cum1.searchsorted(k, side="right")) - 1
        word = self._words.item(word_index)
        return word_index * _WORD_BITS + _select_in_word(word, k - cum1.item(word_index))

    def select0(self, k: int) -> int:
        """Position of the (k+1)-th clear bit (``k`` is 0-indexed)."""
        if not 0 <= k < self._num_zeros:
            raise IndexError(f"select0 argument {k} out of range [0, {self._num_zeros})")
        zeros_cum = self._zeros_cum()
        word_index = int(zeros_cum.searchsorted(k, side="right")) - 1
        word = ~self._words.item(word_index) & _WORD_MASK
        return word_index * _WORD_BITS + _select_in_word(word, k - zeros_cum.item(word_index))

    def next_zero(self, i: int) -> int:
        """Position of the first clear bit at or after ``i``.

        No search: it scans word by word from ``i``, so it costs one word
        read when the run of ones starting at ``i`` is short. Raises
        ``IndexError`` when no clear bit follows.
        """
        size = len(self._bv)
        if not 0 <= i < size:
            raise IndexError(f"next_zero position {i} out of range [0, {size})")
        while True:
            offset = i & (_WORD_BITS - 1)
            # The word's clear bits from ``offset`` up, as set bits; past
            # bit 63 the inverted Python int is all ones, so a word with
            # no clear bit left moves ``i`` to the next word's start.
            clear = ~self._words.item(i >> 6) >> offset
            step = (clear & -clear).bit_length() - 1
            i += step
            if step < _WORD_BITS - offset or i >= size:
                break
        if i >= size:  # only padding zeros follow
            raise IndexError("no clear bit at or after the position")
        return i

    def _zeros_cum(self) -> np.ndarray:
        """Zeros before each word boundary (lazy companion of ``_cum1``;
        monotone, so ``select0`` locates its word with one search)."""
        if self._cum0 is None:
            self._cum0 = (
                np.arange(self._cum1.size, dtype=np.int64) * _WORD_BITS - self._cum1
            )
        return self._cum0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankSelect(len={len(self._bv)}, ones={self._num_ones})"
