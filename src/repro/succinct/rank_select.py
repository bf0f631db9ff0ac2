"""Constant-time rank and select over a frozen bit vector.

This is the classic Jacobson/Clark design [8, 20 in the paper] in its
word-RAM practical form: per-word cumulative population counts give
``rank`` in O(1), and ``select`` first locates the word with a search over
the (monotone) cumulative counts, then walks the word byte by byte with a
precomputed select-in-byte table.

In a C implementation the auxiliary arrays are the ``o(n)`` overhead the
paper's space bounds refer to; :attr:`RankSelect.index_size_in_bits`
reports what we actually allocate so benches can account for it honestly.

Every operation is scalar: it serves the paper's per-query predecessor
(:meth:`EliasFano.predecessor`) and the FST's trie walk. Batch filter
probes do not come here — they search a run's decoded codes
(:meth:`EliasFano.contains_in_range_batch`).
"""

from __future__ import annotations

import numpy as np

from repro.succinct.bitvector import BitVector, _POPCOUNT8, popcount_words

_WORD_BITS = 64


def _build_select_in_byte_table() -> np.ndarray:
    """``table[b, k]`` = offset of the (k+1)-th set bit of byte ``b`` (8 if absent)."""
    table = np.full((256, 8), 8, dtype=np.uint8)
    for byte in range(256):
        k = 0
        for offset in range(8):
            if (byte >> offset) & 1:
                table[byte, k] = offset
                k += 1
    return table


_SELECT8 = _build_select_in_byte_table()


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

    __slots__ = ("_bv", "_cum1", "_cum0", "_num_ones", "_num_zeros")

    def __init__(self, bitvector: BitVector) -> None:
        self._bv = bitvector
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
        total = int(self._cum1[word_index])
        if offset:
            word = int(self._bv.words[word_index]) & ((1 << offset) - 1)
            total += bin(word).count("1")
        return total

    def rank0(self, i: int) -> int:
        """Number of clear bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    # ------------------------------------------------------------------
    # Select
    # ------------------------------------------------------------------
    def _select_in_word(self, word: int, k: int) -> int:
        """Offset of the (k+1)-th set bit inside a 64-bit ``word``."""
        offset = 0
        while True:
            byte = word & 0xFF
            count = int(_POPCOUNT8[byte])
            if k < count:
                return offset + int(_SELECT8[byte, k])
            k -= count
            word >>= 8
            offset += 8

    def select1(self, k: int) -> int:
        """Position of the (k+1)-th set bit (``k`` is 0-indexed)."""
        if not 0 <= k < self._num_ones:
            raise IndexError(f"select1 argument {k} out of range [0, {self._num_ones})")
        word_index = int(np.searchsorted(self._cum1, k, side="right")) - 1
        in_word_rank = k - int(self._cum1[word_index])
        word = int(self._bv.words[word_index])
        return word_index * _WORD_BITS + self._select_in_word(word, in_word_rank)

    def select0(self, k: int) -> int:
        """Position of the (k+1)-th clear bit (``k`` is 0-indexed)."""
        if not 0 <= k < self._num_zeros:
            raise IndexError(f"select0 argument {k} out of range [0, {self._num_zeros})")
        zeros_cum = self._zeros_cum()
        word_index = int(np.searchsorted(zeros_cum, k, side="right")) - 1
        in_word_rank = k - int(zeros_cum[word_index])
        word = (~int(self._bv.words[word_index])) & 0xFFFFFFFFFFFFFFFF
        return word_index * _WORD_BITS + self._select_in_word(word, in_word_rank)

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
