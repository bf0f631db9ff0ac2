"""Fixed-width integer arrays packed into 64-bit words.

This is the storage used for the Elias-Fano "low parts" vector ``V`` of the
paper (§3): ``n`` cells of ``l`` bits each, addressable in O(1). Packing
and bulk extraction are vectorised with numpy; single-cell access uses
plain Python integers (two word reads at most, as a C implementation
would).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidParameterError

_WORD_BITS = 64


class PackedIntVector:
    """An immutable array of ``n`` unsigned integers of ``width`` bits each.

    Parameters
    ----------
    width:
        Bit width of each cell, ``0 <= width <= 64``. Width 0 is the
        degenerate case where every stored value is 0 and no space is used
        (it occurs in Elias-Fano whenever ``u <= n``).
    values:
        The integers to store; each must fit in ``width`` bits.
    """

    __slots__ = ("_width", "_n", "_words")

    def __init__(self, width: int, values: Sequence[int] | np.ndarray) -> None:
        if not 0 <= width <= 64:
            raise InvalidParameterError(f"cell width must be in [0, 64], got {width}")
        vals = np.asarray(values, dtype=np.uint64)
        self._width = int(width)
        self._n = int(vals.size)
        if width == 0:
            if vals.size and int(vals.max()) != 0:
                raise InvalidParameterError("width-0 vector can only store zeros")
            self._words = np.zeros(0, dtype=np.uint64)
            return
        if vals.size and width < 64 and int(vals.max()) >> width:
            raise InvalidParameterError(f"value does not fit in {width} bits")
        total_bits = self._n * width
        # One spare word so the spill write below never needs a bounds check.
        num_words = (total_bits + _WORD_BITS - 1) // _WORD_BITS + 1
        words = np.zeros(num_words, dtype=np.uint64)
        if self._n:
            bit_pos = np.arange(self._n, dtype=np.int64) * width
            word_idx = bit_pos // _WORD_BITS
            offsets = (bit_pos % _WORD_BITS).astype(np.uint64)
            np.bitwise_or.at(words, word_idx, vals << offsets)
            spills = (offsets.astype(np.int64) + width) > _WORD_BITS
            if spills.any():
                # When a cell straddles a word boundary, its offset is >= 1,
                # so the right shift below is by 1..63 bits — always defined.
                spill_shift = np.uint64(_WORD_BITS) - offsets[spills]
                np.bitwise_or.at(words, word_idx[spills] + 1, vals[spills] >> spill_shift)
        self._words = words

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def width(self) -> int:
        return self._width

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"index {i} out of range [0, {self._n})")
        if self._width == 0:
            return 0
        bit_pos = i * self._width
        word_idx, offset = divmod(bit_pos, _WORD_BITS)
        value = self._words.item(word_idx) >> offset
        if offset + self._width > _WORD_BITS:
            value |= self._words.item(word_idx + 1) << (_WORD_BITS - offset)
        return value & ((1 << self._width) - 1)

    def get_many(self, indices: Iterable[int]) -> np.ndarray:
        """Vectorised multi-cell read; returns a ``uint64`` array."""
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices)
        if idx.size == 0:
            return np.zeros(0, dtype=np.uint64)
        idx = idx.astype(np.int64, copy=False)
        if idx.min() < 0 or idx.max() >= self._n:
            raise IndexError("index out of range in get_many")
        if self._width == 0:
            return np.zeros(idx.size, dtype=np.uint64)
        bit_pos = idx * self._width
        word_idx = bit_pos // _WORD_BITS
        offsets = (bit_pos % _WORD_BITS).astype(np.uint64)
        values = self._words[word_idx] >> offsets
        spills = (offsets.astype(np.int64) + self._width) > _WORD_BITS
        if spills.any():
            spill_shift = np.uint64(_WORD_BITS) - offsets[spills]
            values[spills] |= self._words[word_idx[spills] + 1] << spill_shift
        if self._width < 64:
            values &= np.uint64((1 << self._width) - 1)
        return values

    def __iter__(self) -> Iterator[int]:
        if self._n:
            yield from (int(v) for v in self.get_many(np.arange(self._n)))

    @property
    def size_in_bits(self) -> int:
        """Payload size: ``n * width`` bits."""
        return self._n * self._width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedIntVector(n={self._n}, width={self._width})"
