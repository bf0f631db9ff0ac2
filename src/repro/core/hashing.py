"""Hash functions used by Grafite (paper §3 and §7).

Two layers:

* :class:`PairwiseIndependentHash` — the classic Wegman-Carter family
  ``q(x) = ((c1 * x + c2) mod p) mod r`` with a prime ``p`` larger than
  both the domain and the codomain, giving (almost) pairwise independence;
* :class:`LocalityPreservingHash` — equation (1) of the paper,
  ``h(x) = (q(floor(x / r)) + x) mod r``, which hashes the *block* of a
  key and then shifts by the key itself, so keys in the same block of
  size ``r`` keep their relative distances. This is the property that
  makes range emptiness reducible to predecessor search on hash codes,
  with collision probability ``<= 1/r`` for distinct points (Lemma 3.1).

Scalar evaluation uses unbounded Python integers: the universe is up to
``2^64`` and ``c1 * x`` routinely exceeds 64 bits, which would silently
wrap in numpy. Batch evaluation (:meth:`PairwiseIndependentHash.hash_many`)
is vectorised wherever the modulus allows exact 64-bit arithmetic — plain
``uint64`` math when ``p = 2^31 - 1`` and a limb-split Mersenne reduction
when ``p = 2^61 - 1``, which together cover every block hash arising from
a 64-bit universe at practical filter parameters. Only the huge-prime
cases (string universes beyond ``2^64``) fall back to the per-element
Python loop. This matters because the columnar batch pipeline evaluates
one block hash per *distinct query block*: under uniform workloads that
is one evaluation per query, so a Python fallback there would put a
per-query interpreter loop back into the hot path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import InvalidParameterError

#: Candidate Mersenne primes for the modulus, in increasing order. The
#: family needs ``p`` greater than the domain size; 2^127 - 1 covers any
#: block index arising from a 64-bit universe (and 128-bit string spaces).
_MERSENNE_PRIMES = (
    2**31 - 1,
    2**61 - 1,
    2**89 - 1,
    2**107 - 1,
    2**127 - 1,
    2**521 - 1,
)


def choose_prime(minimum: int) -> int:
    """Return the smallest candidate Mersenne prime strictly above ``minimum``."""
    for p in _MERSENNE_PRIMES:
        if p > minimum:
            return p
    raise InvalidParameterError(f"no candidate prime above {minimum}")


_M61 = np.uint64((1 << 61) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)


def _mulmod_m61(a: int, b: np.ndarray) -> np.ndarray:
    """Vectorised ``(a * b) mod (2^61 - 1)`` for ``a, b < 2^61``.

    Splits both operands into 32-bit limbs so every partial product fits
    a ``uint64``, then folds the power-of-two weights through the
    Mersenne identity ``2^61 ≡ 1``:

    ``a*b = hh*2^64 + mid*2^32 + ll`` with ``hh < 2^58``, ``mid < 2^62``,
    ``ll < 2^64``; ``2^64 ≡ 8`` and ``mid*2^32 ≡ (mid >> 29) +
    ((mid & (2^29-1)) << 32)``, each term below ``2^61``-ish, so the sum
    stays below ``2^63`` and one exact ``% p`` finishes the reduction.
    """
    a_hi = np.uint64(a >> 32)
    a_lo = np.uint64(a & 0xFFFFFFFF)
    b_hi = b >> np.uint64(32)
    b_lo = b & _MASK32
    hh = a_hi * b_hi
    mid = a_hi * b_lo + a_lo * b_hi
    ll = b_lo * a_lo
    term_hh = hh * np.uint64(8)  # hh < 2^58, so the product stays below 2^61
    term_mid = (mid >> np.uint64(29)) + ((mid & _MASK29) << np.uint64(32))
    term_ll = (ll & _M61) + (ll >> np.uint64(61))
    return (term_hh + term_mid + term_ll) % _M61


class PairwiseIndependentHash:
    """``q(x) = ((c1 * x + c2) mod p) mod r`` with random ``c1 != 0, c2``.

    Parameters
    ----------
    codomain:
        The size ``r`` of the output range ``[0, r)``.
    domain:
        Exclusive upper bound of inputs; used only to pick ``p`` large
        enough for the pairwise-independence argument.
    seed:
        Seeds the draw of ``(c1, c2)``; constructions are reproducible.
    """

    __slots__ = ("_r", "_p", "_c1", "_c2")

    def __init__(self, codomain: int, domain: int = 2**64, seed: Optional[int] = None) -> None:
        if codomain <= 0:
            raise InvalidParameterError(f"codomain must be positive, got {codomain}")
        if domain <= 0:
            raise InvalidParameterError(f"domain must be positive, got {domain}")
        self._r = int(codomain)
        self._p = choose_prime(max(self._r, domain))
        rng = np.random.default_rng(seed)
        # Draw below 2^63 chunks and join, so c1/c2 span the whole [0, p).
        def draw_mod_p() -> int:
            value = 0
            for _ in range(0, self._p.bit_length(), 63):
                value = (value << 63) | int(rng.integers(0, 2**63))
            return value % self._p

        self._c1 = 1 + draw_mod_p() % (self._p - 1)  # never 0
        self._c2 = draw_mod_p()

    @property
    def codomain(self) -> int:
        return self._r

    @property
    def parameters(self) -> tuple[int, int, int]:
        """``(p, c1, c2)`` — exposed for tests and serialisation."""
        return self._p, self._c1, self._c2

    def __call__(self, x: int) -> int:
        return ((self._c1 * int(x) + self._c2) % self._p) % self._r

    def hash_many(self, xs: np.ndarray | Sequence[int]) -> np.ndarray:
        """Vectorised ``q`` over a column of inputs (< domain each).

        Exact for every modulus: ``p = 2^31 - 1`` fits plain ``uint64``
        arithmetic (``c1 * x + c2 < 2^62``), ``p = 2^61 - 1`` goes through
        the limb-split Mersenne reduction, and larger primes (only
        reachable from beyond-64-bit string universes) fall back to the
        per-element Python evaluation.
        """
        xs = np.asarray(xs, dtype=np.uint64)
        if xs.size == 0:
            return np.zeros(0, dtype=np.uint64)
        r = np.uint64(self._r)
        if self._p <= 2**31 - 1:
            out = (np.uint64(self._c1) * xs + np.uint64(self._c2)) % np.uint64(self._p)
            return out % r
        if self._p == 2**61 - 1:
            out = (_mulmod_m61(self._c1, xs) + np.uint64(self._c2)) % _M61
            return out % r
        return np.fromiter(
            (self(int(x)) for x in xs), dtype=np.uint64, count=xs.size
        )


def _block_offsets(q: PairwiseIndependentHash, blocks: np.ndarray) -> np.ndarray:
    """``q(b)`` for every entry ``b`` of a non-empty ``uint64`` block
    column, evaluating ``q`` once per distinct block.

    Sorted blocks (every filter build hashes sorted keys) form runs, so a
    neighbour mask finds the distinct blocks and its cumsum maps each
    entry to its run; any other column is grouped in sorted order and
    its offsets scattered back to the caller's order.
    """
    if not (blocks[1:] >= blocks[:-1]).all():
        order = np.argsort(blocks, kind="stable")
        offsets = np.empty_like(blocks)
        offsets[order] = _block_offsets(q, blocks[order])
        return offsets
    first = np.empty(blocks.size, dtype=bool)
    first[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=first[1:])
    return q.hash_many(blocks[first])[np.cumsum(first) - 1]


class LocalityPreservingHash:
    """Equation (1): ``h(x) = (q(floor(x / r)) + x) mod r``.

    Within a block of ``r`` consecutive universe values, ``h`` is a cyclic
    shift — it preserves distances modulo ``r``. Distinct points collide
    with probability at most ``1/r`` over the draw of ``q`` ([18, Lemma
    3.1]), which is what drives Grafite's FPR bound.
    """

    __slots__ = ("_r", "_q")

    def __init__(self, reduced_universe: int, domain: int = 2**64, seed: Optional[int] = None) -> None:
        if reduced_universe <= 0:
            raise InvalidParameterError(
                f"reduced universe must be positive, got {reduced_universe}"
            )
        self._r = int(reduced_universe)
        block_count = domain // self._r + 1
        self._q = PairwiseIndependentHash(self._r, domain=block_count, seed=seed)

    @property
    def reduced_universe(self) -> int:
        return self._r

    @property
    def block_hash(self) -> PairwiseIndependentHash:
        return self._q

    def __call__(self, x: int) -> int:
        x = int(x)
        return (self._q(x // self._r) + x) % self._r

    def hash_block(self, block: int) -> int:
        """The per-block offset ``q(block)`` (each block is a cyclic shift)."""
        return self._q(block)

    def hash_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`hash_block` over a column of block indices."""
        return self._q.hash_many(blocks)

    def hash_many(self, keys: Sequence[int] | np.ndarray | Iterable[int]) -> np.ndarray:
        """Hash a batch of keys; returns an (unsorted) ``uint64`` array.

        Keys in the same block share one evaluation of ``q``, so the batch
        cost is one modular multiply per *distinct block* plus O(1) per key.
        """
        r = self._r
        if isinstance(keys, np.ndarray) and keys.dtype == np.uint64 and keys.size:
            # Vectorised path: valid whenever offset + key cannot wrap the
            # 64-bit modulus (offsets are < r).
            if r < 2**63 and int(keys.max()) <= 2**64 - 1 - r:
                offsets = _block_offsets(self._q, keys // np.uint64(r))
                return (offsets + keys) % np.uint64(r)
        values = keys.tolist() if isinstance(keys, np.ndarray) else [int(x) for x in keys]
        if not values:
            return np.zeros(0, dtype=np.uint64)
        blocks = [x // r for x in values]
        offsets = {b: self._q(b) for b in set(blocks)}
        codes = [(offsets[b] + x) % r for b, x in zip(blocks, values)]
        return np.asarray(codes, dtype=np.uint64)


class PowerOfTwoLocalityHash:
    """The §7 string-friendly variant: ``h(x) = (q(x >> k) + x) & (r - 1)``.

    Requires ``r = 2^k``; the floor-division and modulo of equation (1)
    become a shift and a mask, which is the form the paper suggests for
    extending Grafite to string keys.
    """

    __slots__ = ("_r", "_k", "_q")

    def __init__(self, log2_reduced_universe: int, domain: int = 2**64, seed: Optional[int] = None) -> None:
        if log2_reduced_universe < 0:
            raise InvalidParameterError("log2 of the reduced universe must be >= 0")
        self._k = int(log2_reduced_universe)
        self._r = 1 << self._k
        block_count = (domain >> self._k) + 1
        self._q = PairwiseIndependentHash(self._r, domain=block_count, seed=seed)

    @property
    def reduced_universe(self) -> int:
        return self._r

    def __call__(self, x: int) -> int:
        x = int(x)
        return (self._q(x >> self._k) + x) & (self._r - 1)

    def hash_block(self, block: int) -> int:
        return self._q(block)

    def hash_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`hash_block` over a column of block indices."""
        return self._q.hash_many(blocks)

    def hash_many(self, keys: Sequence[int] | np.ndarray | Iterable[int]) -> np.ndarray:
        """Hash a batch of keys; returns an (unsorted) ``uint64`` array.

        A ``uint64`` column is grouped by block as in
        :meth:`LocalityPreservingHash.hash_many`, with a shift for the
        block and a mask for the modulo. A sum past ``2^64`` wraps only
        bits the mask drops, so every key takes that path; other inputs
        (big-integer string spaces) hash key by key.
        """
        if (isinstance(keys, np.ndarray) and keys.dtype == np.uint64
                and keys.size and self._k < 64):
            offsets = _block_offsets(self._q, keys >> np.uint64(self._k))
            return (offsets + keys) & np.uint64(self._r - 1)
        keys = [int(x) for x in keys]
        offsets = {b: self._q(b) for b in {x >> self._k for x in keys}}
        mask = self._r - 1
        return np.asarray(
            [(offsets[x >> self._k] + x) & mask for x in keys], dtype=np.uint64
        )
