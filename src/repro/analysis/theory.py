"""Closed-form space/time bounds of Table 1 and the §5 comparison.

Each function evaluates one row of Table 1 for concrete parameters, so
the Table 1 benchmark can print the paper's summary and cross-check the
bounds against the *measured* sizes of our implementations. Time bounds
are kept as strings (they are asymptotic classes, not numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import InvalidParameterError


def log2(x: float) -> float:
    if x <= 0:
        raise ValueError(f"log2 domain error: {x}")
    return math.log2(x)


# ----------------------------------------------------------------------
# FPR-bounded structures
# ----------------------------------------------------------------------
def lower_bound_bits(n: int, L: int, eps: float) -> float:
    """Theorem 2.1: ``n log2(L^(1-O(eps)) / eps) - O(n)`` (O() terms at 0)."""
    return n * log2(L ** (1.0 - eps) / eps)


def trivial_baseline_bits(n: int, L: int, eps: float) -> float:
    """§2 trivial solution: point filter with gamma = eps/L."""
    return n * log2(L / eps) + 1.44 * n  # O(n) term: Bloom's 44% overhead


def goswami_bits(n: int, L: int, eps: float) -> float:
    """Goswami et al.: ``n log2(L/eps) + 3n + o(n log(L/eps))``."""
    return n * log2(L / eps) + 3 * n


def grafite_bits(n: int, L: int, eps: float) -> float:
    """Theorem 3.4: ``n log2(L/eps) + 2n + o(n)``."""
    return n * log2(L / eps) + 2 * n


def rosetta_bits(n: int, L: int, eps: float) -> float:
    """[25, §3.1] tuning: ``1.44 n log2(L/eps)``."""
    return 1.44 * n * log2(L / eps)


# ----------------------------------------------------------------------
# Heuristic structures
# ----------------------------------------------------------------------
def surf_bits(n: int, z: int, m: int) -> float:
    """SuRF LOUDS-Sparse: ``(10 + m) n + 10 z + o(n + z)``."""
    return (10 + m) * n + 10 * z


def snarf_bits(n: int, K: float) -> float:
    """SNARF: ``n log2(K) + 2.4 n``."""
    return n * log2(K) + 2.4 * n


def bucketing_bits(t: int, u: int, s: int) -> float:
    """Bucketing (this paper): ``t log2(u/(t s)) + 2 t + o(t)``."""
    return t * log2(u / (t * s)) + 2 * t


@dataclass(frozen=True)
class TheoryRow:
    """One row of Table 1."""

    name: str
    category: str  # "heuristic" | "fpr-bounded" | "bound"
    space_formula: str
    space_bits: Optional[float]
    query_time: str
    practical: bool


def table1(
    n: int,
    u: int,
    L: int,
    eps: float,
    *,
    surf_internal_nodes: Optional[int] = None,
    surf_suffix_bits: int = 4,
    snarf_K: Optional[float] = None,
    bucketing_t: Optional[int] = None,
    bucketing_s: Optional[int] = None,
) -> List[TheoryRow]:
    """Evaluate Table 1 for concrete parameters.

    Data-dependent rows (SuRF's ``z``, Bucketing's ``t``) are evaluated
    only when the caller supplies the measured quantities; otherwise their
    numeric cell is left empty, exactly like the ``?`` entries of the
    paper's table (Proteus, bloomRF). The bounds are defined only for
    ``0 < eps < 1``, ``n >= 1``, ``L >= 1`` and ``u >= 2``.
    """
    if not (0.0 < eps < 1.0 and n >= 1 and L >= 1 and u >= 2):
        raise InvalidParameterError(
            "Table 1 needs 0 < eps < 1, n >= 1, L >= 1 and u >= 2; "
            f"got eps={eps}, n={n}, L={L}, u={u}"
        )
    z = surf_internal_nodes
    K = snarf_K if snarf_K is not None else L / eps  # eps ~ 1/K analogy
    rows = [
        TheoryRow(
            "SuRF", "heuristic", "(10+m)n + 10z + o(n+z)",
            surf_bits(n, z, surf_suffix_bits) if z is not None else None,
            "O(log u)", True,
        ),
        TheoryRow(
            "SNARF", "heuristic", "n log K + 2.4n",
            snarf_bits(n, K), "Omega(log n)", True,
        ),
        TheoryRow("Proteus", "heuristic", "?", None, "?", True),
        TheoryRow("bloomRF", "heuristic", "?", None, "O(log(u/n))", True),
        TheoryRow(
            "Bucketing", "heuristic", "t log(u/(t s)) + 2t + o(t)",
            bucketing_bits(bucketing_t, u, bucketing_s)
            if bucketing_t is not None and bucketing_s is not None
            else None,
            "O(log(u/(t s)))", True,
        ),
        TheoryRow(
            "Theoretical baseline", "fpr-bounded", "n log(L/eps) + O(n)",
            trivial_baseline_bits(n, L, eps), "O(L)", False,
        ),
        TheoryRow(
            "Goswami et al.", "fpr-bounded",
            "n log(L/eps) + 3n + o(n log(L/eps))",
            goswami_bits(n, L, eps), "O(log(nL/eps)/w)", False,
        ),
        TheoryRow(
            "Rosetta", "fpr-bounded", "1.44 n log(L/eps)",
            rosetta_bits(n, L, eps), "Omega(log L * log(2-eps))", True,
        ),
        TheoryRow(
            "Grafite", "fpr-bounded", "n log(L/eps) + 2n + o(n)",
            grafite_bits(n, L, eps), "O(log(L/eps))", True,
        ),
        TheoryRow(
            "Lower bound", "bound", "n log(L^(1-O(eps))/eps) - O(n)",
            lower_bound_bits(n, L, eps), "-", False,
        ),
    ]
    return rows


def grafite_fpr_bound(range_size: int, bits_per_key: float) -> float:
    """Corollary 3.5: ``min(1, ell / 2^(B-2))``."""
    if bits_per_key <= 2:
        return 1.0
    return min(1.0, range_size / 2.0 ** (bits_per_key - 2))


def rosetta_vs_grafite_space_crossover(L: int, eps: float) -> bool:
    """§5: Grafite beats Rosetta in space iff ``L >= 2^3.36 * eps``.

    (Equivalently: Rosetta's 1.44x multiplier loses to Grafite's +2 bits
    per key additive term except at tiny L/eps ratios.)
    """
    return 1.44 * log2(L / eps) >= log2(L / eps) + 2
