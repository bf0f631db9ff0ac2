"""The engine-facing filter backend registry.

The analysis harness (:mod:`repro.analysis.harness`) builds filters from
a rich :class:`FilterConfig` for figure reproduction; the *engine* needs
something narrower — a ``(keys, universe) -> RangeFilter`` factory it
can hand to every flushed run — and it needs to know, per backend, the
facts the serving layer and the auto-tuner act on:

* is the backend *robust* (distribution-free FPR bound, §6.2 taxonomy)
  or a heuristic an adversary can drive to FPR ~ 1?
* does it have a vectorised batch probe, or does it ride the generic
  :meth:`~repro.filters.base.RangeFilter.may_contain_range_batch` loop?
* can :mod:`repro.core.serialization` checkpoint it byte-for-byte?

:class:`FilterSpec` is the value that travels: a named backend plus the
construction knobs (bits/key, design range size, seed). The engine
records it in its manifest, the CLI builds one from ``--filter``, and
:mod:`repro.engine.autotune` swaps one spec for another per shard as
the observed workload shifts.

Backends whose reference construction is tuned on a query sample
(Proteus, and Rosetta's optional re-weighting) get a deterministic
synthetic sample of ``max_range_size``-length ranges here — the engine
cannot know its future workload at flush time, and determinism is what
keeps rebuilt filters identical across runs of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter

#: The engine-side factory shape (matches ``repro.lsm.sstable.FilterFactory``).
EngineFactory = Callable[[np.ndarray, int], RangeFilter]


@dataclass(frozen=True)
class FilterBackend:
    """Registry entry: how to build a backend and what to expect of it."""

    key: str                 #: lowercase CLI name
    robust: bool             #: distribution-free FPR bound (adversarial-safe)
    serializable: bool       #: covered by :mod:`repro.core.serialization`
    paper_figure: str        #: where the paper evaluates it
    summary: str             #: one-line behaviour note for docs/CLI help
    build: Callable[["FilterSpec", np.ndarray, int], RangeFilter]


@dataclass(frozen=True)
class FilterSpec:
    """A backend choice plus construction knobs, JSON-serialisable.

    ``max_range_size`` is the design bound ``L`` for the backends that
    take one (Grafite, Rosetta); ``seed`` fixes every hash constant so a
    rebuild from the same keys is bit-for-bit reproducible.
    """

    backend: str
    bits_per_key: float = 16.0
    max_range_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown filter backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        if self.bits_per_key <= 0:
            raise InvalidParameterError("bits_per_key must be positive")
        if self.max_range_size < 1:
            raise InvalidParameterError("max_range_size must be >= 1")

    @property
    def info(self) -> FilterBackend:
        return BACKENDS[self.backend]

    def factory(self) -> EngineFactory:
        """The ``(keys, universe) -> RangeFilter`` builder the LSM uses."""
        info = self.info

        def build(keys: np.ndarray, universe: int) -> RangeFilter:
            return info.build(self, keys, universe)

        return build

    def to_params(self) -> Dict[str, object]:
        """JSON-safe dict for the engine manifest."""
        return {
            "backend": self.backend,
            "bits_per_key": self.bits_per_key,
            "max_range_size": self.max_range_size,
            "seed": self.seed,
        }

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "FilterSpec":
        """Inverse of :meth:`to_params` (manifest recovery path)."""
        return cls(
            backend=str(params["backend"]),
            bits_per_key=float(params["bits_per_key"]),
            max_range_size=int(params["max_range_size"]),
            seed=int(params["seed"]),
        )


def _synthetic_sample(
    universe: int, range_size: int, seed: int, count: int = 64
) -> List[Tuple[int, int]]:
    """Deterministic tuning sample for sample-driven backends.

    Uniform ``range_size``-length ranges: the engine has no workload to
    sample at flush time, so the self-designing backends tune against
    the uncorrelated prior (which is also where the paper shows them
    winning). Emptiness is irrelevant for tuning, only the range shape.
    """
    rng = np.random.default_rng(seed)
    span = max(1, universe - range_size)
    los = rng.integers(0, span, count, dtype=np.uint64)
    return [(int(lo), int(lo) + range_size - 1) for lo in los]


# ----------------------------------------------------------------------
# Builders (imports deferred: repro.core imports this package's modules)
# ----------------------------------------------------------------------
def _build_grafite(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.core.grafite import Grafite

    return Grafite(
        keys, universe, bits_per_key=spec.bits_per_key,
        max_range_size=spec.max_range_size, seed=spec.seed,
    )


def _build_bucketing(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.core.bucketing import Bucketing

    return Bucketing(keys, universe, bits_per_key=spec.bits_per_key)


def _build_surf(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.filters.surf import SuRF

    # The trie costs ~10 bits/key (paper §5); the rest buys real suffix
    # bits, as in the harness's SuRF-Real configuration.
    suffix_bits = max(1, int(round(spec.bits_per_key - 10)))
    return SuRF(
        keys, universe, suffix_mode="real", suffix_bits=suffix_bits, seed=spec.seed
    )


def _build_rosetta(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.filters.rosetta import Rosetta

    return Rosetta(
        keys, universe, bits_per_key=spec.bits_per_key,
        max_range_size=spec.max_range_size, seed=spec.seed,
    )


def _build_proteus(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.filters.proteus import Proteus

    return Proteus(
        keys, universe, bits_per_key=spec.bits_per_key,
        sample_queries=_synthetic_sample(universe, spec.max_range_size, spec.seed),
        seed=spec.seed,
    )


def _build_snarf(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.filters.snarf import SnarfFilter

    # SNARF's space model needs > 2.4 bits/key before K reaches 1.
    return SnarfFilter(keys, universe, bits_per_key=max(3.0, spec.bits_per_key))


def _build_rencoder(spec: FilterSpec, keys: np.ndarray, universe: int) -> RangeFilter:
    from repro.filters.rencoder import REncoder

    return REncoder(keys, universe, bits_per_key=spec.bits_per_key, seed=spec.seed)


BACKENDS: Dict[str, FilterBackend] = {
    backend.key: backend
    for backend in (
        FilterBackend(
            key="grafite", robust=True, serializable=True,
            paper_figure="Fig. 5-7",
            summary="optimal robust filter; FPR bound holds under any workload",
            build=_build_grafite,
        ),
        FilterBackend(
            key="bucketing", robust=False, serializable=True,
            paper_figure="Fig. 4, 6",
            summary="one-bit-per-bucket heuristic; best at tiny budgets",
            build=_build_bucketing,
        ),
        FilterBackend(
            key="surf", robust=False, serializable=True,
            paper_figure="Fig. 3-4",
            summary="truncated succinct trie; collapses under correlation",
            build=_build_surf,
        ),
        FilterBackend(
            key="rosetta", robust=True, serializable=True,
            paper_figure="Fig. 5",
            summary="per-level Blooms; robust but slow for large ranges",
            build=_build_rosetta,
        ),
        FilterBackend(
            key="proteus", robust=False, serializable=True,
            paper_figure="Fig. 4",
            summary="self-designing trie+Bloom; overfits its tuning sample",
            build=_build_proteus,
        ),
        FilterBackend(
            key="snarf", robust=False, serializable=True,
            paper_figure="Fig. 3-4",
            summary="learned-CDF bit array; strong on short uncorrelated ranges",
            build=_build_snarf,
        ),
        FilterBackend(
            key="rencoder", robust=True, serializable=True,
            paper_figure="Fig. 5",
            summary="local-tree bit array; robust for large ranges",
            build=_build_rencoder,
        ),
    )
}


def backend_names() -> List[str]:
    """Sorted lowercase backend keys (the CLI's ``--filter`` choices)."""
    return sorted(BACKENDS)


def make_factory(
    backend: str,
    *,
    bits_per_key: float = 16.0,
    max_range_size: int = 32,
    seed: int = 0,
) -> EngineFactory:
    """Convenience: a factory straight from a backend name."""
    return FilterSpec(
        backend=backend, bits_per_key=bits_per_key,
        max_range_size=max_range_size, seed=seed,
    ).factory()
