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

Every backend here is a pure function of its keys and its spec: the
seed fixes every hash constant, so a rebuild from the same keys is
bit-for-bit the same filter, in any process. That is why a checkpoint
records the spec that built each run's filter rather than the filter's
bytes (:mod:`repro.engine.persist`), and rebuilds the filter on load.

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

import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter

#: The largest ``bits_per_key`` a :class:`FilterSpec` accepts.
MAX_BITS_PER_KEY = 64

#: The engine-side factory shape (matches ``repro.lsm.sstable.FilterFactory``).
EngineFactory = Callable[[np.ndarray, int], RangeFilter]


@dataclass(frozen=True)
class FilterBackend:
    """Registry entry: how to build a backend and what to expect of it."""

    key: str                 #: lowercase CLI name
    robust: bool             #: distribution-free FPR bound (adversarial-safe)
    paper_figure: str        #: where the paper evaluates it
    summary: str             #: one-line behaviour note for docs/CLI help
    build: Callable[["FilterSpec", np.ndarray, int], RangeFilter]


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class FilterSpec:
    """A backend choice plus construction knobs, JSON-serialisable.

    ``max_range_size`` is the design bound ``L`` for the backends that
    take one (Grafite, Rosetta); ``seed`` fixes every hash constant so a
    rebuild from the same keys is bit-for-bit reproducible.

    Only values every backend can build from are accepted: a
    ``bits_per_key`` in ``(0, 64]``, an integral ``max_range_size >= 1``
    and an integral ``seed`` in ``[0, 2**64)``. They are normalised to ``float``
    and ``int``, so :meth:`to_params` is standard JSON and a spec read
    back from it builds the identical filter.
    """

    backend: str
    bits_per_key: float = 16.0
    max_range_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown filter backend {self.backend!r}; "
                f"choose from {sorted(BACKENDS)}"
            )
        bits = self.bits_per_key
        # The chained comparison also rejects NaN and infinity. Past 64
        # bits a key's code no longer fits a machine word: Grafite's and
        # SNARF's builds overflow, and the other backends would allocate
        # that many bits per key.
        if (not isinstance(bits, numbers.Real) or isinstance(bits, bool)
                or not 0 < bits <= MAX_BITS_PER_KEY):
            raise InvalidParameterError(
                f"bits_per_key must be in (0, {MAX_BITS_PER_KEY}], got {bits!r}"
            )
        if not _is_int(self.max_range_size) or self.max_range_size < 1:
            raise InvalidParameterError(
                f"max_range_size must be an integer >= 1, got "
                f"{self.max_range_size!r}"
            )
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise InvalidParameterError(
                f"seed must be an integer in [0, 2**64), got {self.seed!r}"
            )
        object.__setattr__(self, "bits_per_key", float(bits))
        object.__setattr__(self, "max_range_size", int(self.max_range_size))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def info(self) -> FilterBackend:
        return BACKENDS[self.backend]

    def factory(self) -> EngineFactory:
        """The ``(keys, universe) -> RangeFilter`` builder the LSM uses.

        Each filter it builds is stamped with this spec
        (:attr:`RangeFilter.spec`), which is what a checkpoint records.
        """
        info = self.info

        def build(keys: np.ndarray, universe: int) -> RangeFilter:
            filt = info.build(self, keys, universe)
            filt.spec = self
            return filt

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
        """Inverse of :meth:`to_params` (manifest and run-file recovery).

        Values are taken as they are, not coerced, so a malformed record
        (a missing field, a string seed, ``1.5`` as a range size) raises
        :class:`~repro.errors.InvalidParameterError`.
        """
        try:
            return cls(
                backend=params["backend"],
                bits_per_key=params["bits_per_key"],
                max_range_size=params["max_range_size"],
                seed=params["seed"],
            )
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(
                f"malformed filter spec {params!r}: {exc!r}"
            ) from exc


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
            key="grafite", robust=True,
            paper_figure="Fig. 5-7",
            summary="optimal robust filter; FPR bound holds under any workload",
            build=_build_grafite,
        ),
        FilterBackend(
            key="bucketing", robust=False,
            paper_figure="Fig. 4, 6",
            summary="one-bit-per-bucket heuristic; best at tiny budgets",
            build=_build_bucketing,
        ),
        FilterBackend(
            key="surf", robust=False,
            paper_figure="Fig. 3-4",
            summary="truncated succinct trie; collapses under correlation",
            build=_build_surf,
        ),
        FilterBackend(
            key="rosetta", robust=True,
            paper_figure="Fig. 5",
            summary="per-level Blooms; robust but slow for large ranges",
            build=_build_rosetta,
        ),
        FilterBackend(
            key="proteus", robust=False,
            paper_figure="Fig. 4",
            summary="self-designing trie+Bloom; overfits its tuning sample",
            build=_build_proteus,
        ),
        FilterBackend(
            key="snarf", robust=False,
            paper_figure="Fig. 3-4",
            summary="learned-CDF bit array; strong on short uncorrelated ranges",
            build=_build_snarf,
        ),
        FilterBackend(
            key="rencoder", robust=True,
            paper_figure="Fig. 5",
            summary="local-tree bit array; robust for large ranges",
            build=_build_rencoder,
        ),
    )
}


def backend_names() -> List[str]:
    """Sorted lowercase backend keys (the CLI's ``--filter`` choices)."""
    return sorted(BACKENDS)

