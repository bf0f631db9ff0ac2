"""repro — a pure-Python reproduction of *Grafite: Taming Adversarial
Queries with Optimal Range Filters* (SIGMOD 2024).

Public API highlights:

* :class:`~repro.core.grafite.Grafite` — the paper's optimal range filter;
* :class:`~repro.core.bucketing.Bucketing` — the simple heuristic filter;
* :class:`~repro.core.strings.StringGrafite` — the §7 string extension;
* :mod:`repro.filters` — every baseline the paper evaluates against
  (SuRF, Rosetta, SNARF, Proteus, REncoder, ...);
* :mod:`repro.workloads` — dataset and query generators of §6.1;
* :mod:`repro.analysis` — FPR / timing / space measurement harness;
* :mod:`repro.lsm` — a mini LSM key-value store with pluggable range
  filters (the paper's motivating application);
* :mod:`repro.engine` — the scale-out layer on top of it: a sharded,
  persistent engine (:class:`~repro.engine.engine.ShardedEngine`) with
  write-ahead logging, crash recovery, vectorised batch queries, a
  concurrent serving layer and per-shard filter auto-tuning
  (:class:`~repro.engine.autotune.AutoTuner`);
* :class:`~repro.filters.registry.FilterSpec` — mount any evaluated
  filter as the engine's per-run backend.

Quick start::

    from repro import Grafite

    keys = [3, 1441, 7312, 10_000_000]
    filt = Grafite(keys, universe=2**32, eps=0.01, max_range_size=64)
    filt.may_contain_range(7300, 7320)   # True (7312 is there)
    filt.may_contain_range(8000, 8063)   # False with prob >= 1 - eps
"""

from repro.core import (
    Bucketing,
    Grafite,
    LocalityPreservingHash,
    PairwiseIndependentHash,
    PowerOfTwoLocalityHash,
    StringGrafite,
    eps_from_bits_per_key,
)
from repro.engine import AutoTuner, RangeQueryService, ShardedEngine
from repro.errors import (
    CorruptionError,
    DeadlineExceeded,
    InvalidKeyError,
    InvalidParameterError,
    InvalidQueryError,
    NotSupportedError,
    ReproError,
)
from repro.filters import (
    BloomFilter,
    FilterSpec,
    PointProbeFilter,
    Proteus,
    RangeFilter,
    REncoder,
    Rosetta,
    SnarfFilter,
    SuRF,
    rencoder_se,
    rencoder_ss,
)

__version__ = "1.0.0"

__all__ = [
    "AutoTuner",
    "BloomFilter",
    "Bucketing",
    "CorruptionError",
    "DeadlineExceeded",
    "FilterSpec",
    "Grafite",
    "InvalidKeyError",
    "InvalidParameterError",
    "InvalidQueryError",
    "LocalityPreservingHash",
    "NotSupportedError",
    "PairwiseIndependentHash",
    "PointProbeFilter",
    "PowerOfTwoLocalityHash",
    "Proteus",
    "REncoder",
    "RangeFilter",
    "RangeQueryService",
    "ReproError",
    "Rosetta",
    "ShardedEngine",
    "SnarfFilter",
    "StringGrafite",
    "SuRF",
    "eps_from_bits_per_key",
    "rencoder_se",
    "rencoder_ss",
    "__version__",
]
