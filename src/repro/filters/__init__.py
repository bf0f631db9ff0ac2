"""Baseline range filters evaluated by the paper (§2, §6).

Every class here implements :class:`repro.filters.base.RangeFilter`, so
the measurement harness, the LSM store and the benchmarks can swap them
freely:

* :class:`~repro.filters.bloom.BloomFilter` — classic point filter
  substrate;
* :class:`~repro.filters.point_probe.PointProbeFilter` — the trivial
  FPR-bounded ``O(L)`` baseline of §2;
* :class:`~repro.filters.rosetta.Rosetta` — per-level Bloom filters with
  dyadic doubting (robust);
* :class:`~repro.filters.surf.SuRF` — LOUDS-Sparse succinct trie with
  suffix bits (heuristic);
* :class:`~repro.filters.snarf.SnarfFilter` — learned-CDF bit array
  (heuristic);
* :class:`~repro.filters.proteus.Proteus` — trie + prefix Bloom hybrid
  with sample-driven self-design (heuristic);
* :class:`~repro.filters.rencoder.REncoder` (+ ``rencoder_ss`` /
  ``rencoder_se``) — local-tree bit array (robust for large ranges).

:mod:`repro.filters.registry` wraps a curated subset of these (plus the
core Grafite/Bucketing) as engine-mountable backends: a
:class:`~repro.filters.registry.FilterSpec` names the backend and its
knobs, and its factory builds one filter per flushed run.
"""

from repro.filters.base import RangeFilter, as_key_array
from repro.filters.bloom import BloomFilter
from repro.filters.fst import FastSuccinctTrie, distinguishing_prefixes
from repro.filters.point_probe import PointProbeFilter
from repro.filters.proteus import Proteus
from repro.filters.rencoder import REncoder, rencoder_se, rencoder_ss
from repro.filters.registry import BACKENDS, FilterBackend, FilterSpec, make_factory
from repro.filters.rosetta import Rosetta, dyadic_decomposition
from repro.filters.snarf import SnarfFilter
from repro.filters.surf import SuRF

__all__ = [
    "BACKENDS",
    "BloomFilter",
    "FastSuccinctTrie",
    "FilterBackend",
    "FilterSpec",
    "PointProbeFilter",
    "Proteus",
    "REncoder",
    "RangeFilter",
    "Rosetta",
    "SnarfFilter",
    "SuRF",
    "as_key_array",
    "distinguishing_prefixes",
    "dyadic_decomposition",
    "make_factory",
    "rencoder_se",
    "rencoder_ss",
]
