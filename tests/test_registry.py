"""Filter backend registry + heterogeneous-backend engine tests.

Covers the three legs the registry stands on:

* every backend builds from a :class:`FilterSpec`, answers with zero
  false negatives, and rides the generic batch API;
* every backend serialises to a stable byte format and restores
  byte-for-byte (same sizes, same verdicts, identical re-serialisation);
* the engine mounts any backend from its spec, snapshots its filters
  as blobs, and reopens them from the directory alone, byte-for-byte.
"""

import importlib
import inspect

import numpy as np
import pytest

from repro.analysis.harness import FILTERS, FilterConfig, build_filter
from repro.core.serialization import filter_from_bytes, filter_to_bytes
from repro.engine import ShardedEngine
from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter
from repro.filters.registry import BACKENDS, FilterSpec, backend_names

UNIVERSE = 2**28
SEED = 11


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(SEED)
    return np.unique(rng.integers(0, UNIVERSE, 3000, dtype=np.uint64))


@pytest.fixture(scope="module")
def probe_bounds(keys):
    rng = np.random.default_rng(SEED + 1)
    los = rng.integers(0, UNIVERSE - 128, 800, dtype=np.uint64)
    his = los + rng.integers(0, 128, 800, dtype=np.uint64)
    return los, his


def test_backend_names_match_issue_contract():
    assert backend_names() == sorted(
        ["grafite", "bucketing", "surf", "rosetta", "proteus", "snarf", "rencoder"]
    )


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        FilterSpec(backend="nope")
    with pytest.raises(InvalidParameterError):
        FilterSpec(backend="grafite", bits_per_key=0)
    with pytest.raises(InvalidParameterError):
        FilterSpec(backend="grafite", max_range_size=0)


def test_spec_params_roundtrip():
    spec = FilterSpec(backend="rosetta", bits_per_key=14.5, max_range_size=64, seed=3)
    assert FilterSpec.from_params(spec.to_params()) == spec


@pytest.mark.parametrize("backend", backend_names())
def test_backend_no_false_negatives_and_batch_parity(backend, keys, probe_bounds):
    spec = FilterSpec(backend, bits_per_key=14, max_range_size=64, seed=SEED)
    filt = spec.factory()(keys, UNIVERSE)
    # No false negatives on point probes of real keys.
    for key in keys[:: max(1, keys.size // 64)]:
        assert filt.may_contain(int(key)), backend
    # Batch path agrees with the scalar loop for every backend — the
    # contract the columnar router relies on.
    los, his = probe_bounds
    batch = filt.may_contain_range_batch(los, his)
    scalar = [filt.may_contain_range(int(lo), int(hi)) for lo, hi in zip(los, his)]
    assert batch.tolist() == scalar, backend


@pytest.mark.parametrize("backend", backend_names())
def test_backend_serialization_roundtrip(backend, keys, probe_bounds):
    spec = FilterSpec(backend, bits_per_key=12, max_range_size=32, seed=SEED)
    filt = spec.factory()(keys, UNIVERSE)
    blob = filter_to_bytes(filt)
    restored = filter_from_bytes(blob)
    assert type(restored) is type(filt)
    assert restored.name == filt.name
    assert restored.key_count == filt.key_count
    assert restored.universe == filt.universe
    assert restored.size_in_bits == filt.size_in_bits
    los, his = probe_bounds
    assert (
        restored.may_contain_range_batch(los, his).tolist()
        == filt.may_contain_range_batch(los, his).tolist()
    ), backend
    # The restored filter re-serialises to the identical bytes.
    assert filter_to_bytes(restored) == blob


def filter_blobs(engine):
    """Every run's filter bytes, shard by shard, newest level-0 run first."""
    return [
        filter_to_bytes(run.filter)
        for store in engine.shards
        for run in store.level0_runs + sum(store.levels, ())
    ]


@pytest.mark.parametrize("backend", backend_names())
def test_engine_mounts_backend_and_reopens_identically(backend, keys, tmp_path):
    spec = FilterSpec(backend=backend, bits_per_key=12, max_range_size=32, seed=SEED)
    with ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=512,
        filter_spec=spec, directory=tmp_path / "db",
    ) as engine:
        for key in keys:
            engine.put(int(key), b"v")
        engine.flush_all()
        rng = np.random.default_rng(SEED + 2)
        los = rng.integers(0, UNIVERSE - 64, 500, dtype=np.uint64)
        his = los + 63
        want = engine.batch_range_empty(los, his)
        stats_before = engine.stats
        assert stats_before.reads_avoided > 0, "filters never pruned anything"
        engine.checkpoint()
        blobs = filter_blobs(engine)

    # The directory alone reopens the engine: the spec comes back from
    # the manifest and the filters from their blobs, so the probe results
    # (and the pruning behaviour) are bit-for-bit identical.
    reopened = ShardedEngine.open(tmp_path / "db")
    assert reopened.filter_spec == spec
    assert blobs and filter_blobs(reopened) == blobs
    got = reopened.batch_range_empty(los, his)
    assert got.tolist() == want.tolist()
    assert reopened.filter_bits_total > 0


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.filters"])
def test_exported_filters_are_mounted_or_measured(package, keys):
    """The library ships only the filters something runs.

    Every name a package exports resolves, and every concrete filter class
    among them is built by an engine backend or by a paper-figure filter.
    """
    module = importlib.import_module(package)
    exported = [getattr(module, name) for name in module.__all__]
    filter_classes = [
        obj for obj in exported
        if inspect.isclass(obj) and issubclass(obj, RangeFilter)
        and not inspect.isabstract(obj)
    ]
    sample = keys[:200]
    built = [
        FilterSpec(name, seed=SEED).factory()(sample, UNIVERSE) for name in BACKENDS
    ]
    cfg = FilterConfig(
        sample, UNIVERSE, bits_per_key=16.0, max_range_size=32,
        sample_queries=[(10, 41), (2**20, 2**20 + 31)], seed=SEED,
    )
    built += [build_filter(name, cfg) for name in FILTERS]
    for cls in filter_classes:
        assert any(isinstance(f, cls) for f in built), f"{package}.{cls.__name__} is not run"
