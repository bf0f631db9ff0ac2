"""Filter backend registry + heterogeneous-backend engine tests.

Covers the three legs the registry stands on:

* every backend builds from a :class:`FilterSpec`, answers with zero
  false negatives, and rides the generic batch API;
* every backend serialises to a stable byte format and restores
  byte-for-byte (same sizes, same verdicts, identical re-serialisation);
* the engine mounts any backend, snapshots its filters as blobs, and
  reopens them without a factory — including the
  :class:`~repro.errors.ConfigError` guard for runs whose filters
  *cannot* come back.
"""

import importlib
import inspect

import numpy as np
import pytest

from repro.analysis.harness import FILTERS, FilterConfig, build_filter
from repro.core.serialization import filter_from_bytes, filter_to_bytes
from repro.engine import ShardedEngine
from repro.errors import ConfigError, InvalidParameterError
from repro.filters.base import RangeFilter
from repro.filters.registry import BACKENDS, FilterSpec, backend_names, make_factory

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
    filt = make_factory(backend, bits_per_key=14, max_range_size=64, seed=SEED)(
        keys, UNIVERSE
    )
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
    info = BACKENDS[backend]
    assert info.serializable
    filt = make_factory(backend, bits_per_key=12, max_range_size=32, seed=SEED)(
        keys, UNIVERSE
    )
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


@pytest.mark.parametrize("backend", ["surf", "snarf", "rosetta"])
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

    # Reopen WITHOUT a factory: the spec comes back from the manifest and
    # the filters come back from their blobs, so the probe results (and
    # the pruning behaviour) are bit-for-bit identical.
    reopened = ShardedEngine.open(tmp_path / "db")
    assert reopened.filter_spec == spec
    got = reopened.batch_range_empty(los, his)
    assert got.tolist() == want.tolist()
    assert reopened.filter_bits_total > 0

    # Reopening WITH an explicit factory must not drop the recorded spec
    # from the next checkpoint's manifest (that would make a later
    # no-factory open silently flush unfiltered runs).
    overridden = ShardedEngine.open(
        tmp_path / "db", filter_factory=spec.factory()
    )
    assert overridden.filter_spec == spec
    overridden.checkpoint()
    overridden.close(checkpoint=False)
    again = ShardedEngine.open(tmp_path / "db")
    assert again.filter_spec == spec


def test_reopen_without_restorable_filters_raises_config_error(tmp_path):
    """The satellite bugfix: a snapshot whose runs had filters without a
    stable byte format must not silently come back filterless."""

    class OpaqueFilter:
        """A filter type serialization knows nothing about."""

        def __init__(self, keys, universe):
            self._keys = np.asarray(keys, dtype=np.uint64)
            self.universe = universe

        name = "opaque"
        key_count = property(lambda self: int(self._keys.size))
        size_in_bits = property(lambda self: 64)

        def may_contain_range(self, lo, hi):
            idx = int(np.searchsorted(self._keys, lo))
            return idx < self._keys.size and int(self._keys[idx]) <= hi

        def may_contain_range_batch(self, los, his):
            idx = np.searchsorted(self._keys, los)
            ok = idx < self._keys.size
            out = np.zeros(los.size, dtype=bool)
            out[ok] = self._keys[idx[ok]] <= his[ok]
            return out

    factory = OpaqueFilter
    with ShardedEngine(
        2**20, num_shards=2, memtable_limit=64,
        filter_factory=factory, directory=tmp_path / "db",
    ) as engine:
        for key in range(0, 2000, 3):
            engine.put(key, b"v")

    with pytest.raises(ConfigError):
        ShardedEngine.open(tmp_path / "db")
    # Same factory back: loads fine, runs filtered again.
    reopened = ShardedEngine.open(tmp_path / "db", filter_factory=factory)
    assert all(
        run.filter is not None
        for store in reopened.shards
        for run in store.level0_runs
    )
    # Explicit opt-in to filterless runs also works (the workers' path).
    tolerant = ShardedEngine.open(tmp_path / "db", missing_filter="drop")
    assert not tolerant.range_empty(0, 10)
    assert tolerant.range_empty(2001, 2**20 - 1)


def test_filter_factory_and_spec_are_mutually_exclusive():
    with pytest.raises(InvalidParameterError):
        ShardedEngine(
            2**20,
            filter_factory=lambda k, u: None,
            filter_spec=FilterSpec(backend="grafite"),
        )


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
    built = [make_factory(name, seed=SEED)(sample, UNIVERSE) for name in BACKENDS]
    cfg = FilterConfig(
        sample, UNIVERSE, bits_per_key=16.0, max_range_size=32,
        sample_queries=[(10, 41), (2**20, 2**20 + 31)], seed=SEED,
    )
    built += [build_filter(name, cfg) for name in FILTERS]
    for cls in filter_classes:
        assert any(isinstance(f, cls) for f in built), f"{package}.{cls.__name__} is not run"
