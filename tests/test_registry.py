"""Filter backend registry + heterogeneous-backend engine tests.

Covers the three legs the registry stands on:

* every backend builds from a :class:`FilterSpec`, answers with zero
  false negatives, and rides the generic batch API;
* every backend is a pure function of its keys and its spec: a rebuild,
  in this process or in another interpreter with a different hash seed,
  is the same filter (same size, same verdicts);
* the engine mounts any backend from its spec, records each run's spec
  in its checkpoint, and reopens from the directory alone with the same
  verdicts, sizes and I/O ledger — in process and in snapshot workers.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.harness import FILTERS, FilterConfig, build_filter
from repro.engine import RangeQueryService, ShardedEngine
from repro.errors import InvalidParameterError
from repro.filters.base import RangeFilter
from repro.filters.registry import BACKENDS, FilterSpec, backend_names
from repro.workloads.adversary import KeyKnowledgeAdversary
from repro.workloads.queries import correlated_queries, uncorrelated_queries

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


@pytest.mark.parametrize(
    "field, value",
    [
        ("bits_per_key", float("nan")),
        ("bits_per_key", float("inf")),
        ("bits_per_key", -1.0),
        ("bits_per_key", 64.5),
        ("bits_per_key", 10**400),
        ("bits_per_key", "16"),
        ("bits_per_key", True),
        ("max_range_size", 0),
        ("max_range_size", 1.5),
        ("max_range_size", "32"),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", 1.5),
        ("seed", None),
    ],
)
@pytest.mark.parametrize("backend", backend_names())
def test_spec_rejects_what_no_backend_builds(backend, field, value):
    with pytest.raises(InvalidParameterError, match=field):
        FilterSpec(backend, **{field: value})


@pytest.mark.parametrize("backend", backend_names())
def test_spec_domain_edges_build(backend, keys):
    """The extremes the spec admits are buildable by every backend, and
    the knobs are normalised so ``to_params`` is standard JSON."""
    spec = FilterSpec(backend, bits_per_key=12, max_range_size=np.int64(1),
                      seed=2**64 - 1)
    params = spec.to_params()
    assert json.loads(json.dumps(params, allow_nan=False)) == params
    assert type(params["bits_per_key"]) is float
    assert type(params["max_range_size"]) is int
    filt = spec.factory()(keys[:500], UNIVERSE)
    assert filt.spec is spec
    assert all(filt.may_contain(int(k)) for k in keys[:500:25])


def test_spec_params_roundtrip():
    spec = FilterSpec(backend="rosetta", bits_per_key=14.5, max_range_size=64, seed=3)
    assert FilterSpec.from_params(spec.to_params()) == spec
    for bad in ({"backend": "grafite"}, ["grafite"], {**spec.to_params(), "seed": "3"}):
        with pytest.raises(InvalidParameterError):
            FilterSpec.from_params(bad)


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
def test_backend_rebuild_is_identical(backend, keys, probe_bounds):
    """Building twice from one spec and one key set gives the same
    filter: what lets a checkpoint record the spec instead of bytes."""
    spec = FilterSpec(backend, bits_per_key=12, max_range_size=32, seed=SEED)
    first = spec.factory()(keys, UNIVERSE)
    again = FilterSpec.from_params(spec.to_params()).factory()(keys.copy(), UNIVERSE)
    assert type(again) is type(first)
    assert again.spec == first.spec == spec
    assert again.key_count == first.key_count
    assert again.size_in_bits == first.size_in_bits
    los, his = probe_bounds
    assert (
        again.may_contain_range_batch(los, his).tolist()
        == first.may_contain_range_batch(los, his).tolist()
    ), backend


#: Builds every backend from the module's keys and prints, per backend,
#: its size and verdict bitmap over the module's probe set.
_DIGEST_SCRIPT = """
import json, sys
import numpy as np
from repro.filters.registry import FilterSpec, backend_names
universe, seed = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(seed)
keys = np.unique(rng.integers(0, universe, 3000, dtype=np.uint64))
rng = np.random.default_rng(seed + 1)
los = rng.integers(0, universe - 128, 800, dtype=np.uint64)
his = los + rng.integers(0, 128, 800, dtype=np.uint64)
out = {}
for backend in backend_names():
    spec = FilterSpec(backend, bits_per_key=12, max_range_size=32, seed=seed)
    filt = spec.factory()(keys, universe)
    bitmap = np.packbits(filt.may_contain_range_batch(los, his)).tobytes().hex()
    out[backend] = [filt.size_in_bits, bitmap]
print(json.dumps(out))
"""


def _digests(keys, probe_bounds):
    los, his = probe_bounds
    out = {}
    for backend in backend_names():
        spec = FilterSpec(backend, bits_per_key=12, max_range_size=32, seed=SEED)
        filt = spec.factory()(keys, UNIVERSE)
        bitmap = np.packbits(filt.may_contain_range_batch(los, his)).tobytes().hex()
        out[backend] = [filt.size_in_bits, bitmap]
    return out


def test_rebuild_is_identical_across_interpreters(keys, probe_bounds):
    """Snapshot workers rebuild filters in other interpreters: every
    backend must come out the same under any ``PYTHONHASHSEED``."""
    want = _digests(keys, probe_bounds)
    src = str(Path(__file__).resolve().parent.parent / "src")
    for hash_seed in ("1", "4242"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])]
            ),
        }
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, str(UNIVERSE), str(SEED)],
            capture_output=True, text=True, env=env, timeout=300, check=True,
        )
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got == want, f"PYTHONHASHSEED={hash_seed}"


def engine_runs(engine):
    """Every run, shard by shard, newest level-0 run first."""
    return [
        run
        for store in engine.shards
        for run in store.level0_runs + sum(store.levels, ())
    ]


def probe_set(keys):
    """Uniform, correlated (D=0.8) and adversarial empty-leaning ranges."""
    sorted_keys = np.sort(keys)
    ranges = (
        uncorrelated_queries(200, 64, UNIVERSE, seed=SEED)
        + correlated_queries(sorted_keys, 200, 64, UNIVERSE,
                             correlation_degree=0.8, seed=SEED)
        + KeyKnowledgeAdversary(sorted_keys, 0.2, seed=SEED).craft_queries(
            200, 64, UNIVERSE)
    )
    los = np.asarray([lo for lo, _ in ranges], dtype=np.uint64)
    his = np.asarray([hi for _, hi in ranges], dtype=np.uint64)
    return los, his


def probe_with_ledger(target, engine, los, his):
    """Verdicts plus the reads performed / avoided / wasted they cost."""
    before = engine.stats
    verdicts = target.batch_range_empty(los, his).tolist()
    after = engine.stats
    ledger = tuple(
        getattr(after, field) - getattr(before, field)
        for field in ("reads_performed", "reads_avoided", "wasted_reads")
    )
    return verdicts, ledger


@pytest.mark.parametrize("backend", backend_names())
def test_engine_mounts_backend_and_reopens_identically(backend, keys, tmp_path):
    spec = FilterSpec(backend=backend, bits_per_key=12, max_range_size=32, seed=SEED)
    los, his = probe_set(keys)
    with ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=512,
        filter_spec=spec, directory=tmp_path / "db",
    ) as engine:
        for key in keys:
            engine.put(int(key), b"v")
        engine.flush_all()
        engine.drain_compactions()
        want, want_ledger = probe_with_ledger(engine, engine, los, his)
        assert want_ledger[1] > 0, "filters never pruned anything"
        engine.checkpoint()
        sizes = [run.filter.size_in_bits for run in engine_runs(engine)]

    # The directory alone reopens the engine: the engine's spec comes
    # back from the manifest and each run's filter is rebuilt from the
    # spec its file records, so verdicts, sizes and the I/O ledger (the
    # pruning behaviour) are identical.
    reopened = ShardedEngine.open(tmp_path / "db")
    assert reopened.filter_spec == spec
    runs = engine_runs(reopened)
    assert sizes and [run.filter.size_in_bits for run in runs] == sizes
    assert all(run.filter.spec == spec for run in runs)
    assert probe_with_ledger(reopened, reopened, los, his) == (want, want_ledger)
    # The same from the snapshot workers, which rebuild in other processes.
    with RangeQueryService(
        reopened, num_threads=1, mode="process", num_workers=2, cache_blocks=0,
    ) as service:
        assert probe_with_ledger(service, reopened, los, his) == (want, want_ledger)
        assert service.worker_queries == los.size
    reopened.close()


def test_shard_with_runs_of_two_specs_reopens_each_with_its_own(keys, tmp_path):
    """A shard checkpointed mid-retune (the auto-tuner swaps a shard's
    factory; older runs keep the filter they were built with) reopens
    every run with its own backend."""
    old = FilterSpec("surf", bits_per_key=14, seed=SEED)
    new = FilterSpec("grafite", bits_per_key=12, max_range_size=32, seed=SEED)
    half = keys.size // 2
    engine = ShardedEngine(
        UNIVERSE, num_shards=1, memtable_limit=10_000, compaction_fanout=64,
        filter_spec=old, directory=tmp_path / "db",
    )
    for key in keys[:half]:
        engine.put(int(key), b"v")
    engine.flush_all()
    engine.shards[0].set_filter_factory(new.factory())
    for key in keys[half:]:
        engine.put(int(key), b"v")
    engine.flush_all()
    los, his = probe_set(keys)
    want = probe_with_ledger(engine, engine, los, his)
    engine.close()
    assert [run.filter.spec for run in engine_runs(engine)] == [new, old]

    reopened = ShardedEngine.open(tmp_path / "db")
    assert [run.filter.spec for run in engine_runs(reopened)] == [new, old]
    assert [type(run.filter).__name__ for run in engine_runs(reopened)] == [
        "Grafite", "SuRF",
    ]
    assert probe_with_ledger(reopened, reopened, los, his) == want
    reopened.close()


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
