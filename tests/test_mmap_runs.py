"""Lifecycle tests for zero-copy mmap-backed run files (format v5).

Three hazards specific to memory-mapped storage, each pinned here:

* **reopen fidelity** — a checkpoint reopened through ``np.memmap``
  must answer every query identically to the engine that wrote it, and
  its runs must actually be backed by the mapping (zero-copy, not a
  read-into-heap fallback);
* **one format** — a run file stamped with a retired version (v1–v4)
  or a manifest stamped version 1 or 2 is rejected as corrupt, by the
  loaders, by ``ShardedEngine.open`` and by the scrub;
* **unmap discipline** — unlinking a mapped run file must not break
  in-flight readers (POSIX keeps mapped pages alive while a column
  view over them does).
"""

import json

import numpy as np
import pytest

from repro.engine import ShardedEngine, persist
from repro.errors import CorruptionError
from repro.filters import FilterSpec

UNIVERSE = 2**32
N_KEYS = 4_000


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=12, max_range_size=64, seed=5)


def build_db(path, *, spec=GRAFITE_SPEC):
    rng = np.random.default_rng(99)
    keys = np.unique(rng.integers(0, UNIVERSE, N_KEYS, dtype=np.uint64))
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=256,
        compaction_fanout=4,
        filter_spec=spec,
        directory=path,
    )
    for key in keys:
        engine.put(int(key), b"v%d" % (key % 97))
    engine.flush_all()
    engine.drain_compactions()
    engine.checkpoint()
    return engine, keys


def probe_all(engine, keys, rng_seed=7):
    """A broad fingerprint of query behaviour: gets, emptiness, scans."""
    rng = np.random.default_rng(rng_seed)
    gets = [engine.get(int(k)) for k in keys[::37]]
    los = rng.integers(0, UNIVERSE - 64, 300, dtype=np.uint64)
    his = los + np.uint64(63)
    batch = engine.batch_range_empty(los, his)
    scan = engine.shards[0].range_scan(0, UNIVERSE // 8)
    return gets, batch.tolist(), scan


def all_runs(engine):
    return [run for store in engine.shards for run in store._runs()]


def mapped_by_memmap(column) -> bool:
    """Whether ``column``'s buffer chain (``.base`` of an array, ``.obj``
    of a memoryview) ends in an ``np.memmap``: the column is a view over
    the run file's mapping, not a copy of it."""
    owner = column.base
    while owner is not None:
        if isinstance(owner, np.memmap):
            return True
        owner = getattr(owner, "base" if isinstance(owner, np.ndarray) else "obj", None)
    return False


def test_checkpoint_reopens_mmap_backed_and_identical(tmp_path):
    engine, keys = build_db(tmp_path / "db")
    want = probe_all(engine, keys)

    reopened = ShardedEngine.open(tmp_path / "db")
    assert probe_all(reopened, keys) == want
    runs = all_runs(reopened)
    assert runs, "reopened engine lost its runs"
    for run in runs:
        # Zero-copy: the key column is a view over the mapping itself.
        assert mapped_by_memmap(run.keys_view()), "run loaded without mmap"
        assert run.shared_id is not None, "persisted run lost its shared_id"


@pytest.mark.parametrize(
    "kind, version",
    [("run", 1), ("run", 2), ("run", 3), ("run", 4), ("manifest", 1),
     ("manifest", 2)],
    ids=["run-v1", "run-v2", "run-v3", "run-v4", "manifest-v1", "manifest-v2"],
)
def test_retired_format_is_rejected(tmp_path, kind, version):
    """Only run format v5 and manifest version 3 load. A retired version
    stamp is corruption: the loader names it, ``open`` finds no intact
    epoch to roll back to, and the scrub reports the damage."""
    db = tmp_path / "db"
    engine, _ = build_db(db)
    engine.close(checkpoint=False)
    msg = f"version {version}"
    if kind == "run":
        # Drop the retained previous epoch: nothing intact to roll back to.
        (db / persist.PREV_MANIFEST_NAME).unlink()
        ssts = list(db.glob("shard-*/*.sst"))
        assert ssts
        for sst in ssts:
            buf = bytearray(sst.read_bytes())
            buf[4:6] = version.to_bytes(2, "little")
            sst.write_bytes(bytes(buf))
        with pytest.raises(CorruptionError, match=msg):
            persist.run_from_bytes(ssts[0].read_bytes())
    else:
        for name in (persist.MANIFEST_NAME, persist.PREV_MANIFEST_NAME):
            path = db / name
            if not path.exists():
                continue
            manifest = json.loads(path.read_text())
            manifest["manifest_version"] = version
            # A valid checksum, so only the version can be at fault.
            manifest["crc32"] = persist.manifest_crc(manifest)
            path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptionError, match=msg):
            persist.load_manifest(db)
    with pytest.raises(CorruptionError, match=msg):
        ShardedEngine.open(db)
    report = persist.scrub_snapshot(db)
    assert report["ok"] is False
    assert any(msg in err for err in report["errors"])


def test_unlink_mid_read_keeps_mapped_pages_alive(tmp_path):
    engine, keys = build_db(tmp_path / "db")
    want = probe_all(engine, keys)

    reopened = ShardedEngine.open(tmp_path / "db")
    # Unlink every run file while the runs are mapped and mid-use.
    removed = 0
    for sst in (tmp_path / "db").glob("shard-*/*.sst"):
        sst.unlink()
        removed += 1
    assert removed > 0
    # POSIX semantics: the pages stay valid until the mapping is
    # dropped, so every query keeps answering identically.
    assert probe_all(reopened, keys) == want
