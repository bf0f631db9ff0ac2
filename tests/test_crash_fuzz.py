"""Crash-recovery fuzzing: truncate the WAL everywhere, crash checkpoints.

The WAL's contract is exact: a crash may tear the *last* record, and
recovery must keep every acknowledged write whose record survived —
never a torn write, never losing a checkpointed one. Byte-offset
truncation is the strongest test of that contract: for **every** prefix
length of a recorded run's WAL, reopening the engine must yield exactly
the oracle state after ``checkpoint base + (number of whole records in
the prefix)`` operations. Any "almost valid" tail that recovery
mistakenly replays, or any valid record it mistakenly drops, shows up
as a divergence at some offset.

Checkpoint durability is fuzzed at its commit-point boundaries
separately: a checkpoint commits atomically at the manifest rename, so
a crash before the rename must recover the *previous* checkpoint plus
the full WAL, a crash after the rename but before the WAL reset must
recover the *new* snapshot (idempotently re-applying the WAL), and
stray ``.tmp`` manifests or orphaned run files must never be read.

The WAL record format is held separately: every value kind a put can
log round-trips through a crash-reopen as a run returns it, a record
whose crc32 verifies but whose payload does not decode is corruption
(never a silently truncated tail), an append completes across short
writes with exactly one record per write, and an old-format log is
refused. All of it is drawn from ``REPRO_DIFF_SEED``.
"""

import contextlib
import io
import os
import pickle
import re
import shutil
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine import ShardedEngine, WriteAheadLog, persist
from repro.engine.wal import (
    _HEADER, _RECORD_HEADER, OP_CLOCK, OP_DELETE, OP_PUT, scan_wal_file,
)
from repro.errors import CorruptionError, InvalidParameterError
from repro.filters import FilterSpec
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTable, pack_value
from repro.lsm.ttl import ExpiringValue

UNIVERSE = 2**16
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20240731"))


GRAFITE_SPEC = FilterSpec("grafite", bits_per_key=12, max_range_size=64, seed=3)


def record_run(
    directory: Path,
    *,
    n_ops: int = 60,
    checkpoint_every: Optional[int] = 25,
    filter_spec=None,
    compaction=None,
    drain_every: Optional[int] = None,
) -> Tuple[List[Dict[int, Any]], int, bytes]:
    """Drive a persistent engine; return per-op oracle states, the op
    index of the last checkpoint, and the final WAL bytes.
    ``drain_every`` runs deferred compaction steps mid-stream so
    non-default policies build real level topologies before the crash."""
    rng = np.random.default_rng(SEED)
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=16,
        compaction_fanout=3,
        filter_spec=filter_spec,
        directory=directory,
        compaction=compaction,
    )
    states: List[Dict[int, Any]] = [{}]
    last_checkpoint = 0
    for index in range(1, n_ops + 1):
        state = dict(states[-1])
        if rng.random() < 0.75 or not state:
            key = int(rng.integers(UNIVERSE))
            value = int(rng.integers(1 << 20))
            engine.put(key, value)
            state[key] = value
        else:
            key = int(
                list(state)[rng.integers(len(state))]
                if rng.random() < 0.7
                else rng.integers(UNIVERSE)
            )
            engine.delete(key)
            state.pop(key, None)
        states.append(state)
        if drain_every and index % drain_every == 0:
            engine.drain_compactions()
        if checkpoint_every and index % checkpoint_every == 0:
            engine.checkpoint()
            last_checkpoint = index
    engine.close(checkpoint=False)  # crash: leave the WAL as-is
    return states, last_checkpoint, (directory / "wal.log").read_bytes()


def recovered_state(directory: Path) -> Dict[int, Any]:
    engine = ShardedEngine.open(directory)
    try:
        return {k: v for k, v in engine.range_scan(0, UNIVERSE - 1)}
    finally:
        engine.close(checkpoint=False)


def count_whole_records(wal_path: Path) -> int:
    """Parse a (possibly torn) WAL with the production reader."""
    wal = WriteAheadLog(wal_path)
    try:
        return len(wal.recovered)
    finally:
        wal.close()


def truncation_offsets(wal_bytes: bytes, stride: int):
    offsets = list(range(len(_HEADER), len(wal_bytes) + 1, stride))
    if offsets[-1] != len(wal_bytes):
        offsets.append(len(wal_bytes))
    return offsets


def run_truncation_sweep(
    tmp_path: Path, *, filter_spec, stride: int, checkpoint_every=25,
    compaction=None, drain_every=None,
):
    db = tmp_path / "db"
    states, last_checkpoint, wal_bytes = record_run(
        db, filter_spec=filter_spec, checkpoint_every=checkpoint_every,
        compaction=compaction, drain_every=drain_every,
    )
    scratch = tmp_path / "scratch"
    shutil.copytree(db, scratch)
    wal_path = scratch / "wal.log"

    # The op count at the WAL's base: records in the file sit on top of
    # the last checkpoint's snapshot.
    parse = tmp_path / "parse"
    parse.mkdir()
    for offset in truncation_offsets(wal_bytes, stride):
        prefix = wal_bytes[:offset]
        parse_wal = parse / "wal.log"
        parse_wal.write_bytes(prefix)
        surviving = count_whole_records(parse_wal)
        expected_index = last_checkpoint + surviving
        # Prefix property: truncation can only lose unacknowledged tail
        # records, never checkpointed state.
        assert expected_index >= last_checkpoint
        assert expected_index <= len(states) - 1

        wal_path.write_bytes(prefix)
        got = recovered_state(scratch)
        want = states[expected_index]
        assert got == want, (
            f"offset {offset}: recovered {len(got)} keys, expected oracle "
            f"state after op {expected_index} "
            f"({len(want)} keys, checkpoint at {last_checkpoint})"
        )


def test_wal_truncation_every_byte(tmp_path):
    """The full sweep: every byte offset of a 60-record WAL (no mid-run
    checkpoints, so deep truncations cut far into acknowledged history)."""
    run_truncation_sweep(
        tmp_path, filter_spec=None, stride=1, checkpoint_every=None
    )


def test_wal_truncation_every_byte_with_checkpoints(tmp_path):
    """Every byte offset of the post-checkpoint WAL tail: truncation may
    lose tail records but never state from before the checkpoint."""
    run_truncation_sweep(tmp_path, filter_spec=None, stride=1)


def test_wal_truncation_with_filters(tmp_path):
    """Strided sweep with Grafite filters on every run (slower restore
    path: every reopen rebuilds each run's filter from its recorded spec)."""
    run_truncation_sweep(tmp_path, filter_spec=GRAFITE_SPEC, stride=7)


# ----------------------------------------------------------------------
# Checkpoint commit-point boundaries
# ----------------------------------------------------------------------
def checkpointed_engine(tmp_path):
    db = tmp_path / "db"
    states, last_checkpoint, _ = record_run(
        db, n_ops=40, checkpoint_every=20
    )
    return db, states, last_checkpoint


def test_crash_between_snapshot_and_wal_reset(tmp_path):
    """Snapshot written, manifest renamed, WAL *not* reset: replaying the
    stale WAL over the newer snapshot must be idempotent."""
    db, states, _ = checkpointed_engine(tmp_path)
    engine = ShardedEngine.open(db)
    engine.flush_all()
    # A checkpoint that dies right after the manifest rename.
    persist.save_snapshot(db, engine._params(), engine.shards)
    engine._wal.close()  # crash instead of engine.checkpoint()'s reset
    assert recovered_state(db) == states[-1]


def test_crash_before_manifest_rename_keeps_old_checkpoint(tmp_path):
    """New run files on disk but the manifest rename never happened: the
    previous checkpoint plus the full WAL still reconstructs everything.

    Replays exactly what :func:`persist.save_snapshot` does *before* its
    commit point — new-generation run files and the ``.tmp`` manifest —
    then crashes. The old manifest must still be honoured, and the old
    generation's files are untouched (GC only runs after the rename).
    """
    import json

    db, states, _ = checkpointed_engine(tmp_path)
    manifest = persist.load_manifest(db)
    engine = ShardedEngine.open(db)
    engine.flush_all()
    generation = manifest["generation"] + 1
    for sid, store in enumerate(engine.shards):
        shard_dir = db / f"shard-{sid:04d}"
        for j, run in enumerate(store.level0_runs):
            (shard_dir / f"run-{generation:06d}-{j:04d}.sst").write_bytes(
                persist.run_to_bytes(run)
            )
        if store.bottom_run is not None:
            (shard_dir / f"bottom-{generation:06d}.sst").write_bytes(
                persist.run_to_bytes(store.bottom_run)
            )
    (db / (persist.MANIFEST_NAME + ".tmp")).write_text(
        json.dumps({**manifest, "generation": generation})
    )
    engine._wal.close()  # crash before the rename commits
    assert recovered_state(db) == states[-1]


def test_torn_manifest_tmp_is_ignored(tmp_path):
    """A torn ``MANIFEST.json.tmp`` (crash mid-write) must never be read."""
    db, states, _ = checkpointed_engine(tmp_path)
    (db / (persist.MANIFEST_NAME + ".tmp")).write_text("{ not json")
    assert recovered_state(db) == states[-1]


def test_orphan_run_files_are_ignored(tmp_path):
    """Stray ``.sst`` files from a dead checkpoint don't poison recovery."""
    db, states, _ = checkpointed_engine(tmp_path)
    (db / "shard-0000" / "run-999999-0000.sst").write_bytes(b"\x00garbage")
    assert recovered_state(db) == states[-1]


def test_wal_truncation_leveled_topology(tmp_path):
    """Strided sweep with leveled compaction live mid-stream: checkpoints
    snapshot a real sliced topology (manifest v2), deferred steps churn
    it between checkpoints, and every truncation offset must still
    recover exactly the oracle state on the restored slices."""
    from repro.lsm import LeveledPolicy

    run_truncation_sweep(
        tmp_path,
        filter_spec=GRAFITE_SPEC,
        stride=11,
        checkpoint_every=20,
        compaction=LeveledPolicy(slice_target=8),
        drain_every=7,
    )


def test_wal_truncation_tiered_topology(tmp_path):
    """Same sweep under tiered compaction: cascaded levels in the
    checkpoint, recovery replays the tail onto them."""
    run_truncation_sweep(
        tmp_path,
        filter_spec=None,
        stride=13,
        checkpoint_every=20,
        compaction="tiered",
        drain_every=5,
    )


def test_truncation_inside_header(tmp_path):
    """A crash before the WAL header finished must not brick recovery —
    the log restarts and only unacknowledged post-checkpoint writes are
    lost (exactly the oracle state at the last checkpoint)."""
    db, states, last_checkpoint = checkpointed_engine(tmp_path)
    wal = db / "wal.log"
    wal.write_bytes(wal.read_bytes()[:3])  # even the magic is torn
    assert recovered_state(db) == states[last_checkpoint]


# ----------------------------------------------------------------------
# At-rest run-blob corruption: bit-flip and truncation sweeps
# ----------------------------------------------------------------------
# The contract under at-rest damage is "CorruptionError or rollback,
# never a silent wrong answer": a checksum-detected corrupt run in the
# newest epoch makes ``open`` fall back to the retained previous epoch
# (replaying the current WAL on top), and only when *both* epochs are
# damaged may it raise — it must never return a state that disagrees
# with every oracle.


def _op_between(before: Dict[int, Any], after: Dict[int, Any]):
    """Recover the single put/delete that turned ``before`` into
    ``after`` (or ``None`` for a no-op delete of an absent key)."""
    for k, v in after.items():
        if k not in before or before[k] != v:
            return (k, v)
    for k in before:
        if k not in after:
            return (k, None)
    return None


def _rollback_oracle(
    states: List[Dict[int, Any]], prev_checkpoint: int, last_checkpoint: int
) -> Dict[int, Any]:
    """State after promoting the previous epoch and replaying the
    current WAL (ops ``last_checkpoint+1 ..``) on top of it — the
    documented loss window is ops ``prev_checkpoint+1 .. last_checkpoint``."""
    state = dict(states[prev_checkpoint])
    for index in range(last_checkpoint + 1, len(states)):
        op = _op_between(states[index - 1], states[index])
        if op is None:
            continue
        key, value = op
        if value is None:
            state.pop(key, None)
        else:
            state[key] = value
    return state


def _current_epoch_blobs(db: Path) -> List[Path]:
    manifest = persist.load_manifest(db)
    blobs: List[Path] = []
    for sid, names in sorted(persist.referenced_runs(manifest).items()):
        blobs.extend(db / f"shard-{sid:04d}" / name for name in sorted(names))
    return blobs


def _corruption_sweep(tmp_path, damage):
    """Record a two-checkpoint run, then apply ``damage(FaultyDir, blob)``
    to every current-epoch run blob in turn; each reopen must either
    roll back to the previous epoch's oracle or raise CorruptionError."""
    from repro import CorruptionError, faults

    db = tmp_path / "db"
    states, last_checkpoint, _ = record_run(db, n_ops=60, checkpoint_every=25)
    prev_checkpoint = last_checkpoint - 25
    want_rollback = _rollback_oracle(states, prev_checkpoint, last_checkpoint)
    blobs = _current_epoch_blobs(db)
    assert blobs, "sweep needs at least one current-epoch run blob"

    rollbacks = 0
    for index, blob in enumerate(blobs):
        scratch = tmp_path / f"scratch-{index}"
        shutil.copytree(db, scratch)
        chaos = faults.FaultyDir(scratch, faults.FaultPlan(seed=SEED + index))
        damage(chaos, scratch / blob.relative_to(db))
        scrub = persist.scrub_snapshot(scratch)
        assert not scrub["ok"], f"scrub missed the damage to {blob.name}"
        try:
            with pytest.warns(UserWarning, match="rolled back"):
                engine = ShardedEngine.open(scratch)
        except CorruptionError:
            continue  # acceptable only when rollback itself is impossible
        try:
            assert engine.rolled_back
            got = {k: v for k, v in engine.range_scan(0, UNIVERSE - 1)}
        finally:
            engine.close(checkpoint=False)
        assert got == want_rollback, (
            f"{blob.name}: rollback state diverged from the previous-epoch "
            f"oracle ({len(got)} keys vs {len(want_rollback)})"
        )
        rollbacks += 1
    # The previous epoch is intact in every trial, so rollback must have
    # actually succeeded (CorruptionError is the both-epochs-dead path).
    assert rollbacks == len(blobs)


def test_run_blob_bit_flip_sweep(tmp_path):
    """One flipped bit in any newest-epoch run blob: checksums catch it
    and ``open`` rolls back to the previous epoch + current WAL."""
    _corruption_sweep(tmp_path, lambda chaos, blob: chaos.flip_bit(path=blob))


def test_run_blob_truncation_sweep(tmp_path):
    """A truncated newest-epoch run blob (torn at a seeded offset) must
    likewise roll back — structural parsing never trusts a short blob."""
    _corruption_sweep(tmp_path, lambda chaos, blob: chaos.truncate(path=blob))


def test_both_epochs_corrupt_raises_corruption_error(tmp_path):
    """When the previous epoch is damaged too there is nothing safe to
    serve: ``open`` must raise CorruptionError, not invent an answer."""
    import json

    from repro import CorruptionError, faults

    db = tmp_path / "db"
    record_run(db, n_ops=60, checkpoint_every=25)
    chaos = faults.FaultyDir(db, faults.FaultPlan(seed=SEED))
    for blob in _current_epoch_blobs(db):
        chaos.flip_bit(path=blob)
    prev = json.loads((db / persist.PREV_MANIFEST_NAME).read_text())
    for sid, names in sorted(persist.referenced_runs(prev).items()):
        for name in sorted(names):
            chaos.flip_bit(path=db / f"shard-{sid:04d}" / name)
    with pytest.raises(CorruptionError):
        ShardedEngine.open(db)


# ----------------------------------------------------------------------
# TTL expiry across crashes (ISSUE 9): expired state must never come back
# ----------------------------------------------------------------------
def _ttl_engine(db: Path):
    """A persistent engine holding live keys plus a doomed TTL'd range.

    Returns the engine with the doomed range already expired *and*
    compacted away (clock at 20, every doomed key's deadline at 10):
    runs have been rewritten with the expired entries dropped or turned
    to tombstones, fully-expired bottom runs aged out."""
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=16, directory=db
    )
    for key in range(0, 500, 7):
        engine.put(key, key)  # immortal
    for key in DOOMED:
        engine.put(key, b"doomed", expires_at=10)
    engine.flush_all()
    engine.checkpoint()
    engine.advance_clock(20)
    for store in engine.shards:
        store.request_compaction()
    engine.drain_compactions()
    assert engine.range_empty(DOOMED[0], DOOMED[-1])
    return engine


DOOMED = list(range(40_000, 40_600, 3))


def _assert_doomed_stays_dead(db: Path) -> None:
    engine = ShardedEngine.open(db)
    try:
        assert engine.ttl_now == 20, "recovery lost the TTL clock"
        assert engine.range_empty(DOOMED[0], DOOMED[-1]), (
            "recovery resurrected an expired range"
        )
        assert all(engine.get(key) is None for key in DOOMED[::17])
        recovered = {k for k, _ in engine.range_scan(0, UNIVERSE - 1)}
        assert not recovered.intersection(DOOMED)
        assert set(range(0, 500, 7)) <= recovered, "live keys were lost"
    finally:
        engine.close(checkpoint=False)


def test_ttl_crash_mid_checkpoint_never_resurrects_expired_range(tmp_path):
    """Kill mid-checkpoint during a TTL-expiring compaction: the snapshot
    commits (manifest renamed) but the WAL — still carrying the doomed
    puts and the clock advance — is never reset. Replaying that stale
    WAL over the newer snapshot must not resurrect the expired-and-aged-
    out range: the OP_CLOCK record restores the logical time before any
    query runs."""
    db = tmp_path / "db"
    engine = _ttl_engine(db)
    persist.save_snapshot(db, engine._params(), engine.shards)
    engine._wal.close()  # crash instead of the WAL reset
    _assert_doomed_stays_dead(db)


def test_ttl_crash_before_checkpoint_replays_clock_from_wal(tmp_path):
    """Crash with *only* the pre-expiry checkpoint on disk: recovery
    replays the WAL tail — doomed puts with their deadlines, then the
    clock advance — on top of the old snapshot. The range must still
    come back dead: expiry is decided by the restored clock, not by
    whether compaction got to rewrite the runs before the crash."""
    db = tmp_path / "db"
    engine = _ttl_engine(db)
    engine._wal.close()  # crash; newest durable manifest predates expiry
    _assert_doomed_stays_dead(db)


def test_ttl_wal_truncation_before_clock_record_is_not_resurrection(tmp_path):
    """Tear the WAL just before the OP_CLOCK record: the doomed puts are
    acknowledged-and-durable but the clock advance is not, so recovery
    legitimately serves them as unexpired (clock still 0). That is the
    torn-tail contract, not resurrection — and re-advancing the clock
    after recovery must kill the range again."""
    db = tmp_path / "db"
    engine = _ttl_engine(db)
    engine._wal.close()
    wal_path = db / "wal.log"
    wal_bytes = wal_path.read_bytes()

    # Find the byte offset where replaying stops yielding the clock: the
    # largest prefix whose production parse has no OP_CLOCK record.
    parse = tmp_path / "parse"
    parse.mkdir()
    cut = None
    for offset in range(len(wal_bytes), len(_HEADER) - 1, -1):
        (parse / "wal.log").write_bytes(wal_bytes[:offset])
        wal = WriteAheadLog(parse / "wal.log")
        records = list(wal.recovered)
        wal.close()
        if all(op != OP_CLOCK for op, _, _ in records):
            cut = offset
            break
    assert cut is not None and cut > len(_HEADER)
    wal_path.write_bytes(wal_bytes[:cut])

    engine = ShardedEngine.open(db)
    try:
        assert engine.ttl_now == 0
        assert not engine.range_empty(DOOMED[0], DOOMED[-1])
        engine.advance_clock(20)
        assert engine.range_empty(DOOMED[0], DOOMED[-1])
    finally:
        engine.close(checkpoint=False)


def test_previous_epoch_damage_alone_is_harmless(tmp_path):
    """Corrupting only previous-epoch blobs must not disturb a clean
    open of the newest epoch (no rollback, exact final oracle state)."""
    from repro import faults

    db = tmp_path / "db"
    states, _, _ = record_run(db, n_ops=60, checkpoint_every=25)
    import json

    prev = json.loads((db / persist.PREV_MANIFEST_NAME).read_text())
    current = {
        (sid, name)
        for sid, names in persist.referenced_runs(
            persist.load_manifest(db)
        ).items()
        for name in names
    }
    chaos = faults.FaultyDir(db, faults.FaultPlan(seed=SEED))
    flipped = 0
    for sid, names in sorted(persist.referenced_runs(prev).items()):
        for name in sorted(names):
            if (sid, name) not in current:
                chaos.flip_bit(path=db / f"shard-{sid:04d}" / name)
                flipped += 1
    assert flipped, "expected the previous epoch to own at least one blob"
    engine = ShardedEngine.open(db)
    try:
        assert not engine.rolled_back
        assert {k: v for k, v in engine.range_scan(0, UNIVERSE - 1)} == states[-1]
    finally:
        engine.close(checkpoint=False)


# ----------------------------------------------------------------------
# WAL record format: typed values, undecodable records, short writes
# ----------------------------------------------------------------------
class Opaque:
    """An object only the pickle lane can carry."""

    def __init__(self, items):
        self.items = items

    def __eq__(self, other):
        return isinstance(other, Opaque) and self.items == other.items


def every_value_kind(rng) -> List[Any]:
    """One value of every kind a put can log, seeded where it has room."""
    small = int(rng.integers(-1000, 1000))
    return [
        None, True, False,
        -(2**63), 2**63 - 1, small,
        2**64 + int(rng.integers(0, 99)),  # past int64: pickle lane
        float("nan"), -0.0, float(rng.normal()),
        bytes(rng.integers(0, 256, 5, dtype=np.uint8)), b"",
        bytearray(b"ba"),
        f"héllo ☃ {small}", "",
        ExpiringValue(b"x", 10**6 + small),
        ExpiringValue(ExpiringValue(small, 10**6), 10**6 + 1),  # nested
        ExpiringValue("late", 2**64 + 1),  # deadline past u64
        Opaque((small, "o")),
        {"nested": [1, (2, small)]},
    ]


def same_value(a, b) -> bool:
    """Equality by type and value; floats by bits (NaN, -0.0)."""
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, ExpiringValue) and isinstance(b, ExpiringValue):
        return a.expires_at == b.expires_at and same_value(a.value, b.value)
    return type(a) is type(b) and a == b


def wal_record(payload: bytes) -> bytes:
    return _RECORD_HEADER.pack(zlib.crc32(payload), len(payload)) + payload


def record_sizes(wal_bytes: bytes) -> List[int]:
    """Byte length of every whole record in an intact WAL image."""
    sizes, offset = [], len(_HEADER)
    while offset < len(wal_bytes):
        _, length = _RECORD_HEADER.unpack_from(wal_bytes, offset)
        sizes.append(_RECORD_HEADER.size + length)
        offset += sizes[-1]
    return sizes


def test_wal_round_trips_every_value_kind_through_crash_reopen(tmp_path):
    """What replay recovers is what a run returns for the same value
    once flushed: a bytearray comes back as bytes in both."""
    rng = np.random.default_rng(SEED)
    values = every_value_kind(rng)
    keys = sorted(int(k) for k in rng.choice(UNIVERSE, len(values), replace=False))
    db = tmp_path / "db"
    engine = ShardedEngine(
        UNIVERSE, num_shards=2, memtable_limit=1000, directory=db
    )
    for key, value in zip(keys, values):
        engine.put(key, value)
    engine.close(checkpoint=False)  # crash: every value lives in the WAL only

    records, _, _ = scan_wal_file(db / "wal.log")
    assert [(op, key) for op, key, _ in records] == [(OP_PUT, k) for k in keys]
    run = SSTable(list(zip(keys, values)), UNIVERSE)
    for (_, key, recovered), value in zip(records, values):
        found, from_run = run.get(key)
        assert found and same_value(recovered, from_run), (value, recovered)
    assert records[values.index(bytearray(b"ba"))][2] == b"ba"
    assert type(records[values.index(bytearray(b"ba"))][2]) is bytes

    engine = ShardedEngine.open(db)
    try:
        replayed = [engine.get(key) for key in keys]
        engine.flush_all()
        flushed = [engine.get(key) for key in keys]
    finally:
        engine.close(checkpoint=False)
    for key, a, b in zip(keys, replayed, flushed):
        assert same_value(a, b), (key, a, b)


def test_wal_of_every_value_kind_truncated_at_every_byte(tmp_path):
    """Each prefix of a log holding every value kind recovers exactly
    its whole records: a torn typed record is a tail, never corruption."""
    rng = np.random.default_rng(SEED)
    values = every_value_kind(rng)
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        for key, value in enumerate(values):
            wal.log_put(key, value)
        wal.log_delete(3)
        wal.log_clock(int(rng.integers(1, 1 << 40)))
    wal_bytes = path.read_bytes()
    full, _, _ = scan_wal_file(path)
    ends = np.cumsum([len(_HEADER)] + record_sizes(wal_bytes))
    for offset in range(len(_HEADER), len(wal_bytes) + 1):
        path.write_bytes(wal_bytes[:offset])
        wal = WriteAheadLog(path)
        try:
            got = wal.recovered
        finally:
            wal.close()
        whole = int(np.searchsorted(ends, offset, side="right")) - 1
        assert len(got) == whole, offset
        for (op, key, value), (w_op, w_key, w_value) in zip(got, full):
            assert (op, key) == (w_op, w_key) and same_value(value, w_value)
        assert path.stat().st_size == ends[whole]  # the torn tail is cut


#: Payloads whose crc32 will verify but which no append writes.
UNDECODABLE = {
    "unknown opcode": struct.pack("<BQ", 9, 5),
    "short payload": b"\x01\x02\x03",
    "delete with a value": struct.pack("<BQ", OP_DELETE, 5) + b"\x00",
    "clock with a value": struct.pack("<BQ", OP_CLOCK, 5) + b"\x01",
    "put without a tag": struct.pack("<BQ", OP_PUT, 5),
    "unknown tag": struct.pack("<BQB", OP_PUT, 5, 0x0F),
    "tombstone tag": struct.pack("<BQB", OP_PUT, 5, 0),
    "short int body": struct.pack("<BQB", OP_PUT, 5, 2) + b"\x01\x02\x03",
    "long float body": struct.pack("<BQB", OP_PUT, 5, 3) + b"\x00" * 9,
    "bool body out of range": struct.pack("<BQB", OP_PUT, 5, 7) + b"\x02",
    "None with a body": struct.pack("<BQB", OP_PUT, 5, 1) + b"x",
    "expiry cut short": struct.pack("<BQB", OP_PUT, 5, 0x84) + b"\x00" * 4,
    "str that is not utf-8": struct.pack("<BQB", OP_PUT, 5, 5) + b"\xff\xfe",
    "pickle that does not load": struct.pack("<BQB", OP_PUT, 5, 6) + b"\x80\x05junk",
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_crc_valid_record_that_does_not_decode_is_corruption(tmp_path, case):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        for _ in range(int(rng.integers(1, 5))):
            wal.log_put(int(rng.integers(UNIVERSE)), int(rng.integers(1 << 20)))
    offset = path.stat().st_size
    good_after = wal_record(struct.pack("<BQ", OP_DELETE, 1))
    with open(path, "ab") as fh:
        fh.write(wal_record(UNDECODABLE[case]) + good_after)
    before = path.read_bytes()
    where = re.escape(str(path)) + f".* at byte {offset} "

    with pytest.raises(CorruptionError, match=where):
        WriteAheadLog(path)
    with pytest.raises(CorruptionError, match=where):
        scan_wal_file(path)
    assert path.read_bytes() == before  # never truncated away

    report = persist.scrub_snapshot(tmp_path)
    assert not report["ok"] and report["wal"] == "corrupt"
    assert any(f"at byte {offset} " in error for error in report["errors"])


def test_engine_open_refuses_an_undecodable_record(tmp_path):
    db = tmp_path / "db"
    engine = ShardedEngine(UNIVERSE, num_shards=2, directory=db)
    engine.put(int(np.random.default_rng(SEED).integers(UNIVERSE)), b"v")
    engine.close(checkpoint=False)
    wal_path = db / "wal.log"
    offset = wal_path.stat().st_size
    with open(wal_path, "ab") as fh:
        fh.write(wal_record(UNDECODABLE["unknown tag"]))
    with pytest.raises(CorruptionError, match=f"at byte {offset} "):
        ShardedEngine.open(db)
    assert wal_path.stat().st_size == offset + len(wal_record(UNDECODABLE["unknown tag"]))


def test_scrub_reports_an_intact_chain_and_a_torn_tail(tmp_path):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "wal.log"
    values = every_value_kind(rng)
    with WriteAheadLog(path) as wal:
        for value in values:
            wal.log_put(int(rng.integers(UNIVERSE)), value)
    n = len(values)
    report = persist.scrub_snapshot(tmp_path)
    assert report["ok"]
    assert report["wal"] == {
        "records": n, "valid_bytes": path.stat().st_size,
        "total_bytes": path.stat().st_size, "torn_tail": False,
    }
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:size - int(rng.integers(1, 5))])
    report = persist.scrub_snapshot(tmp_path)
    assert report["ok"] and report["wal"]["torn_tail"]
    assert report["wal"]["records"] == n - 1


class PieceWriter:
    """A raw handle whose ``write`` takes at most ``piece`` bytes a call
    (``piece=None``: all of it); it logs what each call was given."""

    def __init__(self, raw, piece: Optional[int]):
        self.raw = raw
        self.piece = piece
        self.given: List[bytes] = []

    def write(self, data) -> int:
        data = bytes(data)
        self.given.append(data)
        return self.raw.write(data if self.piece is None else data[:self.piece])

    def __getattr__(self, name):
        return getattr(self.raw, name)


def log_every_kind(wal: WriteAheadLog, rng) -> None:
    for key, value in enumerate(every_value_kind(rng)):
        wal.log_put(key, value)
    wal.log_delete(int(rng.integers(UNIVERSE)))
    wal.log_clock(int(rng.integers(1, 1 << 40)))


def test_short_writes_still_append_whole_records(tmp_path, monkeypatch):
    """A raw handle that takes each record in pieces: every append
    completes, and the log is byte-identical to one written whole."""
    piece = int(np.random.default_rng(SEED).integers(1, 4))
    whole_path, piece_path = tmp_path / "whole.log", tmp_path / "pieces.log"
    with WriteAheadLog(whole_path) as wal:
        log_every_kind(wal, np.random.default_rng(SEED))
    wal = WriteAheadLog(piece_path)
    pieces = PieceWriter(wal._fh._fh, piece)
    monkeypatch.setattr(wal._fh, "_fh", pieces)
    log_every_kind(wal, np.random.default_rng(SEED))
    wal.close()
    sizes = record_sizes(whole_path.read_bytes())
    assert len(pieces.given) > len(sizes)  # records really went in pieces
    assert piece_path.read_bytes() == whole_path.read_bytes()
    recovered = WriteAheadLog(piece_path)
    try:
        got = recovered.recovered
    finally:
        recovered.close()
    want, _, _ = scan_wal_file(whole_path)
    assert len(got) == len(want) == len(sizes)
    for (op, key, value), (w_op, w_key, w_value) in zip(got, want):
        assert (op, key) == (w_op, w_key) and same_value(value, w_value)


def test_a_put_cannot_log_the_tombstone(tmp_path):
    """The tombstone has no value encoding: a delete is its own opcode."""
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        with pytest.raises(InvalidParameterError, match="tombstone"):
            wal.log_put(1, TOMBSTONE)
    assert path.read_bytes() == _HEADER


def test_bytes_shortcut_packs_as_the_general_encoding():
    """``pack_value`` skips the heap copy for exact ``bytes``; a
    bytearray of the same bytes takes ``_encode_one`` and must pack to
    the same string."""
    rng = np.random.default_rng(SEED)
    for n in (0, 1, 7, 300):
        blob = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert pack_value(blob) == pack_value(bytearray(blob))


def test_each_append_is_one_write_of_one_record(tmp_path, monkeypatch):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    writes = PieceWriter(wal._fh._fh, None)
    monkeypatch.setattr(wal._fh, "_fh", writes)
    log_every_kind(wal, np.random.default_rng(SEED))
    wal.close()
    wal_bytes = path.read_bytes()
    assert [len(data) for data in writes.given] == record_sizes(wal_bytes)
    assert b"".join(writes.given) == wal_bytes[len(_HEADER):]


def test_v1_wal_is_refused(tmp_path):
    """Only the current record format loads; a v1 (pickled-value) log is
    refused on open and by the read-only scan, reported corrupt by scrub
    (which exits 1 with a report, not 2 with a usage error), and left
    untouched."""
    path = tmp_path / "wal.log"
    payload = struct.pack("<BQ", OP_PUT, 5) + pickle.dumps(
        "five", protocol=pickle.HIGHEST_PROTOCOL
    )
    path.write_bytes(b"RWAL" + struct.pack("<H", 1) + wal_record(payload))
    before = path.read_bytes()
    with pytest.raises(InvalidParameterError, match="unsupported WAL version 1"):
        WriteAheadLog(path)
    with pytest.raises(InvalidParameterError, match="unsupported WAL version 1"):
        scan_wal_file(path)
    report = persist.scrub_snapshot(tmp_path)
    assert not report["ok"] and report["wal"] == "corrupt"
    assert any("unsupported WAL version 1" in error for error in report["errors"])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli_main(["scrub", "--dir", str(tmp_path)])
    assert code == 1 and "unsupported WAL version 1" in out.getvalue()
    assert path.read_bytes() == before
