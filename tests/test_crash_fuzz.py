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
"""

import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.grafite import Grafite
from repro.engine import ShardedEngine, WriteAheadLog, persist
from repro.engine.wal import _HEADER

UNIVERSE = 2**16
SEED = int(os.environ.get("REPRO_DIFF_SEED", "20240731"))


def grafite_factory(keys, universe):
    return Grafite(keys, universe, bits_per_key=12, max_range_size=64, seed=3)


def record_run(
    directory: Path,
    *,
    n_ops: int = 60,
    checkpoint_every: Optional[int] = 25,
    filter_factory=None,
    compaction=None,
    drain_every: Optional[int] = None,
) -> Tuple[List[Dict[int, Any]], int, bytes]:
    """Drive a persistent engine; return per-op oracle states, the op
    index of the last checkpoint, and the final WAL bytes.
    ``drain_every`` runs deferred compaction steps mid-stream so
    non-default policies build real level topologies before the crash."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    engine = ShardedEngine(
        UNIVERSE,
        num_shards=2,
        memtable_limit=16,
        compaction_fanout=3,
        filter_factory=filter_factory,
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


def recovered_state(directory: Path, filter_factory=None) -> Dict[int, Any]:
    engine = ShardedEngine.open(directory, filter_factory=filter_factory)
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
    tmp_path: Path, *, filter_factory, stride: int, checkpoint_every=25,
    compaction=None, drain_every=None,
):
    db = tmp_path / "db"
    states, last_checkpoint, wal_bytes = record_run(
        db, filter_factory=filter_factory, checkpoint_every=checkpoint_every,
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
        got = recovered_state(scratch, filter_factory)
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
        tmp_path, filter_factory=None, stride=1, checkpoint_every=None
    )


def test_wal_truncation_every_byte_with_checkpoints(tmp_path):
    """Every byte offset of the post-checkpoint WAL tail: truncation may
    lose tail records but never state from before the checkpoint."""
    run_truncation_sweep(tmp_path, filter_factory=None, stride=1)


def test_wal_truncation_with_filters(tmp_path):
    """Strided sweep with Grafite filters on every run (slower restore
    path: snapshots carry filter blobs that must deserialise bit-exact)."""
    run_truncation_sweep(tmp_path, filter_factory=grafite_factory, stride=7)


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
        filter_factory=grafite_factory,
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
        filter_factory=None,
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
    from repro.engine.wal import OP_CLOCK

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
