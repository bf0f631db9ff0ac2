"""On-disk snapshots of engine state (runs, filters, manifest).

A checkpoint writes one directory:

``MANIFEST.json`` — engine parameters plus, per shard, the run file
names describing the level topology: level 0 newest first, then every
deep level (L1 first, each level's runs in storage order — slices
key-sorted under leveled compaction, age-sorted under tiered);
``MANIFEST.prev.json`` — a retained copy of the *previous* epoch's
manifest, kept so :meth:`ShardedEngine.open` can roll back when the
newest checkpoint fails verification; ``shard-<i>/*.sst`` — one file
per run; ``wal.log`` — the write-ahead log, reset by the checkpoint
and replayed over the snapshot on reopen.

Run format **v5** is columnar and mmap-able: a fixed 96-byte header of
section offsets, then the run's 8-byte-aligned columns exactly as
:class:`~repro.lsm.sstable.SSTable` holds them in memory — sorted
``<u8`` keys, the one-byte value tags, the ``va``/``vb``/``vexp``
operand words, and the var-width value heap — followed by a **per-block
crc32 array** (one checksum per :data:`~repro.lsm.sstable.BLOCK_ENTRIES`
block, covering that block's slice of every column plus its contiguous
heap span) and a metadata section sealed by a crc32 over the header and
metadata together. Loading a run file goes through ``np.memmap``: the
columns become zero-copy views over the page cache and no value is
deserialised until something actually reads it. There is no whole-run
pickle: values are typed column entries, and only genuinely opaque
objects take a per-value pickle lane inside the heap.

Every checksum failure raises :class:`~repro.errors.CorruptionError` —
the storage layer never serves bytes that failed verification; crc32
detects every single-bit flip and every burst shorter than 32 bits,
which covers the realistic torn-write and bit-rot cases the crash-fuzz
and chaos suites inject (see ``docs/robustness.md``). Alignment padding
is required to be zero, so no byte of a run file is outside some
check's coverage.

Durability follows the classic rename-commit protocol, with the fsyncs
real filesystems require: every run blob is fsynced, the manifest is
written to a tmp file and fsynced, the shard directories and the root
directory are fsynced, and only then does the rename of the tmp file
onto ``MANIFEST.json`` commit the checkpoint. Run files are
generation-stamped and never overwritten; garbage collection keeps the
union of the files referenced by the current *and* previous manifests,
so the last two checkpoint epochs are always on disk intact. (On POSIX,
unlinking a GC'd file a reader still has mapped is safe — the mapping
survives until the last column view over it is dropped.)

Only the formats this module writes load: run format v5 and manifest
version 3. Any other version stamp raises
:class:`~repro.errors.CorruptionError` naming the version.

A run file records *how* its filter was built, not the filter itself:
the :class:`~repro.filters.registry.FilterSpec` parameters as JSON, or
JSON ``null`` for a run without a filter. Every registry backend is a
pure function of its keys and its seeded spec, so loading rebuilds the
filter from the run's key column — once every checksum has passed — and
gets the same hash constants, the same size and the same verdicts as
before the restart, in any process. The cost moves from the file to
the load: a rebuild per filtered run (``docs/storage.md`` measures it).
A filter that no spec built cannot be checkpointed.

All file I/O routes through :mod:`repro.faults` so the chaos suites can
inject torn writes, bit flips and EIO at exactly this seam; with no
fault plan installed those helpers are passthroughs. When a fault plan
targets a run file, loading falls back from ``np.memmap`` to the
byte-reading seam so injected damage is actually observed.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro import faults
from repro.errors import CorruptionError, InvalidParameterError, ReproError
from repro.filters.registry import FilterSpec
from repro.lsm.sstable import (
    BLOCK_ENTRIES,
    FilterFactory,
    SSTable,
    _heap_mask,
)
from repro.lsm.store import LSMStore

_RUN_MAGIC = b"RSST"
_RUN_VERSION = 5          # columnar, mmap-able, filter spec; the only version read
_HEADER = 96              # magic(4) version(2) hdr_size(2) n(8) + 10 u64s

MANIFEST_NAME = "MANIFEST.json"
PREV_MANIFEST_NAME = "MANIFEST.prev.json"
MANIFEST_VERSION = 3      # carries a crc32 field; the only version read


def pack_int(value: int) -> bytes:
    """Length-prefixed little-endian encoding of a non-negative int
    (universes and slice bounds may exceed 64 bits)."""
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "little")
    return struct.pack("<I", len(raw)) + raw


def unpack_int(buf: bytes, offset: int) -> Tuple[int, int]:
    """Inverse of :func:`pack_int`: ``(value, offset past it)``."""
    (length,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    raw = buf[offset:offset + length]
    if len(raw) != length:
        raise CorruptionError("run metadata integer truncated")
    return int.from_bytes(raw, "little"), offset + length


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def stable_run_id(shard_id: int, name: str) -> int:
    """Deterministic 64-bit identity of a checkpointed run file.

    Every process that loads ``shard-<sid>/<name>`` derives the same id,
    which is what lets the shared-memory block cache
    (:class:`~repro.lsm.cache.SharedBlockCache`) key one worker's
    admissions so another worker's probes hit them. Derived from the
    *name*, which is generation-stamped and never reused within a
    directory.
    """
    digest = hashlib.blake2b(
        f"shard-{shard_id:04d}/{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


# ----------------------------------------------------------------------
# Run files — writer
# ----------------------------------------------------------------------
def _block_crcs(
    keys: np.ndarray,
    tags: np.ndarray,
    va: np.ndarray,
    vb: np.ndarray,
    vexp: np.ndarray,
    heap,
) -> np.ndarray:
    """crc32 per block over its column slices + its heap span, computed
    incrementally over buffer views — no intermediate copies.

    Heap payloads are appended in entry order
    (:func:`~repro.lsm.sstable._encode_one`), so a block's heap span is
    contiguous: from its first heap-typed entry's offset to its last's
    end. One mask over the tag column finds every heap entry and one
    ``searchsorted`` of the block bounds finds each block's first and
    last of them.
    """
    n = int(keys.size)
    starts = np.arange(0, n, BLOCK_ENTRIES)
    heap_idx = np.flatnonzero(_heap_mask(tags))
    first = np.searchsorted(heap_idx, starts).tolist()
    last = (np.searchsorted(heap_idx, starts + BLOCK_ENTRIES) - 1).tolist()
    heap_mv = memoryview(heap)
    crcs = np.empty(starts.size, dtype=np.uint32)
    for b, start in enumerate(starts.tolist()):
        stop = start + BLOCK_ENTRIES
        crc = zlib.crc32(keys[start:stop])
        crc = zlib.crc32(tags[start:stop], crc)
        crc = zlib.crc32(va[start:stop], crc)
        crc = zlib.crc32(vb[start:stop], crc)
        crc = zlib.crc32(vexp[start:stop], crc)
        if first[b] <= last[b]:
            lo_entry = int(heap_idx[first[b]])
            hi_entry = int(heap_idx[last[b]])
            heap_lo = int(va[lo_entry])
            heap_hi = int(va[hi_entry]) + int(vb[hi_entry])
            if heap_hi > heap_lo:
                crc = zlib.crc32(heap_mv[heap_lo:heap_hi], crc)
        crcs[b] = crc & 0xFFFFFFFF
    return crcs


def _spec_part(run: SSTable) -> bytes:
    """The run's filter spec as length-prefixed JSON (``null``: no filter).

    Raises :class:`~repro.errors.InvalidParameterError` for a filter no
    :class:`FilterSpec` built: nothing could rebuild it on load.
    """
    filt = run.filter
    params = None
    if filt is not None:
        if getattr(filt, "spec", None) is None:
            raise InvalidParameterError(
                f"{type(filt).__name__} filter was not built by a FilterSpec, "
                "so a checkpoint cannot rebuild it"
            )
        params = filt.spec.to_params()
    raw = json.dumps(params, sort_keys=True, allow_nan=False).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _bounds_part(run: SSTable) -> bytes:
    bounds = run.slice_bounds
    if bounds is None:
        return struct.pack("<B", 0)
    return struct.pack("<B", 1) + pack_int(bounds[0]) + pack_int(bounds[1])


def run_to_bytes(run: SSTable) -> bytes:
    """Serialise one immutable run in columnar format v5.

    Layout: a 96-byte header (magic, version, entry count, the offset of
    every section, heap and metadata lengths), then 8-byte-aligned
    sections — keys, tags, ``va``, ``vb``, ``vexp``, heap, the per-block
    crc32 array, and metadata (universe, slice bounds, the filter's spec
    record) ending in a crc32 over header+metadata. The section layout
    is byte-identical to what ``np.memmap`` hands back on load, so
    writing is a straight column dump and loading is zero-copy.
    """
    keys = np.ascontiguousarray(run.keys_view(), dtype=np.uint64)
    tags_c, va_c, vb_c, vexp_c, heap = run.value_columns()
    tags = np.ascontiguousarray(tags_c, dtype=np.uint8)
    va = np.ascontiguousarray(va_c, dtype=np.uint64)
    vb = np.ascontiguousarray(vb_c, dtype=np.uint64)
    vexp = np.ascontiguousarray(vexp_c, dtype=np.uint64)
    n = int(keys.size)
    nblocks = -(-n // BLOCK_ENTRIES)
    heap_len = len(heap)

    off_keys = _HEADER
    off_tags = off_keys + 8 * n
    off_va = _align8(off_tags + n)
    off_vb = off_va + 8 * n
    off_vexp = off_vb + 8 * n
    off_heap = off_vexp + 8 * n
    off_blockcrc = _align8(off_heap + heap_len)
    off_meta = _align8(off_blockcrc + 4 * nblocks)

    meta_body = pack_int(run.universe) + _bounds_part(run) + _spec_part(run)
    meta_len = len(meta_body) + 4  # + crc32 trailer

    header = struct.pack("<4sHHQ", _RUN_MAGIC, _RUN_VERSION, _HEADER, n)
    header += struct.pack(
        "<10Q", off_keys, off_tags, off_va, off_vb, off_vexp,
        off_heap, off_blockcrc, off_meta, heap_len, meta_len,
    )
    meta_crc = zlib.crc32(meta_body, zlib.crc32(header)) & 0xFFFFFFFF

    out = bytearray(off_meta + meta_len)
    out[0:_HEADER] = header
    out[off_keys:off_keys + 8 * n] = keys.tobytes()
    out[off_tags:off_tags + n] = tags.tobytes()
    out[off_va:off_va + 8 * n] = va.tobytes()
    out[off_vb:off_vb + 8 * n] = vb.tobytes()
    out[off_vexp:off_vexp + 8 * n] = vexp.tobytes()
    out[off_heap:off_heap + heap_len] = heap
    crcs = _block_crcs(keys, tags, va, vb, vexp, heap)
    out[off_blockcrc:off_blockcrc + 4 * nblocks] = (
        crcs.astype("<u4").tobytes()
    )
    out[off_meta:off_meta + len(meta_body)] = meta_body
    out[off_meta + len(meta_body):] = struct.pack("<I", meta_crc)
    return bytes(out)


# ----------------------------------------------------------------------
# Run files — parsing (zero-copy)
# ----------------------------------------------------------------------
def _parse_spec(record: bytes) -> Optional[FilterSpec]:
    """The :class:`FilterSpec` a run's spec record names (``None``: no filter).

    A record that is not JSON, or names no buildable spec (an unknown
    backend, a malformed field), is corruption: its checksum held, but
    no writer of this format produces it.
    """
    try:
        params = json.loads(record.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"run filter spec is not valid JSON: {exc}") from exc
    if params is None:
        return None
    try:
        return FilterSpec.from_params(params)
    except InvalidParameterError as exc:
        raise CorruptionError(f"run filter spec is invalid: {exc}") from exc


def _parse_run_columns(buf, build_filter: bool) -> SSTable:
    mv = memoryview(buf)
    if len(mv) < _HEADER:
        raise CorruptionError("run file too short for its header")
    header = bytes(mv[:_HEADER])
    _, _, header_size, n = struct.unpack_from("<4sHHQ", header, 0)
    if header_size != _HEADER:
        raise CorruptionError(f"unexpected run header size {header_size}")
    (
        off_keys, off_tags, off_va, off_vb, off_vexp,
        off_heap, off_blockcrc, off_meta, heap_len, meta_len,
    ) = struct.unpack_from("<10Q", header, 16)
    nblocks = -(-n // BLOCK_ENTRIES)
    expected = [
        (off_keys, 8 * n), (off_tags, n), (off_va, 8 * n), (off_vb, 8 * n),
        (off_vexp, 8 * n), (off_heap, heap_len), (off_blockcrc, 4 * nblocks),
        (off_meta, meta_len),
    ]
    cursor = _HEADER
    for off, length in expected:
        if off < cursor or off + length > len(mv):
            raise CorruptionError("run file truncated or section offsets invalid")
        # Alignment gaps must be zero: every padding byte is covered by
        # *some* check, so no flip hides between sections.
        if any(mv[cursor:off]):
            raise CorruptionError("run file padding is not zero")
        cursor = off + length
    if meta_len < 4:
        raise CorruptionError("run metadata too short for its checksum")
    meta = bytes(mv[off_meta:off_meta + meta_len])
    (recorded_meta,) = struct.unpack_from("<I", meta, meta_len - 4)
    actual_meta = zlib.crc32(meta[:-4], zlib.crc32(header)) & 0xFFFFFFFF
    if actual_meta != recorded_meta:
        raise CorruptionError(
            f"run metadata checksum mismatch: recorded {recorded_meta:#010x}, "
            f"computed {actual_meta:#010x}"
        )

    keys = np.frombuffer(mv, dtype=np.uint64, count=n, offset=off_keys)
    tags = np.frombuffer(mv, dtype=np.uint8, count=n, offset=off_tags)
    va = np.frombuffer(mv, dtype=np.uint64, count=n, offset=off_va)
    vb = np.frombuffer(mv, dtype=np.uint64, count=n, offset=off_vb)
    vexp = np.frombuffer(mv, dtype=np.uint64, count=n, offset=off_vexp)
    heap = mv[off_heap:off_heap + heap_len]

    recorded_crcs = np.frombuffer(
        mv, dtype="<u4", count=nblocks, offset=off_blockcrc
    )
    actual_crcs = _block_crcs(keys, tags, va, vb, vexp, heap)
    if not np.array_equal(recorded_crcs, actual_crcs):
        bad = int(np.flatnonzero(recorded_crcs != actual_crcs)[0])
        raise CorruptionError(
            f"run block {bad} checksum mismatch: recorded "
            f"{int(recorded_crcs[bad]):#010x}, computed "
            f"{int(actual_crcs[bad]):#010x}"
        )

    offset = 0
    universe, offset = unpack_int(meta, offset)
    (has_bounds,) = struct.unpack_from("<B", meta, offset)
    offset += 1
    slice_bounds = None
    if has_bounds:
        bounds_lo, offset = unpack_int(meta, offset)
        bounds_hi, offset = unpack_int(meta, offset)
        slice_bounds = (int(bounds_lo), int(bounds_hi))
    (spec_len,) = struct.unpack_from("<I", meta, offset)
    offset += 4
    if offset + spec_len != meta_len - 4:
        raise CorruptionError("run filter spec record has the wrong length")
    spec = _parse_spec(meta[offset:offset + spec_len])
    filt = None
    if spec is not None and build_filter:
        try:
            filt = spec.factory()(keys, int(universe))
        except ReproError as exc:
            raise CorruptionError(f"run filter failed to rebuild: {exc}") from exc
    return SSTable.from_columns(
        keys, tags, va, vb, vexp, heap, int(universe), filt,
        slice_bounds=slice_bounds,
    )


def _parse_run(buf, build_filter: bool) -> SSTable:
    head = bytes(memoryview(buf)[:6])
    if head[:4] != _RUN_MAGIC:
        raise CorruptionError("not a serialised SSTable run (bad magic)")
    (version,) = struct.unpack_from("<H", head, 4)
    if version != _RUN_VERSION:
        raise CorruptionError(f"unsupported run format version {version}")
    return _parse_run_columns(buf, build_filter)


def run_from_bytes(buf, *, build_filter: bool = True) -> SSTable:
    """Load a run serialised by :func:`run_to_bytes`.

    ``buf`` may be ``bytes`` or any contiguous buffer — notably an
    ``np.memmap`` of the run file, in which case the run adopts the
    mapping zero-copy: its column views keep the mapping alive for as
    long as anything holds them.

    Every stored checksum is verified before the bytes are trusted: the
    metadata crc and every per-block crc (eagerly — a later
    lazily-discovered bad block could not roll the open back). A
    mismatch, any structural damage, a version stamp other than v5 or a
    spec record that names no buildable filter raises
    :class:`~repro.errors.CorruptionError`. The caller (shard loading in
    :meth:`ShardedEngine.open`) treats that as "this checkpoint epoch is
    bad" and rolls back rather than serving a partially-decoded run.

    The run's filter, if it had one, is rebuilt from the recorded spec
    and the verified key column: the same seed, so the same hash
    constants and the same verdicts as the run that was written. With
    ``build_filter=False`` the spec is still validated but nothing is
    built, and the run comes back without a filter (what scrub needs).
    """
    try:
        return _parse_run(buf, build_filter)
    except ReproError:
        raise
    except Exception as exc:
        # struct.error, numpy shape errors — all mean the bytes are not
        # a run.
        raise CorruptionError(f"run blob failed to parse: {exc!r}") from exc


# ----------------------------------------------------------------------
# Manifest + whole-engine snapshots
# ----------------------------------------------------------------------
def manifest_crc(manifest: Dict[str, Any]) -> int:
    """crc32 over the canonical dump of a manifest (its ``crc32`` field
    excluded): sorted keys, compact separators — independent of the
    indentation the file on disk happens to use."""
    body = {k: v for k, v in manifest.items() if k != "crc32"}
    dump = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(dump.encode("utf-8")) & 0xFFFFFFFF


def load_manifest(
    directory: str | Path, *, name: str = MANIFEST_NAME
) -> Optional[Dict[str, Any]]:
    """Read a manifest or return ``None`` when the dir has none.

    The manifest must be version 3 and carry a matching ``crc32``
    field; any other version, a checksum mismatch or unparseable JSON
    raises :class:`~repro.errors.CorruptionError`.

    ``name`` selects which manifest file to read: the default current
    epoch, or :data:`PREV_MANIFEST_NAME` for the retained previous one.
    """
    path = Path(directory) / name
    if not path.exists():
        return None
    raw = faults.read_bytes(path)
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptionError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorruptionError(f"{path}: manifest is not a JSON object")
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise CorruptionError(f"{path}: unsupported manifest version {version}")
    recorded = manifest.get("crc32")
    actual = manifest_crc(manifest)
    if recorded != actual:
        raise CorruptionError(
            f"{path}: manifest checksum mismatch: recorded "
            f"{recorded!r}, computed {actual:#010x}"
        )
    return manifest


def referenced_runs(manifest: Dict[str, Any]) -> Dict[int, Set[str]]:
    """Per shard id, the run-file names a manifest keeps alive."""
    out: Dict[int, Set[str]] = {}
    for sid, entry in enumerate(manifest.get("shards", [])):
        live = set(entry.get("level0", []))
        for names in entry.get("levels", []):
            live.update(names)
        out[sid] = live
    return out


def save_snapshot(
    directory: str | Path,
    params: Dict[str, Any],
    shards: List[LSMStore],
) -> Dict[str, Any]:
    """Write every shard's runs plus the manifest; returns the manifest.

    ``params`` carries the engine construction parameters (universe,
    shard count, memtable limit, fanout) so :meth:`ShardedEngine.open`
    can rebuild the topology without user input. Memtables are *not*
    snapshotted — the caller flushes them first (checkpoint) or relies on
    the WAL to replay them (crash).

    Durability protocol, in order: (1) every run blob is written and
    fsynced; (2) each shard directory is fsynced so the new files'
    directory entries are durable; (3) the outgoing ``MANIFEST.json`` is
    *copied* to ``MANIFEST.prev.json`` (copied, not renamed — a crash
    between two renames would leave the directory with no current
    manifest at all, which reads as "fresh directory"); (4) the new
    manifest is written to a tmp file, fsynced, and renamed over
    ``MANIFEST.json``; (5) the root directory is fsynced, making the
    rename — the commit point — durable. A crash at *any* point leaves
    either the old or the new checkpoint fully intact.

    As each run file lands, the in-memory run is stamped with its
    :func:`stable_run_id`, so the writing process and any worker that
    later loads the same file agree on the run's shared-cache identity.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    previous = load_manifest(root)
    generation = (previous.get("generation", 0) + 1) if previous else 1
    shard_entries = []
    for sid, store in enumerate(shards):
        shard_dir = root / f"shard-{sid:04d}"
        shard_dir.mkdir(exist_ok=True)
        # Run files are generation-stamped and never overwritten: until
        # the manifest rename below commits this checkpoint, the previous
        # manifest still points at intact files, so a crash at *any*
        # point in this function leaves the old checkpoint recoverable.
        level0_names = []
        for j, run in enumerate(store.level0_runs):
            name = f"run-{generation:06d}-{j:04d}.sst"
            faults.write_bytes(shard_dir / name, run_to_bytes(run), fsync=True)
            run.shared_id = stable_run_id(sid, name)
            level0_names.append(name)
        level_names: List[List[str]] = []
        for li, level in enumerate(store.levels, start=1):
            names = []
            for j, run in enumerate(level):
                name = f"l{li}-{generation:06d}-{j:04d}.sst"
                faults.write_bytes(shard_dir / name, run_to_bytes(run), fsync=True)
                run.shared_id = stable_run_id(sid, name)
                names.append(name)
            level_names.append(names)
        shard_entries.append({"level0": level0_names, "levels": level_names})
        faults.fsync_dir(shard_dir)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "generation": generation,
        **params,
        "shards": shard_entries,
    }
    manifest["crc32"] = manifest_crc(manifest)
    # Retain the outgoing epoch's manifest for rollback before the new
    # one commits.
    current_path = root / MANIFEST_NAME
    if current_path.exists():
        faults.write_bytes(
            root / PREV_MANIFEST_NAME, current_path.read_bytes(), fsync=True
        )
    # The atomic commit point: write-then-rename the manifest.
    tmp = root / (MANIFEST_NAME + ".tmp")
    faults.write_bytes(tmp, json.dumps(manifest, indent=1).encode(), fsync=True)
    tmp.replace(current_path)
    faults.fsync_dir(root)
    # Garbage-collect run files neither retained epoch references. The
    # previous epoch's files stay on disk so a corrupt newest checkpoint
    # can roll back to an intact one. (A GC'd file some reader still has
    # mapped stays readable through its mapping.)
    prev_live: Dict[int, Set[str]] = {}
    try:
        prev_manifest = load_manifest(root, name=PREV_MANIFEST_NAME)
    except CorruptionError:
        prev_manifest = None  # unreadable => not a rollback target; GC it
    if prev_manifest is not None:
        prev_live = referenced_runs(prev_manifest)
    for sid, entry in enumerate(shard_entries):
        shard_dir = root / f"shard-{sid:04d}"
        live = set(entry["level0"])
        for names in entry["levels"]:
            live.update(names)
        live |= prev_live.get(sid, set())
        for candidate in shard_dir.glob("*.sst"):
            if candidate.name not in live:
                candidate.unlink()
    return manifest


def promote_previous_epoch(directory: str | Path) -> Dict[str, Any]:
    """Roll the directory back to the retained previous checkpoint.

    Copies ``MANIFEST.prev.json`` over ``MANIFEST.json`` (write-then-
    rename, fsynced) and returns the promoted manifest. The corrupt
    current manifest is preserved as ``MANIFEST.corrupt.json`` for
    post-mortem. Raises :class:`~repro.errors.CorruptionError` if there
    is no intact previous epoch to promote.
    """
    root = Path(directory)
    prev_path = root / PREV_MANIFEST_NAME
    if not prev_path.exists():
        raise CorruptionError(
            f"{root}: no retained previous checkpoint epoch to roll back to"
        )
    manifest = load_manifest(root, name=PREV_MANIFEST_NAME)
    if manifest is None:  # pragma: no cover - exists() raced above
        raise CorruptionError(f"{root}: previous manifest vanished")
    current = root / MANIFEST_NAME
    if current.exists():
        current.replace(root / "MANIFEST.corrupt.json")
    tmp = root / (MANIFEST_NAME + ".tmp")
    faults.write_bytes(tmp, prev_path.read_bytes(), fsync=True)
    tmp.replace(current)
    faults.fsync_dir(root)
    return manifest


def load_shard(
    directory: str | Path,
    manifest: Dict[str, Any],
    shard_id: int,
    *,
    filter_factory: Optional[FilterFactory] = None,
    compaction_policy=None,
) -> LSMStore:
    """Rebuild one shard's :class:`LSMStore` from a snapshot manifest.

    A run file is opened with ``np.memmap``: its columns become
    zero-copy views over the page cache (checksums are still verified
    eagerly — integrity before laziness), the column views keep the
    mapping alive, and the run is stamped with its
    :func:`stable_run_id` for the shared block cache. When a fault plan
    targets the file, loading falls back to the byte-reading seam so
    injected bit flips and EIO are observed. The store never compacts
    inline: the engine announces its pressure through the compaction
    hook, and a snapshot worker only reads.

    The per-shard granularity is what the process-mode serving workers
    use: each worker owns a subset of the shards and loads only those
    from the checkpoint, read-only — every run rebuilds its filter from
    the spec its file records, no factory needed. ``filter_factory``
    only builds the filters of runs the store flushes or compacts later.

    A referenced run file that is missing, truncated, or fails its
    checksum raises :class:`~repro.errors.CorruptionError` naming the
    file — the caller decides between rollback and surfacing the error;
    partially-loaded state is never returned.
    """
    root = Path(directory)
    entry = manifest["shards"][shard_id]
    shard_dir = root / f"shard-{shard_id:04d}"

    def load_run(name: str) -> SSTable:
        path = shard_dir / name
        try:
            if faults._active_for(path) is None:
                run = run_from_bytes(np.memmap(path, dtype=np.uint8, mode="r"))
            else:
                # Fault injection targets this file: read through the
                # seam so the plan's damage is actually applied.
                run = run_from_bytes(faults.read_bytes(path))
        except FileNotFoundError as exc:
            raise CorruptionError(
                f"{path}: run file referenced by the manifest is missing"
            ) from exc
        except CorruptionError as exc:
            raise CorruptionError(f"{path}: {exc}") from exc
        except ValueError as exc:
            # np.memmap refuses empty files; nothing valid is that short.
            raise CorruptionError(f"{path}: {exc!r}") from exc
        run.shared_id = stable_run_id(shard_id, name)
        return run

    level0 = [load_run(name) for name in entry["level0"]]
    levels = [[load_run(name) for name in names] for names in entry["levels"]]
    return LSMStore.from_runs(
        manifest["universe"],
        level0=level0,
        levels=levels,
        memtable_limit=manifest["memtable_limit"],
        compaction_fanout=manifest["compaction_fanout"],
        filter_factory=filter_factory,
        auto_compact=False,
        compaction_policy=compaction_policy,
        ttl_now=int(manifest["ttl_now"]),
    )


def load_shards(
    directory: str | Path,
    manifest: Dict[str, Any],
    *,
    filter_factory: Optional[FilterFactory] = None,
    compaction_policy=None,
) -> List[LSMStore]:
    """Rebuild every shard's :class:`LSMStore` from a snapshot manifest."""
    return [
        load_shard(
            directory,
            manifest,
            sid,
            filter_factory=filter_factory,
            compaction_policy=compaction_policy,
        )
        for sid in range(len(manifest["shards"]))
    ]


# ----------------------------------------------------------------------
# Scrub
# ----------------------------------------------------------------------
def scrub_snapshot(directory: str | Path) -> Dict[str, Any]:
    """Verify every persisted artifact in a checkpoint directory.

    Checks, without mutating anything: the current manifest parses and
    its crc32 matches; every run file each retained manifest
    references exists, passes its checksums — the metadata crc *and
    every per-block crc32*, so a flip in any single block is pinpointed
    — and parses structurally, its spec record naming a buildable
    filter (validated, not built: a rebuild proves nothing the checksums
    and the spec check do not, and costs seconds per run for some
    backends); the WAL's record chain is intact (a torn tail is
    reported but is *not* corruption — crash recovery tolerates it by
    design; a checksummed record that does not decode, a bad magic or an
    unsupported WAL version is, and sets ``wal`` to ``"corrupt"``).

    Returns a report dict: ``ok`` (no corruption anywhere), per-artifact
    statuses, and an ``errors`` list naming each corrupt artifact — the
    shape the CLI ``scrub`` subcommand prints. Unlike loading, scrub
    never raises on corrupt data: its job is a complete damage survey,
    not fail-fast.
    """
    root = Path(directory)
    report: Dict[str, Any] = {
        "directory": str(root),
        "manifest": None,
        "prev_manifest": None,
        "runs_checked": 0,
        "runs_corrupt": 0,
        "wal": None,
        "errors": [],
        "ok": True,
    }

    def check_manifest(name: str) -> Optional[Dict[str, Any]]:
        try:
            manifest = load_manifest(root, name=name)
        except CorruptionError as exc:
            report["errors"].append(str(exc))
            return None
        return manifest

    manifests: List[Tuple[str, Dict[str, Any]]] = []
    for field, name in (
        ("manifest", MANIFEST_NAME),
        ("prev_manifest", PREV_MANIFEST_NAME),
    ):
        manifest = check_manifest(name)
        if manifest is None:
            exists = (root / name).exists()
            report[field] = "corrupt" if exists else "missing"
            if exists:
                report["ok"] = False
        else:
            report[field] = "ok"
            manifests.append((name, manifest))
    if report["manifest"] == "missing" and not manifests:
        # Nothing persisted at all: vacuously intact only if truly empty.
        report["ok"] = report["ok"] and not any(root.glob("shard-*/*.sst"))

    checked: Set[Path] = set()
    for source, manifest in manifests:
        for sid, names in referenced_runs(manifest).items():
            shard_dir = root / f"shard-{sid:04d}"
            for name in sorted(names):
                path = shard_dir / name
                if path in checked:
                    continue
                checked.add(path)
                report["runs_checked"] += 1
                try:
                    run_from_bytes(faults.read_bytes(path), build_filter=False)
                except FileNotFoundError:
                    report["runs_corrupt"] += 1
                    report["ok"] = False
                    report["errors"].append(
                        f"{path}: referenced by {source} but missing"
                    )
                except CorruptionError as exc:
                    report["runs_corrupt"] += 1
                    report["ok"] = False
                    report["errors"].append(f"{path}: {exc}")

    wal_path = root / "wal.log"
    if wal_path.exists():
        from repro.engine.wal import scan_wal_file

        try:
            records, valid_length, total_length = scan_wal_file(wal_path)
        except (CorruptionError, InvalidParameterError) as exc:
            # Opening such a log refuses it (a bad magic or an unsupported
            # version is InvalidParameterError there); scrub reports it.
            report["wal"] = "corrupt"
            report["ok"] = False
            report["errors"].append(str(exc))
        else:
            report["wal"] = {
                "records": len(records),
                "valid_bytes": valid_length,
                "total_bytes": total_length,
                "torn_tail": valid_length < total_length,
            }
    else:
        report["wal"] = "missing"
    return report
