"""Write-ahead log for the sharded engine.

Every mutation is appended here *before* it touches a memtable, so a
crash between checkpoints loses nothing that was acknowledged: on
reopen, the records are replayed into fresh memtables on top of the last
snapshot. The format is deliberately boring and self-healing:

``header | record*``

* header: magic ``b"RWAL"``, format version (u16, currently 2 — the
  only version that loads);
* record: ``crc32(payload) (u32) | len(payload) (u32) | payload``;
* put payload: ``op (u8) | key (u64) | tag (u8) | [vexp (u64)] | body``
  — ``op`` and ``key`` around the run format's typed value encoding
  (:func:`repro.lsm.sstable.pack_value` / ``unpack_value``), so the
  engine has one value codec. ``vexp`` is present iff the tag carries
  ``FLAG_EXPIRES``. The body is 8 bytes of ``va`` for an int or float,
  one byte for a bool, nothing for ``None``, and the raw heap bytes for
  bytes, str and pickled opaque objects (pickle is used only for those,
  as in runs);
* delete and TTL clock payload: ``op (u8) | key (u64)``; a clock record
  carries the logical time in the key field.

A value therefore comes back from the log exactly as a run returns it
after a flush (a ``bytearray`` reads back as ``bytes``).

A crash mid-append leaves a torn record at the tail. Opening the log
scans it, keeps every record whose length and checksum verify, and
truncates the file at the first record that does not — the standard
recovery contract (RocksDB's ``kTolerateCorruptedTailRecords``). A
record whose checksum verifies but whose payload does not decode (an
unknown opcode or tag, a body whose length does not fit its tag) is not
a torn tail: it raises :class:`~repro.errors.CorruptionError` naming
the file and byte offset instead of being truncated away.
:func:`scan_wal_file` exposes the same scan read-only (no truncation,
no append handle) for the scrub path.

Each record reaches the OS in one ``write`` on an unbuffered handle
(looping only on a short write), so there is no separate flush and a
write never carries more than one record. Appends go through
:class:`repro.faults.FaultyFile`, so chaos runs can tear or EIO a
record mid-write; with no fault plan installed the wrapper is a
transparent delegate.
"""

from __future__ import annotations

import errno
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, List, Tuple

from repro import faults
from repro.errors import CorruptionError, InvalidParameterError
from repro.lsm.sstable import pack_value, unpack_value

_MAGIC = b"RWAL"
_VERSION = 2
_HEADER = _MAGIC + struct.pack("<H", _VERSION)
_RECORD_HEADER = struct.Struct("<II")  # crc32, payload length
_KEY_HEAD = struct.Struct("<BQ")       # op, key

#: Record opcodes. ``OP_CLOCK`` reuses the key field for the logical TTL
#: time (see :meth:`repro.engine.ShardedEngine.advance_clock`): clock
#: advances must be as durable as the writes they expire, or recovery
#: would resurrect entries that already aged out.
OP_PUT = 1
OP_DELETE = 2
OP_CLOCK = 3

#: Cap on a single record's payload; a corrupt length field must not make
#: recovery try to allocate gigabytes.
_MAX_PAYLOAD = 1 << 28


def _decode_payload(payload: bytes) -> Tuple[int, int, Any]:
    """Decode one crc-verified payload; :class:`CorruptionError` (or
    whatever unpickling an opaque value raises) when it does not fit."""
    if len(payload) < _KEY_HEAD.size:
        raise CorruptionError(f"payload of {len(payload)} bytes is too short")
    op, key = _KEY_HEAD.unpack_from(payload)
    if op == OP_PUT:
        return op, key, unpack_value(payload[_KEY_HEAD.size:])
    if op != OP_DELETE and op != OP_CLOCK:
        raise CorruptionError(f"unknown opcode {op}")
    if len(payload) != _KEY_HEAD.size:
        raise CorruptionError(f"opcode {op} carries a value")
    return op, key, None


def scan_wal_file(
    path: str | os.PathLike,
) -> Tuple[List[Tuple[int, int, Any]], int, int]:
    """Read-only torn-tail scan of a WAL file.

    Returns ``(records, valid_length, total_length)``: every record
    whose length and crc32 verify, the byte length of that valid prefix,
    and the file's actual size. ``valid_length < total_length`` means a
    torn tail — expected after a crash, tolerated by recovery. Unlike
    opening a :class:`WriteAheadLog`, this never truncates or creates
    the file, which is what :func:`repro.engine.persist.scrub_snapshot`
    needs: a damage survey must not repair as a side effect.
    """
    buf = faults.read_bytes(path)
    records: List[Tuple[int, int, Any]] = []
    if len(buf) < len(_HEADER):
        return records, 0, len(buf)
    if buf[:4] != _MAGIC:
        raise InvalidParameterError(f"{os.fspath(path)} is not a WAL file")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != _VERSION:
        raise InvalidParameterError(f"unsupported WAL version {version}")
    offset = len(_HEADER)
    while offset + _RECORD_HEADER.size <= len(buf):
        crc, length = _RECORD_HEADER.unpack_from(buf, offset)
        body_start = offset + _RECORD_HEADER.size
        if length > _MAX_PAYLOAD or body_start + length > len(buf):
            break  # torn record: length field or body ran past EOF
        payload = buf[body_start:body_start + length]
        if zlib.crc32(payload) != crc:
            break  # torn or corrupt record
        try:
            records.append(_decode_payload(payload))
        except Exception as exc:  # unpickling an opaque value raises anything
            raise CorruptionError(
                f"{os.fspath(path)}: WAL record at byte {offset} passes its "
                f"crc32 but does not decode ({exc})"
            ) from exc
        offset = body_start + length
    return records, offset, len(buf)


class WriteAheadLog:
    """Append-only durability log with torn-tail recovery.

    Parameters
    ----------
    path:
        Log file location; created (with its header) if missing.
    sync:
        ``True`` fsyncs after every append — durable against power loss,
        slow. ``False`` (default) hands each record to the OS only, which
        survives process crashes (the scenario the tests simulate).
    """

    def __init__(self, path: str | os.PathLike, *, sync: bool = False) -> None:
        self._path = Path(path)
        self._sync = bool(sync)
        self._recovered: List[Tuple[int, int, Any]] = []
        # Appends from concurrent writers (the thread-pool service) must
        # not interleave half-records; one lock serialises the file.
        self._lock = threading.Lock()
        valid_length = self._scan()
        # Drop any torn tail, then position for appends.
        with open(self._path, "r+b") as fh:
            fh.truncate(valid_length)
        self._fh = self._open_append()

    def _open_append(self) -> faults.FaultyFile:
        return faults.wrap_file(open(self._path, "ab", buffering=0))

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _scan(self) -> int:
        """Read all intact records; return the byte length of the valid prefix."""
        if not self._path.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_bytes(_HEADER)
            return len(_HEADER)
        records, valid_length, _total = scan_wal_file(self._path)
        if valid_length == 0:
            # Crash before the header finished; start the log over.
            self._path.write_bytes(_HEADER)
            return len(_HEADER)
        self._recovered.extend(records)
        return valid_length

    @property
    def recovered(self) -> List[Tuple[int, int, Any]]:
        """Records recovered when the log was opened: ``(op, key, value)``."""
        return list(self._recovered)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, op: int, key: int, value: Any = None) -> None:
        """Durably record one mutation (call before applying it)."""
        if op == OP_PUT:
            payload = _KEY_HEAD.pack(op, key) + pack_value(value)
        elif op == OP_DELETE or op == OP_CLOCK:
            payload = _KEY_HEAD.pack(op, key)
        else:
            raise InvalidParameterError(f"unknown WAL opcode {op}")
        record = _RECORD_HEADER.pack(zlib.crc32(payload), len(payload)) + payload
        with self._lock:
            # One write per record on an unbuffered handle: an injected
            # (or real) tear then leaves a prefix of exactly one record —
            # the torn tail the recovery scan is contracted to drop. A
            # short write is continued, never merged with the next record.
            written = self._fh.write(record)
            while written < len(record):
                more = self._fh.write(memoryview(record)[written:])
                if not more:
                    raise OSError(
                        errno.EIO, "WAL append made no progress", str(self._path)
                    )
                written += more
            if self._sync:
                self._fh.fsync()

    def log_put(self, key: int, value: Any) -> None:
        self.append(OP_PUT, key, value)

    def log_delete(self, key: int) -> None:
        self.append(OP_DELETE, key)

    def log_clock(self, now: int) -> None:
        """Record a TTL clock advance (the key field carries the time)."""
        self.append(OP_CLOCK, now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    def reset(self) -> None:
        """Discard all records (called right after a snapshot checkpoint)."""
        with self._lock:
            self._fh.close()
            self._path.write_bytes(_HEADER)
            self._recovered.clear()
            self._fh = self._open_append()
            if self._sync:
                self._fh.fsync()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog({str(self._path)!r}, sync={self._sync})"
