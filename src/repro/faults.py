"""repro.faults — deterministic, seeded fault injection for the whole stack.

The paper's claim is robustness against *adversarial queries*; this
module supplies the adversarial *environment*: disks that tear writes,
flip bits and return ``EIO``, and networks that reset, stall and
fragment. Every fault is drawn from a seeded :class:`FaultPlan`, so a
chaos run that fails names a seed that replays it exactly.

Three layers plug into it:

* **filesystem seam** — :mod:`repro.engine.persist` and
  :mod:`repro.engine.wal` route their file I/O through
  :func:`read_bytes` / :func:`write_bytes` / :func:`fsync_file` /
  :func:`fsync_dir` and wrap long-lived handles in :class:`FaultyFile`.
  With no plan installed these are straight passthroughs (one global
  ``None`` check); under :func:`inject` they tear writes at a random
  prefix, flip single bits on reads, raise ``OSError(EIO)`` and add
  latency spikes;
* **at-rest corruption** — :class:`FaultyDir` deterministically damages
  files already on disk (bit flips, truncations), the crash-fuzz way of
  modelling storage rot between a crash and the reopen;
* **transport seam** — :class:`FaultyTransport` is a seeded TCP chaos
  proxy: put it between a client and :class:`~repro.net.server.NetServer`
  and it injects connection resets, stalls and partial frames without
  touching either endpoint.

The hardening this subsystem forced — and the tests that hold it — are
catalogued in ``docs/robustness.md``: crc32-checksummed run blobs and
manifests (:class:`~repro.errors.CorruptionError`, never a wrong
answer), checkpoint-epoch retention with automatic rollback, fsync
before the manifest-rename commit point, and client retry/backoff
(:class:`~repro.net.client.RetryPolicy`) with per-request deadlines.

Installation is process-global and **not** thread-scoped: every thread
that crosses a seam sees the active plan (that is the point — the
background compaction thread and the serving pool must feel the same
bad disk). Install around the region under test::

    from repro import faults

    plan = faults.FaultPlan(seed=7, torn_write=0.2, io_error=0.05)
    with faults.inject(plan):
        engine.checkpoint()        # may tear or EIO — old epoch stays intact
    print(plan.injected)           # {'torn_write': 1, ...}
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "FaultPlan",
    "FaultyDir",
    "FaultyFile",
    "FaultyTransport",
    "fsync_dir",
    "fsync_file",
    "get_plan",
    "inject",
    "install",
    "read_bytes",
    "uninstall",
    "wrap_file",
    "write_bytes",
]

_PROBABILITIES = (
    "torn_write", "bit_flip", "io_error", "latency",
    "reset", "stall", "partial",
)


@dataclass
class FaultPlan:
    """A seeded schedule of faults.

    Each field in ``torn_write`` / ``bit_flip`` / ``io_error`` /
    ``latency`` (filesystem seam) and ``reset`` / ``stall`` / ``partial``
    (transport seam) is an independent per-operation probability in
    ``[0, 1]``. Decisions come from one :class:`random.Random` seeded
    with ``seed``, so the same plan driving the same operation sequence
    injects the same faults — chaos tests stay reproducible and CI
    failures replayable.

    ``match`` restricts filesystem faults to paths whose name contains
    the substring (e.g. ``".sst"`` to corrupt only run blobs and leave
    the WAL alone); ``None`` matches everything. The transport seam
    ignores ``match``.

    ``injected`` tallies every fault actually fired, keyed by kind —
    chaos tests assert on it so a sweep that silently injected nothing
    cannot pass vacuously.
    """

    seed: int = 0
    torn_write: float = 0.0
    bit_flip: float = 0.0
    io_error: float = 0.0
    latency: float = 0.0
    latency_s: float = 0.002
    reset: float = 0.0
    stall: float = 0.0
    stall_s: float = 0.05
    partial: float = 0.0
    match: Optional[str] = None
    injected: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _PROBABILITIES:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidParameterError(
                    f"{name} must be a probability in [0, 1], got {p}"
                )
        self._rng = random.Random(self.seed)
        # One lock serialises rng draws: the plan is consulted from the
        # serving threads, the proxy's event-loop thread and the test
        # thread at once, and a torn rng state would break determinism.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _roll(self, kind: str, p: float) -> bool:
        with self._lock:
            hit = p > 0.0 and self._rng.random() < p
            if hit:
                self.injected[kind] = self.injected.get(kind, 0) + 1
            return hit

    def _randrange(self, n: int) -> int:
        with self._lock:
            return self._rng.randrange(n)

    def applies_to(self, path: os.PathLike | str) -> bool:
        """Whether filesystem faults target this path (``match`` filter)."""
        return self.match is None or self.match in os.fspath(path)

    def total_injected(self) -> int:
        """Sum of every fault fired so far."""
        return sum(self.injected.values())

    # ------------------------------------------------------------------
    # Filesystem-seam faults
    # ------------------------------------------------------------------
    def maybe_latency(self) -> None:
        """Sleep ``latency_s`` with probability ``latency`` (a slow disk)."""
        if self._roll("latency", self.latency):
            time.sleep(self.latency_s)

    def maybe_io_error(self, path: os.PathLike | str, op: str) -> None:
        """Raise ``OSError(EIO)`` with probability ``io_error``."""
        if self._roll("io_error", self.io_error):
            raise OSError(
                errno.EIO, f"injected EIO during {op}", os.fspath(path)
            )

    def torn_prefix(self, data: bytes) -> Optional[bytes]:
        """A strict prefix to tear a write at, or ``None`` (no tear)."""
        if not data or not self._roll("torn_write", self.torn_write):
            return None
        return data[: self._randrange(len(data))]

    def flipped(self, data: bytes) -> Optional[bytes]:
        """``data`` with one random bit flipped, or ``None`` (no flip)."""
        if not data or not self._roll("bit_flip", self.bit_flip):
            return None
        out = bytearray(data)
        bit = self._randrange(len(out) * 8)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    # ------------------------------------------------------------------
    # Transport-seam faults
    # ------------------------------------------------------------------
    def transport_action(self) -> str:
        """Fate of one forwarded chunk: reset | stall | partial | pass."""
        if self._roll("reset", self.reset):
            return "reset"
        if self._roll("stall", self.stall):
            return "stall"
        if self._roll("partial", self.partial):
            return "partial"
        return "pass"


# ----------------------------------------------------------------------
# Global installation
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the active plan for every seam in this process."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    """Remove the active plan (all seams become passthroughs again)."""
    global _PLAN
    _PLAN = None


def get_plan() -> Optional[FaultPlan]:
    """The active plan, or ``None`` when nothing is injecting."""
    return _PLAN


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: install ``plan``, uninstall on exit (always)."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def _active_for(path: os.PathLike | str) -> Optional[FaultPlan]:
    plan = _PLAN
    if plan is not None and plan.applies_to(path):
        return plan
    return None


# ----------------------------------------------------------------------
# Filesystem seam
# ----------------------------------------------------------------------
def read_bytes(path: os.PathLike | str) -> bytes:
    """``Path.read_bytes`` through the fault seam (EIO, bit flips)."""
    data = Path(path).read_bytes()
    plan = _active_for(path)
    if plan is None:
        return data
    plan.maybe_latency()
    plan.maybe_io_error(path, "read")
    flipped = plan.flipped(data)
    return data if flipped is None else flipped


def write_bytes(
    path: os.PathLike | str, data: bytes, *, fsync: bool = False
) -> None:
    """``Path.write_bytes`` through the fault seam.

    A torn write persists a strict prefix of ``data`` and then raises
    ``OSError(EIO)`` — the caller observes a failed write, the disk
    holds garbage, exactly the state a crash mid-write leaves behind.
    ``fsync=True`` flushes the file to stable storage after a clean
    write (the fsync itself can also draw an injected EIO).
    """
    path = Path(path)
    plan = _active_for(path)
    if plan is not None:
        plan.maybe_latency()
        plan.maybe_io_error(path, "write")
        prefix = plan.torn_prefix(data)
        if prefix is not None:
            path.write_bytes(prefix)
            raise OSError(
                errno.EIO,
                f"injected torn write ({len(prefix)}/{len(data)} bytes)",
                os.fspath(path),
            )
    path.write_bytes(data)
    if fsync:
        fsync_file(path)


def fsync_file(path: os.PathLike | str) -> None:
    """fsync one file by path (through the fault seam)."""
    plan = _active_for(path)
    if plan is not None:
        plan.maybe_io_error(path, "fsync")
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: os.PathLike | str) -> None:
    """fsync a directory so renames/creates within it are durable.

    Required on POSIX for the manifest-rename commit point to survive
    power loss: the rename itself lives in the directory's metadata.
    Silently skipped on platforms whose directories cannot be opened
    for fsync (Windows); the rename is still atomic there.
    """
    plan = _active_for(path)
    if plan is not None:
        plan.maybe_io_error(path, "fsync-dir")
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


class FaultyFile:
    """A write-handle proxy that consults the active plan per operation.

    Wraps a binary file object (the WAL's append handle) and injects at
    call time, so a plan installed *after* the file was opened still
    applies. ``write`` may raise an injected EIO, or tear: the prefix is
    written for real and ``OSError(EIO)`` raised — matching what the
    kernel leaves after a mid-write crash. Everything else delegates.

    The file name is read once, when the wrapper is built; with no plan
    installed ``write`` is one global check and the file's own write.
    """

    def __init__(self, fh) -> None:
        self._fh = fh
        self._name = str(getattr(fh, "name", "?"))

    def write(self, data: bytes) -> int:
        plan = _PLAN
        if plan is None or not plan.applies_to(self._name):
            return self._fh.write(data)
        plan.maybe_latency()
        plan.maybe_io_error(self._name, "write")
        prefix = plan.torn_prefix(data)
        if prefix is not None:
            self._fh.write(prefix)
            self._fh.flush()
            raise OSError(
                errno.EIO,
                f"injected torn write ({len(prefix)}/{len(data)} bytes)",
                self._name,
            )
        return self._fh.write(data)

    def fsync(self) -> None:
        """flush + fsync through the seam (used by the WAL's sync mode)."""
        plan = _active_for(self._name)
        if plan is not None:
            plan.maybe_io_error(self._name, "fsync")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def __getattr__(self, name: str):
        return getattr(self._fh, name)

    @property
    def closed(self) -> bool:
        return self._fh.closed


def wrap_file(fh) -> FaultyFile:
    """Wrap an open binary file in the per-operation fault seam."""
    return FaultyFile(fh)


class FaultyDir:
    """Deterministic at-rest corruption of files under a directory.

    Models storage rot discovered at reopen time (the state between a
    crash and the recovery): the plan's rng picks *which* file and
    *where*, so a crash-fuzz sweep over seeds covers blobs, manifests
    and offsets without enumerating them by hand.
    """

    def __init__(self, root: os.PathLike | str, plan: FaultPlan) -> None:
        self.root = Path(root)
        self.plan = plan

    def files(self, pattern: str = "**/*") -> List[Path]:
        """Matching files under the root, sorted for determinism."""
        return sorted(p for p in self.root.glob(pattern) if p.is_file())

    def pick(self, pattern: str = "**/*") -> Path:
        """One deterministic victim file matching ``pattern``."""
        candidates = self.files(pattern)
        if not candidates:
            raise InvalidParameterError(
                f"no files matching {pattern!r} under {self.root}"
            )
        return candidates[self.plan._randrange(len(candidates))]

    def flip_bit(
        self, pattern: str = "**/*", *, path: Optional[Path] = None
    ) -> Tuple[Path, int]:
        """Flip one plan-chosen bit in one file; returns (path, bit)."""
        victim = path if path is not None else self.pick(pattern)
        data = bytearray(victim.read_bytes())
        if not data:
            raise InvalidParameterError(f"{victim} is empty; nothing to flip")
        bit = self.plan._randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        victim.write_bytes(bytes(data))
        self.plan.injected["at_rest_bit_flip"] = (
            self.plan.injected.get("at_rest_bit_flip", 0) + 1
        )
        return victim, bit

    def truncate(
        self, pattern: str = "**/*", *, path: Optional[Path] = None
    ) -> Tuple[Path, int]:
        """Truncate one file at a plan-chosen offset; returns (path, len)."""
        victim = path if path is not None else self.pick(pattern)
        data = victim.read_bytes()
        if not data:
            raise InvalidParameterError(f"{victim} is empty; cannot truncate")
        cut = self.plan._randrange(len(data))
        victim.write_bytes(data[:cut])
        self.plan.injected["at_rest_truncation"] = (
            self.plan.injected.get("at_rest_truncation", 0) + 1
        )
        return victim, cut


# ----------------------------------------------------------------------
# Transport seam
# ----------------------------------------------------------------------
class FaultyTransport:
    """A seeded TCP chaos proxy between a client and a server.

    Runs its own asyncio loop on a daemon thread (like
    :func:`repro.net.server.serve_in_thread`). Every forwarded chunk in
    either direction asks the plan for a fate:

    * ``reset`` — both sides are aborted immediately (the client sees a
      connection reset mid-request, the server a vanished peer);
    * ``stall`` — the chunk is delayed ``stall_s`` seconds before
      forwarding (what per-request deadlines exist to bound);
    * ``partial`` — the chunk is split and the halves delivered with a
      gap, exercising the frame decoder's re-assembly under fragmented
      delivery.

    ``counters`` tallies forwards and injections so chaos tests can
    assert the storm actually happened.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: FaultPlan,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan
        self._requested = (host, port)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {
            "connections": 0,
            "chunks_forwarded": 0,
            "bytes_forwarded": 0,
            "resets_injected": 0,
            "stalls_injected": 0,
            "partial_chunks": 0,
        }
        self._thread: Optional[threading.Thread] = None
        self._loop = None
        self._stop_event = None

    # -- asyncio side ---------------------------------------------------
    async def _pump(self, reader, writer, peer_writer) -> None:
        import asyncio

        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                action = self.plan.transport_action()
                if action == "reset":
                    self.counters["resets_injected"] += 1
                    for w in (writer, peer_writer):
                        transport = w.transport
                        if transport is not None:
                            transport.abort()
                    return
                if action == "stall":
                    self.counters["stalls_injected"] += 1
                    await asyncio.sleep(self.plan.stall_s)
                if action == "partial" and len(data) > 1:
                    self.counters["partial_chunks"] += 1
                    cut = 1 + self.plan._randrange(len(data) - 1)
                    writer.write(data[:cut])
                    await writer.drain()
                    await asyncio.sleep(0.001)
                    writer.write(data[cut:])
                else:
                    writer.write(data)
                await writer.drain()
                self.counters["chunks_forwarded"] += 1
                self.counters["bytes_forwarded"] += len(data)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop shutting down
                pass

    async def _handle(self, client_reader, client_writer) -> None:
        import asyncio

        self.counters["connections"] += 1
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.upstream)
        except OSError:
            client_writer.close()
            return
        await asyncio.gather(
            self._pump(client_reader, up_writer, client_writer),
            self._pump(up_reader, client_writer, up_writer),
        )

    # -- thread lifecycle ----------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a daemon thread; returns the proxy address."""
        import asyncio

        started = threading.Event()
        box: dict = {}

        def runner() -> None:
            async def main() -> None:
                server = await asyncio.start_server(
                    self._handle, *self._requested
                )
                self.host, self.port = server.sockets[0].getsockname()[:2]
                self._loop = asyncio.get_running_loop()
                self._stop_event = asyncio.Event()
                started.set()
                await self._stop_event.wait()
                server.close()
                await server.wait_closed()

            try:
                asyncio.run(main())
            except Exception as exc:  # pragma: no cover - surfaced below
                box["error"] = exc
                started.set()

        self._thread = threading.Thread(
            target=runner, name="repro-fault-proxy", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30.0) or "error" in box:
            raise InvalidParameterError(
                f"fault proxy failed to start: {box.get('error')}"
            )
        assert self.host is not None and self.port is not None
        return self.host, self.port

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting and join the proxy thread."""
        if self._thread is not None and self._thread.is_alive():
            assert self._loop is not None and self._stop_event is not None
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "FaultyTransport":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
