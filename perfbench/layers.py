"""Per-layer tracing from outside the program.

:class:`Layers` wraps the public functions of each ``src/repro`` module
with spans and counters, patching every name where it is looked up: a
function imported by name into another module (``shard_batch_empty``
in both ``engine.batch`` and ``engine.service``) is patched in each
importer, a method on its class. Nothing under ``src/`` changes, and
:meth:`Layers.uninstall` restores every original.

:func:`layer_metrics` turns a traced window into the per-layer metrics
named in ``BENCHMARK.json``; :func:`layer_table` prints the self-time
table whose rows plus ``other`` add up to the window.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Callable, Dict, List, Optional, Tuple

from spans import Recorder, attribute, totals

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = [
    ("core.grafite.probe_us_per_q", "us"),
    ("core.grafite.maybe_frac", "frac"),
    ("succinct.elias_fano.us_per_q", "us"),
    ("engine.planner.self_us_per_q", "us"),
    ("engine.planner.unique_frac", "frac"),
    ("engine.planner.negcache_hit_rate", "frac"),
    ("engine.batch.self_us_per_q", "us"),
    ("engine.batch.shard_calls_per_batch", "count"),
    ("lsm.memtable.probe_us_per_q", "us"),
    ("lsm.store.verify_us_per_q", "us"),
    ("lsm.store.verify_calls_per_kq", "count"),
    ("lsm.store.wasted_read_frac", "frac"),
    ("lsm.cache.hit_ratio", "frac"),
    ("lsm.cache.us_per_q", "us"),
    ("net.protocol.self_us_per_q", "us"),
    ("net.server.queries_per_batch", "count"),
    ("engine.service.self_us_per_q", "us"),
    ("engine.wal.us_per_op", "us"),
    ("engine.wal.bytes_per_op", "B"),
    ("lsm.memtable.put_us_per_op", "us"),
    ("engine.engine.put_self_us_per_op", "us"),
    ("lsm.store.flush_ms", "ms"),
    ("lsm.store.flushes", "count"),
    ("core.grafite.build_ms_per_kkey", "ms"),
    ("lsm.compaction.step_ms", "ms"),
    ("lsm.compaction.steps", "count"),
    ("engine.scheduler.drain_ms_per_probe_call", "ms"),
    ("engine.persist.checkpoint_ms", "ms"),
    ("engine.persist.bytes_per_key", "B"),
    ("other.us_per_op", "us"),
    ("trace.ops_per_s_ratio", "ratio"),
    ("trace.p50_ratio", "ratio"),
]


class Layers:
    """Installs span/counter wrappers around the program's layers."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._undo: List[Callable[[], None]] = []

    # -- patching primitives -------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))

        def undo(owner=owner, attr=attr, original=original, had_own=had_own):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def span(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(args, result)`` counts."""
        rec = self.rec

        def make(fn):
            if inspect.iscoroutinefunction(fn):
                async def wrapper(*args, **kwargs):
                    if not rec.enabled:
                        return await fn(*args, **kwargs)
                    opened = rec.begin(name)
                    try:
                        result = await fn(*args, **kwargs)
                    finally:
                        rec.end(opened)
                    if after is not None:
                        after(args, result)
                    return result
                return wrapper

            def wrapper(*args, **kwargs):
                if not rec.enabled:
                    return fn(*args, **kwargs)
                opened = rec.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end(opened)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def carry(self, owner, attr: str, fn_index: int) -> None:
        """Make ``owner.attr(..., fn, ...)`` run ``fn`` in the caller's
        span context — the hop onto a thread pool."""
        rec = self.rec

        def make(orig):
            def wrapper(*args, **kwargs):
                if rec.enabled:
                    args = list(args)
                    args[fn_index] = rec.carry(args[fn_index])
                return orig(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make)

    # -- the layer map ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer; does nothing when already installed."""
        if self._undo:
            return
        import repro.engine.batch as batch_mod
        import repro.engine.engine as engine_mod
        import repro.engine.persist as persist_mod
        import repro.engine.planner as planner_mod
        import repro.engine.service as service_mod
        from repro.core.grafite import Grafite
        from repro.engine.engine import ShardedEngine
        from repro.engine.planner import BatchPlanner, NegativeRangeCache
        from repro.engine.scheduler import CompactionScheduler
        from repro.engine.service import RangeQueryService
        from repro.engine.wal import WriteAheadLog
        from repro.lsm.cache import BlockCache
        from repro.lsm.memtable import MemTable
        from repro.lsm.store import LSMStore
        from repro.net import protocol
        from repro.net.server import NetServer
        from repro.succinct.elias_fano import EliasFano

        rec = self.rec
        count = rec.count

        # core / succinct: the filter probe and its Elias-Fano kernel.
        def probed(args, result):
            count("grafite.probed", len(result))
            count("grafite.maybe", int(result.sum()))
        self.span(Grafite, "may_contain_range_batch", "core.grafite.probe", probed)
        self.span(Grafite, "may_contain_range", "core.grafite.probe")
        self.span(Grafite, "__init__", "core.grafite.build",
                  lambda args, _: count("grafite.keys_built", len(args[1])))
        self.span(EliasFano, "contains_in_range_batch", "succinct.elias_fano")
        self.span(EliasFano, "contains_in_range", "succinct.elias_fano")

        # engine.planner: rewrite, negative cache, cost model.
        self.span(BatchPlanner, "execute", "engine.planner")
        self.span(BatchPlanner, "choose_mode", "engine.planner")

        def planned(args, plan):
            count("planner.queries", int(args[0].size))
            count("planner.unique", plan.n_unique)
        self.span(planner_mod, "plan_batch", "engine.planner", planned)

        def looked_up(args, found):
            count("negcache.lookups", int(found.size))
            count("negcache.hits", int(found.sum()))
        self.span(NegativeRangeCache, "lookup", "engine.planner", looked_up)

        # engine.batch / lsm.memtable: routing, per-shard kernel, memtable.
        self.span(engine_mod, "batch_range_empty", "engine.batch")
        for mod in (batch_mod, service_mod):
            self.span(mod, "shard_batch_empty", "engine.batch",
                      lambda args, _: count("shard_calls"))
        for mod in (batch_mod, planner_mod, service_mod):
            self.span(mod, "memtable_overlaps", "lsm.memtable.probe")

        # lsm.store / lsm.cache: exact verification and block reads.
        def verified(args, _):
            count("verify.calls")
        self.span(LSMStore, "range_empty", "lsm.store.verify", verified)
        self._stat_deltas(LSMStore, "range_empty",
                          {"verify.wasted": "wasted_reads", "verify.reads": "reads_performed"})

        def scanned(args, result):
            count("cache.hits", result[1])
            count("cache.misses", result[2])
        self.span(BlockCache, "scan", "lsm.cache", scanned)

        # Write path: engine put, WAL, memtable, flush, compaction, persist.
        for attr in ("put", "delete"):
            self.span(ShardedEngine, attr, "engine.engine.put",
                      lambda args, _: count("mutations"))
        self._wal(WriteAheadLog)
        self.span(MemTable, "put", "lsm.memtable.put")
        self.span(LSMStore, "flush", "lsm.store.flush")
        self._stat_deltas(LSMStore, "flush", {"flushes": "flushes"})
        self.span(LSMStore, "compact_step", "lsm.compaction.step",
                  lambda args, ran: count("compaction.steps", int(bool(ran))))
        self.span(CompactionScheduler, "drain", "engine.scheduler.drain")
        self.span(persist_mod, "save_snapshot", "engine.persist.checkpoint")

        def serialised(args, blob):
            count("persist.bytes", len(blob))
            count("persist.entries", len(args[0]))
        self.span(persist_mod, "run_to_bytes", "engine.persist.encode", serialised)

        # Query entry points: the bare engine and the concurrent service.
        def batch_call(args, result):
            count("batches")
            count("queries", len(result))
        self.span(ShardedEngine, "batch_range_empty", "engine.engine.batch", batch_call)
        self.span(RangeQueryService, "batch_range_empty", "engine.service", batch_call)
        self.span(RangeQueryService, "_fanout_batch", "engine.service")
        self.span(RangeQueryService, "_shard_task", "engine.service")
        self.span(RangeQueryService, "range_empty", "engine.service")
        self.carry(RangeQueryService, "_submit", 1)

        # net: framing/codec and the server's dispatch and windows.
        self.span(protocol.FrameDecoder, "feed", "net.protocol")
        for fn in ("decode_range", "encode_range_response", "decode_batch",
                   "encode_batch_response", "encode_ack", "encode_shed"):
            self.span(protocol, fn, "net.protocol")
        self.span(NetServer, "_dispatch", "net.server")
        self.span(NetServer, "_flush_window", "net.server")

        def window_ran(args, _):  # (self, conn, rids, los, his)
            count("net.batches")
            count("net.batch_queries", len(args[2]))
        self.span(NetServer, "_run_window", "net.server", window_ran)

        def frame_ran(args, _):  # (self, conn, rid, los, his)
            count("net.batches")
            count("net.batch_queries", len(args[3]))
        self.span(NetServer, "_run_batch_frame", "net.server", frame_ran)
        self.carry(NetServer, "_call", 1)

    def _stat_deltas(self, cls, attr: str, fields: Dict[str, str]) -> None:
        """Count how much ``cls.attr`` moves each store ledger field:
        ``fields`` maps a counter name to an ``IoStats`` attribute."""
        rec = self.rec

        def make(fn):
            def wrapper(store, *args, **kwargs):
                if not rec.enabled:
                    return fn(store, *args, **kwargs)
                stats = store.stats
                before = {name: getattr(stats, field) for name, field in fields.items()}
                result = fn(store, *args, **kwargs)
                for name, field in fields.items():
                    rec.count(name, getattr(stats, field) - before[name])
                return result
            return wrapper

        self._patch(cls, attr, make)

    def _wal(self, cls) -> None:
        """WAL appends: a span plus the bytes each record added to the
        file, measured outside the span."""
        rec = self.rec
        self.span(cls, "append", "engine.wal")
        timed = cls.append

        def wrapper(wal, *args, **kwargs):
            if not rec.enabled:
                return timed(wal, *args, **kwargs)
            before = os.path.getsize(wal.path)
            result = timed(wal, *args, **kwargs)
            rec.count("wal.bytes", os.path.getsize(wal.path) - before)
            rec.count("wal.appends")
            return result

        self._patch(cls, "append", lambda _fn: wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans, counters: Dict[str, float], windows: List[Tuple[float, float]],
    *, queries: float, mutations: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics for the traced ``windows``.

    ``queries`` and ``mutations`` are the operations answered inside the
    windows (the normalisers). Returns ``(metrics, self_seconds)``.
    """
    self_s = attribute(spans, windows)
    tot = totals(spans, windows)
    c = counters
    ops = queries + mutations

    def per_q(name):
        return _ratio(self_s.get(name, 0.0) * 1e6, queries)

    def mean_ms(name):
        n, s = tot.get(name, (0, 0.0))
        return _ratio(s * 1e3, n)

    m = {
        "core.grafite.probe_us_per_q": per_q("core.grafite.probe"),
        "core.grafite.maybe_frac": _ratio(c.get("grafite.maybe", 0), c.get("grafite.probed", 0)),
        "succinct.elias_fano.us_per_q": per_q("succinct.elias_fano"),
        "engine.planner.self_us_per_q": per_q("engine.planner"),
        "engine.planner.unique_frac": _ratio(c.get("planner.unique", 0), c.get("planner.queries", 0)),
        "engine.planner.negcache_hit_rate": _ratio(c.get("negcache.hits", 0), c.get("negcache.lookups", 0)),
        "engine.batch.self_us_per_q": per_q("engine.batch"),
        "engine.batch.shard_calls_per_batch": _ratio(c.get("shard_calls", 0), c.get("batches", 0)),
        "lsm.memtable.probe_us_per_q": per_q("lsm.memtable.probe"),
        "lsm.store.verify_us_per_q": per_q("lsm.store.verify"),
        "lsm.store.verify_calls_per_kq": _ratio(c.get("verify.calls", 0) * 1e3, queries),
        "lsm.store.wasted_read_frac": _ratio(c.get("verify.wasted", 0), c.get("verify.reads", 0)),
        "lsm.cache.hit_ratio": _ratio(c.get("cache.hits", 0), c.get("cache.hits", 0) + c.get("cache.misses", 0)),
        "lsm.cache.us_per_q": per_q("lsm.cache"),
        "net.protocol.self_us_per_q": per_q("net.protocol"),
        "net.server.queries_per_batch": _ratio(c.get("net.batch_queries", 0), c.get("net.batches", 0)),
        "engine.service.self_us_per_q": per_q("engine.service"),
        "engine.wal.us_per_op": _ratio(tot.get("engine.wal", (0, 0.0))[1] * 1e6, mutations),
        "engine.wal.bytes_per_op": _ratio(c.get("wal.bytes", 0), c.get("wal.appends", 0)),
        "lsm.memtable.put_us_per_op": _ratio(self_s.get("lsm.memtable.put", 0.0) * 1e6, mutations),
        "engine.engine.put_self_us_per_op": _ratio(self_s.get("engine.engine.put", 0.0) * 1e6, mutations),
        "lsm.store.flush_ms": _ratio(tot.get("lsm.store.flush", (0, 0.0))[1] * 1e3, c.get("flushes", 0)),
        "lsm.store.flushes": c.get("flushes", 0),
        "core.grafite.build_ms_per_kkey": _ratio(
            tot.get("core.grafite.build", (0, 0.0))[1] * 1e3, c.get("grafite.keys_built", 0) / 1e3),
        "lsm.compaction.step_ms": mean_ms("lsm.compaction.step"),
        "lsm.compaction.steps": c.get("compaction.steps", 0),
        "engine.scheduler.drain_ms_per_probe_call": _ratio(
            tot.get("engine.scheduler.drain", (0, 0.0))[1] * 1e3, c.get("batches", 0)),
        "engine.persist.checkpoint_ms": mean_ms("engine.persist.checkpoint"),
        "engine.persist.bytes_per_key": _ratio(c.get("persist.bytes", 0), c.get("persist.entries", 0)),
        "other.us_per_op": _ratio(self_s.get("other", 0.0) * 1e6, ops),
    }
    return m, self_s


def layer_table(self_s: Dict[str, float], window_s: float) -> str:
    """The self-time table; its rows (``other`` included) sum to the window."""
    rows = sorted(self_s.items(), key=lambda kv: -kv[1])
    lines = [f"  {'layer':<28} {'self_s':>10} {'share':>7}"]
    for name, sec in rows:
        lines.append(f"  {name:<28} {sec:>10.4f} {sec / window_s:>7.1%}")
    lines.append(f"  {'sum':<28} {sum(self_s.values()):>10.4f}  window {window_s:.4f}")
    return "\n".join(lines)
