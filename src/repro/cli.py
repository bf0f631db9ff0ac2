"""Command-line interface: ``python -m repro <command>``.

Nine commands, mirroring how the library is typically exercised:

* ``dataset`` — generate one of the §6.1 datasets and print its shape
  statistics (size, universe coverage, gap distribution);
* ``fpr`` — build any registered filter on a dataset and measure FPR
  and query time under a chosen workload (one cell of Figures 3–5);
* ``attack`` — run the adaptive adversary of §6.2/§6.7 against a filter
  and print the per-round false-positive rate;
* ``table1`` — evaluate the closed-form bounds of Table 1 for given
  parameters;
* ``engine`` — drive a mixed read/write workload against the sharded
  :class:`~repro.engine.ShardedEngine` and report throughput and the
  I/O the filters saved. ``--filter`` mounts any registered backend
  (``grafite``, ``bucketing``, ``surf``, ``rosetta``, ``proteus``,
  ``snarf``, ``rencoder``), ``--autotune`` lets the per-shard tuner
  re-pick the backend from observed traffic, and ``--compaction``
  selects the shard compaction policy (``full``/``tiered``/``leveled``);
  the report ends with one ``[engine] ...`` line carrying compaction
  step counts and measured write amplification;
* ``serve`` — the same workload through the concurrent
  :class:`~repro.engine.RangeQueryService`: thread-pool batch fan-out,
  background compaction, the block cache's hit ratio, and (with
  ``--mode process``) per-shard snapshot worker processes answering the
  CPU-bound batches outside the GIL. Ends with one ``[serve] ...``
  summary line (rendered from the service's structured
  ``stats_snapshot()``) carrying the probe throughput and cache hit
  rate in the exact form the benchmarks record. With ``--listen
  HOST:PORT`` the command instead bulk-loads the dataset and opens the
  :mod:`repro.net` front door — framed binary protocol, per-connection
  batching windows, admission control — until SIGINT/SIGTERM triggers
  the graceful drain → checkpoint → close sequence;
* ``loadgen`` — the open-loop load generator of
  :mod:`repro.net.loadgen` against a running ``serve --listen``
  server: simulated clients, Zipfian key popularity, Poisson or bursty
  arrivals, a latency histogram with the p50/p99 ladder, and one
  ``[loadgen] ...`` summary line carrying the error ledger broken down
  by class (shed / reset / timeout / remote). ``--request-timeout``
  puts a per-request deadline on every probe and ``--retries`` enables
  the client's bounded exponential-backoff retry policy;
* ``scenarios`` — run the YCSB-style scenario matrix of
  :mod:`repro.workloads.scenarios`: each ``(scenario, mode)`` pair
  replays a seeded op stream (probes, inserts, deletes, scans, TTL
  ticks, optional adversary) against the chosen serving layer *and* a
  sorted-dict oracle, emitting one ``[scenarios] ...`` line per run
  with the bit-exactness verdict; exits non-zero on any divergence,
  and a selection in which no scenario supports any chosen mode is a
  usage error rather than an empty success;
* ``scrub`` — verify the checksums of every persisted artifact in an
  engine directory (current + previous-epoch manifests, every
  referenced run blob, the WAL record chain) without mutating
  anything; exits non-zero when corruption is found.

Every command is deterministic given ``--seed`` (``serve`` interleaves
threads, so timings vary but results do not).

Each shared decision lives in one place: one helper per shared flag set
(``_add_common`` for ``--dataset/--n/--universe-bits/--seed``,
``_add_figure_filter`` for the figure-registry ``--filter``,
``--bits-per-key`` and ``--range-size`` of ``fpr`` and ``attack``,
``_add_engine_args`` for ``engine`` and ``serve``); one
``(universe, keys)`` loader, ``_load_keys``; one figure-filter builder,
``_figure_filter``; and one workload runner, ``cmd_workload``, behind
``engine``, ``serve`` and ``serve --listen``. A parameter's domain is
checked by the library that owns the value (the dataset generators,
``table1``, ``FilterSpec``, ``LoadConfig``, the scenario registry, ...);
:func:`main` reports the ``InvalidParameterError`` it raises as one
``repro: error: <message>`` line with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

import numpy as np

from repro.analysis.fpr import measure_fpr
from repro.analysis.harness import FILTERS, FilterConfig, build_filter
from repro.analysis.report import (
    format_planner_summary,
    format_table,
    format_write_amp,
)
from repro.analysis.theory import table1
from repro.analysis.timing import time_queries
from repro.errors import InvalidParameterError
from repro.workloads.adversary import AdaptiveAdversary
from repro.workloads.datasets import DATASETS, load_dataset
from repro.workloads.queries import correlated_queries, uncorrelated_queries


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The dataset flags of every command that draws keys."""
    parser.add_argument("--dataset", choices=sorted(DATASETS), default="uniform")
    parser.add_argument("--n", type=int, default=20_000, help="number of keys")
    parser.add_argument("--universe-bits", type=int, default=48)
    parser.add_argument("--seed", type=int, default=42)


def _add_figure_filter(parser: argparse.ArgumentParser, *, range_size: int) -> None:
    """The common flags plus the figure-registry filter flags that
    ``fpr`` and ``attack`` share."""
    _add_common(parser)
    parser.add_argument("--filter", choices=sorted(FILTERS), default="Grafite")
    parser.add_argument("--bits-per-key", type=float, default=16.0)
    parser.add_argument("--range-size", type=int, default=range_size)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Grafite (SIGMOD 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("dataset", help="generate and describe a dataset")
    _add_common(p_data)

    p_fpr = sub.add_parser("fpr", help="measure a filter's FPR and query time")
    _add_figure_filter(p_fpr, range_size=32)
    p_fpr.add_argument(
        "--workload", choices=("uncorrelated", "correlated"), default="uncorrelated"
    )
    p_fpr.add_argument("--degree", type=float, default=0.8, help="correlation degree D")
    p_fpr.add_argument("--queries", type=int, default=1000)

    p_attack = sub.add_parser("attack", help="adaptive adversary vs a filter")
    _add_figure_filter(p_attack, range_size=16)
    p_attack.add_argument("--rounds", type=int, default=4)
    p_attack.add_argument("--queries-per-round", type=int, default=400)
    p_attack.add_argument("--leaked-fraction", type=float, default=0.1)

    p_theory = sub.add_parser("table1", help="evaluate the Table 1 bounds")
    p_theory.add_argument("--n", type=int, default=200_000_000)
    p_theory.add_argument("--universe-bits", type=int, default=64)
    p_theory.add_argument("--range-size", type=int, default=2**10)
    p_theory.add_argument("--eps", type=float, default=0.01)

    p_engine = sub.add_parser(
        "engine", help="mixed read/write workload on the sharded engine"
    )
    _add_engine_args(p_engine)

    p_serve = sub.add_parser(
        "serve",
        help="the engine workload through the concurrent RangeQueryService",
    )
    _add_engine_args(p_serve)
    p_serve.add_argument(
        "--threads", type=int, default=4, help="query thread-pool size"
    )
    p_serve.add_argument(
        "--mode", choices=("thread", "process"), default="thread",
        help="batch back end: thread pool only, or per-shard snapshot "
        "worker processes (process mode requires --dir)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="worker processes in process mode (default: --threads)",
    )
    p_serve.add_argument(
        "--cache-blocks", type=int, default=4096,
        help="block-cache capacity in SSTable blocks (0 disables)",
    )
    p_serve.add_argument(
        "--miss-latency-us", type=float, default=0.0,
        help="simulated disk latency per cache miss, microseconds",
    )
    p_serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="instead of the canned workload: bulk-load the dataset and "
        "open the repro.net front door until SIGINT/SIGTERM (port 0 picks "
        "a free port; the bound address is printed)",
    )
    p_serve.add_argument(
        "--batch-window-us", type=float, default=300.0,
        help="per-connection batching window for single-range queries, "
        "microseconds (0 disables coalescing)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=512,
        help="flush a batching window early at this many queries",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=4096,
        help="admission control: shed queries beyond this many in flight",
    )
    p_serve.add_argument(
        "--max-compaction-backlog", type=int, default=None,
        help="shed queries while more shards than this await compaction",
    )
    p_serve.add_argument(
        "--max-cache-miss-rate", type=float, default=None,
        help="shed queries while the windowed cache miss rate exceeds this",
    )

    p_loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generator against a running serve --listen",
    )
    _add_common(p_loadgen)
    p_loadgen.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address printed by `repro serve --listen`",
    )
    p_loadgen.add_argument(
        "--clients", type=int, default=256,
        help="simulated open-loop client streams",
    )
    p_loadgen.add_argument(
        "--connections", type=int, default=8,
        help="pipelined sockets the clients multiplex over",
    )
    p_loadgen.add_argument(
        "--rate", type=float, default=2000.0,
        help="total offered load, queries/second",
    )
    p_loadgen.add_argument(
        "--requests", type=int, default=5000, help="total requests to send"
    )
    p_loadgen.add_argument("--range-size", type=int, default=32)
    p_loadgen.add_argument(
        "--distribution", choices=("zipf", "uniform"), default="zipf",
        help="zipf regenerates the server's dataset locally (same "
        "--dataset/--n/--seed) to aim at hot keys",
    )
    p_loadgen.add_argument(
        "--skew", type=float, default=1.1, help="Zipf exponent"
    )
    p_loadgen.add_argument(
        "--hot", type=int, default=1024, help="hot-key set size for zipf"
    )
    p_loadgen.add_argument(
        "--arrivals", choices=("poisson", "bursty"), default="poisson"
    )
    p_loadgen.add_argument("--burst-factor", type=float, default=8.0)
    p_loadgen.add_argument("--burst-period", type=float, default=0.25)
    p_loadgen.add_argument(
        "--request-timeout", type=float, default=None,
        help="per-request deadline in seconds (DeadlineExceeded past it)",
    )
    p_loadgen.add_argument(
        "--retries", type=int, default=0,
        help="retry transient failures (shed/reset/timeout) up to this "
        "many times with exponential backoff",
    )

    p_scn = sub.add_parser(
        "scenarios",
        help="run the YCSB-style scenario matrix with differential checks",
    )
    p_scn.add_argument(
        "names", nargs="*", default=[], metavar="SCENARIO",
        help="scenario names from the registry (default: all registered)",
    )
    p_scn.add_argument(
        "--list", action="store_true",
        help="list registered scenarios and exit",
    )
    p_scn.add_argument(
        "--mode", action="append", default=None, metavar="MODE",
        help="serving mode(s) to run each scenario against (repeatable; "
        "default: engine + service; 'all' runs every mode the scenario "
        "supports)",
    )
    p_scn.add_argument("--seed", type=int, default=42)
    p_scn.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply each scenario's n_keys/n_ops (CI uses <1.0)",
    )
    p_scn.add_argument("--threads", type=int, default=4)
    p_scn.add_argument(
        "--json", action="store_true",
        help="print the structured reports as JSON after the summary lines",
    )

    p_scrub = sub.add_parser(
        "scrub",
        help="verify checksums of every persisted artifact in an engine dir",
    )
    p_scrub.add_argument(
        "--dir", required=True, metavar="PATH",
        help="engine directory (the one given to engine --dir / serve --dir)",
    )
    p_scrub.add_argument(
        "--json", action="store_true",
        help="print the raw scrub report as JSON instead of a table",
    )
    return parser


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Workload knobs shared by the ``engine`` and ``serve`` commands."""
    from repro.filters.registry import backend_names
    from repro.lsm.compaction import policy_names

    _add_common(parser)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--filter", type=str.lower, choices=backend_names() + ["none"],
        default="grafite",
        help="per-run filter backend from the registry (case-insensitive; "
        "'none' disables filtering)",
    )
    parser.add_argument(
        "--compaction", type=str.lower, choices=policy_names(), default="full",
        help="per-shard compaction policy: 'full' (seed behaviour, one "
        "bottom run), 'tiered' (size-tiered level merges), or 'leveled' "
        "(non-overlapping key-range slices, partial rewrites)",
    )
    parser.add_argument(
        "--autotune", action="store_true",
        help="let the per-shard auto-tuner switch filter backends and "
        "bits/key from observed traffic (--filter sets the starting "
        "backend)",
    )
    parser.add_argument(
        "--plan", action=argparse.BooleanOptionalAction, default=True,
        help="run probe batches through the query planner — dedup and "
        "negative-result cache (--no-plan executes batches verbatim)",
    )
    parser.add_argument("--bits-per-key", type=float, default=16.0)
    parser.add_argument("--range-size", type=int, default=32)
    parser.add_argument("--memtable-limit", type=int, default=2048)
    parser.add_argument("--fanout", type=int, default=4)
    parser.add_argument("--batches", type=int, default=4)
    parser.add_argument("--batch-size", type=int, default=2000)
    parser.add_argument(
        "--writes-per-batch", type=int, default=500,
        help="puts/deletes interleaved before each probe batch",
    )
    parser.add_argument(
        "--dir", default=None,
        help="directory for WAL + snapshots; omit for an in-memory engine",
    )


def _load_keys(args: argparse.Namespace) -> tuple:
    """``(universe, keys)`` for the common dataset flags; the dataset
    generators reject a universe or key count outside their domain."""
    universe = 2**args.universe_bits
    return universe, load_dataset(args.dataset, args.n, universe=universe, seed=args.seed)


def _figure_filter(args: argparse.Namespace, universe: int, keys, sample):
    """Build ``--filter`` from the figure registry, as ``fpr`` and
    ``attack`` measure it."""
    cfg = FilterConfig(
        keys=keys, universe=universe, bits_per_key=args.bits_per_key,
        max_range_size=args.range_size, sample_queries=sample, seed=args.seed,
    )
    return build_filter(args.filter, cfg)


def cmd_dataset(args: argparse.Namespace) -> int:
    """Generate a dataset and print its shape statistics."""
    _, keys = _load_keys(args)
    gaps = np.diff(keys.astype(np.float64))
    rows = [
        ["keys", f"{keys.size:,}"],
        ["universe", f"2^{args.universe_bits}"],
        ["min / max", f"{int(keys[0]):,} / {int(keys[-1]):,}"],
        ["mean gap", f"{gaps.mean():,.1f}" if gaps.size else "-"],
        ["median gap", f"{np.median(gaps):,.1f}" if gaps.size else "-"],
        ["max gap", f"{gaps.max():,.1f}" if gaps.size else "-"],
        ["gap skew (mean/median)", f"{gaps.mean() / max(1.0, np.median(gaps)):,.1f}" if gaps.size else "-"],
    ]
    print(format_table(["statistic", "value"], rows, title=f"dataset {args.dataset!r}"))
    return 0


def cmd_fpr(args: argparse.Namespace) -> int:
    """Build one filter, measure FPR and query time on a workload."""
    universe, keys = _load_keys(args)
    if args.workload == "correlated":
        queries = correlated_queries(
            keys, args.queries, args.range_size, universe,
            correlation_degree=args.degree, seed=args.seed + 1,
        )
    else:
        queries = uncorrelated_queries(
            args.queries, args.range_size, universe, keys=keys, seed=args.seed + 1
        )
    filt = _figure_filter(args, universe, keys, queries[: max(16, len(queries) // 16)])
    fpr = measure_fpr(filt, queries)
    timing = time_queries(filt, queries)
    rows = [
        ["filter", args.filter],
        ["keys", f"{filt.key_count:,}"],
        ["bits/key (actual)", f"{filt.bits_per_key:.2f}"],
        ["workload", f"{args.workload}"
         + (f" (D={args.degree})" if args.workload == "correlated" else "")],
        ["range size", str(args.range_size)],
        ["empty queries", f"{fpr.trials:,}"],
        ["false positives", f"{fpr.false_positives:,}"],
        ["FPR", f"{fpr.fpr:.3e}"],
        ["query time", f"{timing.ns_per_op:,.0f} ns"],
    ]
    print(format_table(["metric", "value"], rows, title="fpr measurement"))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Run the adaptive adversary against a filter; print per-round FPR."""
    universe, keys = _load_keys(args)
    sample = uncorrelated_queries(
        64, args.range_size, universe, keys=keys, seed=args.seed + 2
    )
    filt = _figure_filter(args, universe, keys, sample)
    adversary = AdaptiveAdversary(
        keys, leaked_fraction=args.leaked_fraction, seed=args.seed + 3
    )
    report = adversary.attack(
        filt, rounds=args.rounds,
        queries_per_round=args.queries_per_round, range_size=args.range_size,
    )
    rows = [
        [f"round {i + 1}", f"{rate:.4f}"]
        for i, rate in enumerate(report.per_round_fpr)
    ]
    rows.append(["amplification", f"{report.amplification:.2f}x"])
    print(
        format_table(
            ["round", "FPR (backend reads / probe)"], rows,
            title=f"adaptive attack on {args.filter}",
        )
    )
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Evaluate and print the closed-form bounds of Table 1."""
    rows = table1(args.n, 2**args.universe_bits, args.range_size, args.eps)
    printable = [
        [
            r.name,
            r.category,
            r.space_formula,
            f"{r.space_bits / args.n:.2f}" if r.space_bits is not None else "-",
            r.query_time,
        ]
        for r in rows
    ]
    print(
        format_table(
            ["structure", "class", "space formula", "bits/key", "query time"],
            printable,
            title=f"Table 1 at n={args.n:,}, L={args.range_size}, eps={args.eps}",
        )
    )
    return 0


def _bulk_load(target, keys: np.ndarray, rng: np.random.Generator) -> float:
    """Put ``keys`` through ``target`` in shuffled order and flush.

    Returns the put + flush seconds. A persistent target then
    checkpoints, as an operator would before opening the doors — in
    process mode this is also what hands the loaded run sets to the
    snapshot workers.
    """
    t0 = time.perf_counter()
    for key in keys[rng.permutation(keys.size)]:
        target.put(int(key), b"v")
    target.flush_all()
    load_seconds = time.perf_counter() - t0
    if getattr(target, "engine", target).directory is not None:
        target.checkpoint()
    return load_seconds


def _drive_workload(target, args: argparse.Namespace, universe: int, keys) -> dict:
    """Bulk-load then run write/probe batches through ``target``.

    ``target`` is anything with the engine's mutation/probe surface —
    the :class:`ShardedEngine` itself or a :class:`RangeQueryService`
    wrapping one — so both CLI commands measure the identical workload.
    """
    if args.writes_per_batch < 0:
        raise InvalidParameterError(
            f"writes_per_batch must be >= 0, got {args.writes_per_batch}"
        )
    if args.batches < 0:
        raise InvalidParameterError(f"batches must be >= 0, got {args.batches}")
    rng = np.random.default_rng(args.seed + 1)
    load_seconds = _bulk_load(target, keys, rng)
    write_seconds = 0.0
    probe_seconds = 0.0
    probes = empties = 0
    for batch in range(args.batches):
        t0 = time.perf_counter()
        mutations = rng.integers(0, universe, args.writes_per_batch, dtype=np.uint64)
        for i, key in enumerate(mutations):
            if i % 8 == 7:
                target.delete(int(key))
            else:
                target.put(int(key), b"w")
        write_seconds += time.perf_counter() - t0
        queries = uncorrelated_queries(
            args.batch_size, args.range_size, universe,
            keys=keys, seed=args.seed + 10 + batch,
        )
        los = np.asarray([lo for lo, _ in queries], dtype=np.uint64)
        his = np.asarray([hi for _, hi in queries], dtype=np.uint64)
        t0 = time.perf_counter()
        result = target.batch_range_empty(los, his)
        probe_seconds += time.perf_counter() - t0
        probes += result.size
        empties += int(result.sum())
    return {
        "load_seconds": load_seconds,
        "write_seconds": write_seconds,
        "probe_seconds": probe_seconds,
        "probes": probes,
        "empties": empties,
    }


def _parse_hostport(spec: str) -> tuple:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        raise InvalidParameterError(f"expected HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _serve_summary_line(
    snapshot: dict, *, probe_qps: float, compaction: str
) -> str:
    """The machine-grepable ``[serve]`` line, rendered from the
    service's structured :meth:`RangeQueryService.stats_snapshot` so the
    CLI, the protocol ``stats`` op, and the benchmarks agree on every
    number."""
    cache = snapshot["cache"] or {}
    io = snapshot["io"]
    negcache = (snapshot.get("planner") or {}).get("negative_cache") or {}
    return (
        f"[serve] mode={snapshot['mode']} threads={snapshot['threads']} "
        f"workers={snapshot['workers']} probe_qps={probe_qps:,.0f} "
        f"cache_hit_rate={cache.get('hit_ratio', 0.0):.3f} "
        f"negcache_hit_rate={negcache.get('hit_rate', 0.0):.3f} "
        f"worker_queries={snapshot['queries']['worker']} "
        f"local_queries={snapshot['queries']['local']} "
        f"compaction={compaction} "
        f"compaction_steps={snapshot['compaction']['total_steps']} "
        f"entries_compacted={io['entries_compacted']} "
        f"write_amp={io['write_amplification']:.2f}"
    )


def _listen(service, address: tuple, args: argparse.Namespace, n_keys: int) -> list:
    """``serve --listen``: run the network front door over ``service``
    until SIGINT/SIGTERM; return the summary and shutdown lines.

    The signal triggers the graceful sequence — stop accepting, flush
    every batching window, drain in-flight work and compactions —
    instead of a KeyboardInterrupt traceback; the caller then
    checkpoints (persistent engines) and closes.
    """
    import asyncio
    import signal

    from repro.net import NetServer, ServerConfig

    config = ServerConfig(
        batch_window=args.batch_window_us * 1e-6,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        max_compaction_backlog=args.max_compaction_backlog,
        max_cache_miss_rate=args.max_cache_miss_rate,
    )

    async def main() -> dict:
        server = NetServer(service, host=address[0], port=address[1], config=config)
        await server.start()
        bound_host, bound_port = server.address
        print(
            f"[serve] listening on {bound_host}:{bound_port} "
            f"(keys={n_keys:,}, window={args.batch_window_us:.0f}us, "
            f"max_inflight={args.max_inflight})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("[serve] signal received: draining", flush=True)
        await server.stop()
        return server.stats()

    stats = asyncio.run(main())
    service.wait_for_compactions(timeout=30.0)
    shed = stats["shed_inflight"] + stats["shed_overload"] + stats["shed_shutdown"]
    return [
        _serve_summary_line(service.stats_snapshot(), probe_qps=0.0,
                            compaction=args.compaction),
        f"[serve] shutdown clean: connections={stats['connections_total']} "
        f"queries={stats['queries_answered']} shed={shed} "
        f"protocol_errors={stats['protocol_errors']}",
    ]


def cmd_workload(args: argparse.Namespace) -> int:
    """``engine``, ``serve`` and ``serve --listen``.

    Builds the engine, wraps it in a :class:`RangeQueryService` for
    ``serve``, drives the canned workload (or, with ``--listen``, the
    network front door), closes everything, then prints the report
    table and the machine-grepable summary line (mirroring what the
    benchmarks record, so manual and bench runs agree).
    """
    from repro.engine import AutoTuner, BatchPlanner, RangeQueryService, ShardedEngine
    from repro.filters.registry import FilterSpec

    serving = args.command == "serve"
    if serving and args.mode == "process" and args.dir is None:
        # RangeQueryService refuses this too, but only after the dataset
        # is drawn (and, with --listen, bulk-loaded).
        raise InvalidParameterError(
            "--mode process needs --dir (snapshot workers open the shards "
            "from the engine's checkpoint directory)"
        )
    address = _parse_hostport(args.listen) if serving and args.listen else None
    universe, keys = _load_keys(args)
    engine = ShardedEngine(
        universe,
        num_shards=args.shards,
        memtable_limit=args.memtable_limit,
        compaction_fanout=args.fanout,
        filter_spec=None if args.filter == "none" else FilterSpec(
            backend=args.filter, bits_per_key=args.bits_per_key,
            max_range_size=args.range_size, seed=args.seed,
        ),
        directory=args.dir,
        compaction=args.compaction,
    )
    if args.autotune:
        engine.attach_autotuner(AutoTuner())
    if args.plan:
        engine.attach_planner(BatchPlanner())
    if address is not None:
        # The front door serves a loaded store: load (and checkpoint,
        # which hands process-mode workers their run sets) first.
        _bulk_load(engine, keys, np.random.default_rng(args.seed + 1))
    service = RangeQueryService(
        engine, num_threads=args.threads, cache_blocks=args.cache_blocks,
        miss_latency=args.miss_latency_us * 1e-6, mode=args.mode,
        num_workers=args.workers,
    ) if serving else None
    try:
        if address is not None:
            report = _listen(service, address, args, keys.size)
        else:
            metrics = _drive_workload(service or engine, args, universe, keys)
            report = _workload_report(engine, service, args, keys, metrics)
    finally:
        if service is not None:
            service.close()
        if engine.directory is not None:
            engine.close()
    print("\n".join(report))
    return 0


def _workload_report(engine, service, args: argparse.Namespace, keys, m: dict) -> list:
    """The ``engine`` / ``serve`` report table and its summary line.

    ``serve`` first drains its background compactions, so the table
    shows the settled store.
    """
    if service is not None:
        service.wait_for_compactions(timeout=30.0)
    stats = engine.stats
    total_writes = keys.size + args.batches * args.writes_per_batch
    tuner = engine.autotuner
    filter_cell = args.filter
    if tuner is not None:
        counts = ", ".join(
            f"{name} x{n}" for name, n in sorted(tuner.backend_counts().items())
        )
        filter_cell = (
            f"{args.filter} + autotune ({counts}; "
            f"{len(tuner.decisions)} decisions)"
        )
    planner = engine.planner
    rows = [
        ["universe / shards", f"2^{args.universe_bits} / {args.shards}"],
        ["filter", filter_cell],
        ["planner", format_planner_summary(
            planner.stats_snapshot() if planner is not None else None)],
        ["live keys", f"{len(engine):,}"],
        ["runs (filter bits)", f"{engine.run_count} ({engine.filter_bits_total:,})"],
        ["bulk load", f"{keys.size:,} puts, "
         + f"{keys.size / m['load_seconds']:,.0f} op/s"],
        ["mixed writes", f"{total_writes - keys.size:,} ops, "
         + (f"{(total_writes - keys.size) / m['write_seconds']:,.0f} op/s"
            if m["write_seconds"] else "-")],
        ["batch probes", f"{m['probes']:,} ({args.batches} x {args.batch_size}), "
         + (f"{m['probes'] / m['probe_seconds']:,.0f} q/s"
            if m["probe_seconds"] else "-")],
        ["empty ranges", f"{m['empties']:,} / {m['probes']:,}"],
        ["reads performed / avoided", f"{stats.reads_performed:,} / {stats.reads_avoided:,}"],
        ["wasted reads (filter FPs)", f"{stats.wasted_reads:,}"],
        ["flushes / compaction steps",
         f"{stats.flushes} / {stats.compactions} ({args.compaction})"],
        ["write amplification",
         format_write_amp(stats.entries_flushed, stats.entries_compacted,
                          stats.bytes_compacted)],
        ["durability", str(engine.directory) if engine.directory else "in-memory"],
    ]
    probe_qps = m["probes"] / m["probe_seconds"] if m["probe_seconds"] else 0.0
    if service is None:
        return [
            format_table(["metric", "value"], rows, title="sharded engine workload"),
            f"[engine] compaction={args.compaction} probe_qps={probe_qps:,.0f} "
            f"compaction_steps={stats.compactions} "
            f"entries_compacted={stats.entries_compacted} "
            f"bytes_compacted={stats.bytes_compacted} "
            f"write_amp={stats.write_amplification:.2f}",
        ]
    rows.insert(1, ["mode / threads / workers",
                    f"{service.mode} / {args.threads} / {service.num_workers}"])
    rows.append(["background compactions", f"{service.background_compactions}"])
    if service.mode == "process":
        rows.append(["worker vs local queries",
                     f"{service.worker_queries:,} / {service.local_queries:,}"])
    if service.cache is not None:
        rows.append(
            ["block cache", f"{stats.cache_hits:,} hits / "
             f"{stats.cache_misses:,} misses "
             f"({stats.cache_hit_ratio:.0%} hit ratio, "
             f"{len(service.cache):,} resident)"]
        )
    return [
        format_table(["metric", "value"], rows, title="concurrent serving workload"),
        _serve_summary_line(service.stats_snapshot(), probe_qps=probe_qps,
                            compaction=args.compaction),
    ]


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Open-loop load generation against a running ``serve --listen``."""
    from repro.analysis.report import format_error_ledger, format_latency_histogram
    from repro.net import LoadConfig, RetryPolicy, run_loadgen

    host, port = _parse_hostport(args.connect)
    # Zipf aims at hot keys, so the generator regenerates the server's
    # dataset locally — same --dataset/--n/--seed on both sides.
    universe, keys = _load_keys(args)
    cfg = LoadConfig(
        clients=args.clients,
        connections=args.connections,
        rate=args.rate,
        n_requests=args.requests,
        range_size=args.range_size,
        distribution=args.distribution,
        skew=args.skew,
        n_hot=args.hot,
        arrivals=args.arrivals,
        burst_factor=args.burst_factor,
        burst_period=args.burst_period,
        seed=args.seed,
        request_timeout=args.request_timeout,
        retry=(
            RetryPolicy(max_attempts=args.retries + 1, seed=args.seed)
            if args.retries else None
        ),
    )
    report = run_loadgen(host, port, cfg, universe=universe, keys=keys)
    rows = [
        ["target", f"{host}:{port}"],
        ["clients / connections", f"{cfg.clients} / {cfg.connections}"],
        ["distribution", f"{cfg.distribution}"
         + (f" (skew={cfg.skew}, hot={cfg.n_hot})"
            if cfg.distribution == "zipf" else "")],
        ["arrivals", f"{cfg.arrivals}"
         + (f" (x{cfg.burst_factor} bursts every {cfg.burst_period}s)"
            if cfg.arrivals == "bursty" else "")],
        ["offered load", f"{report.offered_qps:,.0f} q/s"],
        ["achieved", f"{report.achieved_qps:,.0f} q/s "
         f"({report.completed:,} of {report.sent:,} in {report.elapsed:.2f}s)"],
        ["shed", f"{report.shed:,} ({report.shed_rate:.1%})"],
        ["errors", f"{report.errors:,}"
         + (f" ({', '.join(f'{k}={v}' for k, v in sorted(report.error_classes.items()))})"
            if report.error_classes else "")],
        ["empty ranges", f"{report.empties:,}"],
    ]
    print(format_table(["metric", "value"], rows, title="open-loop load test"))
    print(
        format_latency_histogram(
            report.latencies, title="request latency (open-loop)"
        )
    )
    print(
        f"[loadgen] offered_qps={report.offered_qps:,.0f} "
        f"achieved_qps={report.achieved_qps:,.0f} "
        f"p50_ms={report.p50 * 1e3:.3f} p99_ms={report.p99 * 1e3:.3f} "
        f"shed_rate={report.shed_rate:.4f} "
        + format_error_ledger(report.shed, report.errors, report.error_classes)
    )
    return 1 if report.errors else 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Run the declarative scenario matrix with differential verification.

    Each ``(scenario, mode)`` pair replays the same seeded op stream
    against the chosen serving layer and a sorted-dict oracle; the
    summary line per run carries the bit-exactness verdict. Exits
    non-zero if any run diverged from the oracle.
    """
    import json as json_mod

    from repro.workloads.scenarios import MODES, get_scenario, run_scenario, scenario_names

    if args.list:
        rows = []
        for name in scenario_names():
            s = get_scenario(name)
            mix = "/".join(f"{k}:{v:g}" for k, v in sorted(s.mix.items()) if v)
            rows.append([name, s.key_type, mix, ", ".join(s.modes())])
        print(format_table(
            ["scenario", "keys", "mix", "modes"], rows, title="scenarios",
        ))
        return 0

    scenarios = [get_scenario(name) for name in args.names or scenario_names()]
    if args.mode is None:
        modes = ["engine", "service"]
    elif "all" in args.mode:
        modes = list(MODES)
    else:
        modes = list(dict.fromkeys(args.mode))
    unknown = [mode for mode in modes if mode not in MODES]
    if unknown:
        raise InvalidParameterError(f"unknown mode {unknown[0]!r}; choose from {MODES}")
    pairs = [(s, mode) for s in scenarios for mode in modes if mode in s.modes()]
    if not pairs:
        raise InvalidParameterError(
            f"no selected scenario supports mode(s) {modes}; nothing to run"
        )
    reports = []
    failures = 0
    for scenario, mode in pairs:
        report = run_scenario(
            scenario, mode=mode, seed=args.seed,
            num_threads=args.threads, scale=args.scale,
        )
        reports.append(report)
        failures += 0 if report.ok else 1
        probe_p99 = report.latency_ms.get("probe", {}).get("p99", 0.0)
        print(
            f"[scenarios] scenario={report.scenario} mode={report.mode} "
            f"seed={report.seed} ops={report.ops} checks={report.checks} "
            f"mismatches={report.mismatches} "
            f"final_match={str(report.final_match).lower()} "
            f"fpr={report.fpr:.4f} probe_p99_ms={probe_p99:.3f} "
            f"ttl_now={report.ttl_now} live_keys={report.live_keys} "
            f"ok={str(report.ok).lower()}"
        )
    if args.json:
        print(json_mod.dumps([r.to_dict() for r in reports], indent=1))
    print(
        f"[scenarios] runs={len(reports)} failures={failures} "
        f"ok={str(failures == 0).lower()}"
    )
    return 0 if failures == 0 else 1


def cmd_scrub(args: argparse.Namespace) -> int:
    """Integrity survey of a persistent engine directory.

    Verifies the manifest checksums (current + retained previous
    epoch), every referenced run blob, and the WAL record chain —
    without opening, repairing, or mutating anything. Exit code 0 means
    every artifact verified; 1 means corruption was found (the report
    names each damaged file; ``ShardedEngine.open`` will roll back to
    the previous epoch if the damage is in the newest one).
    """
    import json as json_mod

    from repro.engine import scrub_snapshot

    report = scrub_snapshot(args.dir)
    if args.json:
        print(json_mod.dumps(report, indent=1))
    else:
        wal = report["wal"]
        wal_cell = (
            wal if isinstance(wal, str) else  # "missing" or "corrupt"
            f"{wal['records']} records"
            + (", torn tail (tolerated)" if wal["torn_tail"] else ", intact")
        )
        rows = [
            ["directory", report["directory"]],
            ["manifest", report["manifest"]],
            ["previous epoch", report["prev_manifest"]],
            ["runs checked", f"{report['runs_checked']:,}"],
            ["runs corrupt", f"{report['runs_corrupt']:,}"],
            ["wal", wal_cell],
            ["verdict", "intact" if report["ok"] else "CORRUPT"],
        ]
        print(format_table(["artifact", "status"], rows, title="scrub"))
        for issue in report["errors"]:
            print(f"  ! {issue}")
    print(
        f"[scrub] ok={str(report['ok']).lower()} "
        f"runs_checked={report['runs_checked']} "
        f"runs_corrupt={report['runs_corrupt']} "
        f"issues={len(report['errors'])}"
    )
    return 0 if report["ok"] else 1


_COMMANDS = {
    "dataset": cmd_dataset,
    "fpr": cmd_fpr,
    "attack": cmd_attack,
    "table1": cmd_table1,
    "engine": cmd_workload,
    "serve": cmd_workload,
    "loadgen": cmd_loadgen,
    "scenarios": cmd_scenarios,
    "scrub": cmd_scrub,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code (2, argparse's usage
    code, with one ``error:`` line for a parameter out of its domain)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidParameterError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
