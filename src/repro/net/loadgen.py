"""Open-loop load generator for the network front door.

Simulates the "millions of users" regime at laptop scale: ``clients``
independent request streams with Zipfian key popularity
(:func:`~repro.workloads.queries.zipfian_queries`) and Poisson or
bursty arrivals, multiplexed over a small pool of pipelined
:class:`~repro.net.client.AsyncClient` connections — exactly how a
real fleet fronts a store through connection pools, and exactly what
gives the server's per-connection batching windows queries to coalesce.

**Open loop means the arrival clock never waits for responses.** Every
request has a scheduled send time drawn before the run starts; its
recorded latency is ``completion - scheduled_arrival``, so queueing
delay inside a saturated server (or a loadgen that fell behind the
schedule) shows up as latency instead of silently throttling the
offered rate — the classic closed-loop coordinated-omission trap this
module exists to avoid.

Shed responses (admission control) are counted separately, not folded
into the latency distribution: a shed is the server *choosing* to fail
fast, and the benchmark gates assert it happens under deliberate
overload instead of unbounded queue growth.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DeadlineExceeded, InvalidParameterError
from repro.net import protocol as proto
from repro.net.client import (
    AsyncClient,
    ProtocolErrorClosed,
    RemoteError,
    RetryPolicy,
    ShedError,
)
from repro.workloads.queries import uncorrelated_queries, zipfian_queries


def classify_error(exc: BaseException) -> str:
    """Ledger class of a failed request: reset / timeout / remote /
    protocol / other.

    The classes mirror the retry policy's taxonomy, so a chaos run's
    ``[loadgen]`` summary says directly *what* the storm did — how many
    requests died to connection resets versus deadlines versus the
    server answering with an error — instead of one opaque ``errors``
    count.
    """
    if isinstance(exc, DeadlineExceeded):
        return "timeout"
    if isinstance(exc, RemoteError):
        return "remote"
    if isinstance(exc, ProtocolErrorClosed):
        return "reset"
    if isinstance(exc, proto.ProtocolError):
        return "protocol"
    if isinstance(exc, (ConnectionError, BrokenPipeError, EOFError)):
        return "reset"
    if isinstance(exc, (asyncio.TimeoutError, TimeoutError)):
        return "timeout"
    if isinstance(exc, OSError):
        return "reset"
    return "other"


@dataclass
class LoadConfig:
    """Knobs of one open-loop run.

    ``rate`` is the total offered load in queries/second across all
    simulated clients; ``n_requests`` bounds the run. ``arrivals`` is
    ``"poisson"`` (memoryless) or ``"bursty"`` (on/off modulated:
    periods of ``burst_period`` seconds alternate between
    ``rate * burst_factor`` and a trickle, keeping the same mean rate).
    ``distribution`` is ``"zipf"`` (needs ``keys``) or ``"uniform"``.
    """

    clients: int = 256
    connections: int = 8
    rate: float = 2000.0
    n_requests: int = 5000
    range_size: int = 32
    distribution: str = "zipf"
    skew: float = 1.1
    n_hot: int = 1024
    arrivals: str = "poisson"
    burst_factor: float = 8.0
    burst_period: float = 0.25
    seed: int = 42
    timeout: float = 60.0
    request_timeout: Optional[float] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise InvalidParameterError("request_timeout must be positive")
        if self.clients < 1 or self.connections < 1:
            raise InvalidParameterError("clients and connections must be >= 1")
        if self.rate <= 0:
            raise InvalidParameterError("rate must be positive")
        if self.n_requests < 1:
            raise InvalidParameterError("n_requests must be >= 1")
        if self.distribution not in ("zipf", "uniform"):
            raise InvalidParameterError(
                f"unknown distribution {self.distribution!r}"
            )
        if self.arrivals not in ("poisson", "bursty"):
            raise InvalidParameterError(f"unknown arrivals {self.arrivals!r}")
        if self.burst_factor < 1:
            raise InvalidParameterError("burst_factor must be >= 1")
        if not 0 < self.burst_period < math.inf:
            raise InvalidParameterError(
                f"burst_period must be positive and finite, got {self.burst_period}"
            )


@dataclass
class LoadReport:
    """What one open-loop run measured.

    ``sent`` counts requests actually fired on the wire — equal to
    ``cfg.n_requests`` on a run that completes, smaller when the run's
    timeout truncates the schedule. Fired-but-unanswered stragglers are
    cancelled at teardown and tallied under ``errors``, so
    ``completed + shed + errors == sent`` always holds.

    ``error_classes`` breaks ``errors`` down by failure class
    (:func:`classify_error`: reset / timeout / remote / protocol /
    other, plus ``cancelled`` for teardown stragglers); the values sum
    to ``errors``. A chaos run reads its damage report straight from
    here.
    """

    sent: int
    completed: int
    shed: int
    errors: int
    elapsed: float
    offered_qps: float
    latencies: np.ndarray = field(repr=False)
    empties: int = 0
    error_classes: Dict[str, int] = field(default_factory=dict)

    @property
    def achieved_qps(self) -> float:
        """Successfully answered queries per wall-clock second."""
        return self.completed / self.elapsed if self.elapsed else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of sent requests the server rejected."""
        return self.shed / self.sent if self.sent else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (NaN when nothing completed)."""
        if self.latencies.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies, q))

    @property
    def p50(self) -> float:
        """Median latency, seconds."""
        return self.percentile(50)

    @property
    def p99(self) -> float:
        """99th-percentile latency, seconds."""
        return self.percentile(99)

    def to_dict(self) -> dict:
        """JSON-ready summary (drops the raw latency array)."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "elapsed_s": self.elapsed,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "shed_rate": self.shed_rate,
            "empties": self.empties,
            "error_classes": dict(self.error_classes),
            "p50_s": self.p50,
            "p90_s": self.percentile(90),
            "p99_s": self.p99,
            "max_s": (
                float(self.latencies.max()) if self.latencies.size else
                float("nan")
            ),
        }


def generate_arrivals(cfg: LoadConfig) -> np.ndarray:
    """Scheduled send offsets (seconds, sorted) for the whole run.

    Poisson: one aggregate memoryless process at ``cfg.rate`` (the
    superposition of the per-client processes — statistically identical
    and much cheaper to draw). Bursty: the same process modulated by an
    on/off square wave, ``burst_factor`` times the rate when on and the
    matching trickle when off, mean preserved.
    """
    rng = np.random.default_rng(cfg.seed)
    gaps = rng.exponential(1.0 / cfg.rate, cfg.n_requests)
    if cfg.arrivals == "bursty":
        # Thin the mean gap while "on", stretch it while "off"; the
        # pair (f, 2 - 1/f scaled) keeps the long-run mean at cfg.rate
        # for a 50% duty cycle.
        times = np.cumsum(gaps)
        phase = (times // cfg.burst_period).astype(np.int64) % 2
        on = phase == 0
        factor = np.where(on, 1.0 / cfg.burst_factor,
                          2.0 - 1.0 / cfg.burst_factor)
        gaps = gaps * factor
    return np.cumsum(gaps)


def generate_queries(
    cfg: LoadConfig, universe: int, keys: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """The run's query columns, drawn per ``cfg.distribution``."""
    if cfg.distribution == "zipf":
        if keys is None:
            raise InvalidParameterError(
                "zipf distribution needs the dataset keys (hot-key popularity "
                "is defined over them); use distribution='uniform' otherwise"
            )
        return zipfian_queries(
            keys, cfg.n_requests, cfg.range_size, universe,
            skew=cfg.skew, n_hot=cfg.n_hot, seed=cfg.seed + 1,
        )
    queries = uncorrelated_queries(
        cfg.n_requests, cfg.range_size, universe, keys=None, seed=cfg.seed + 1
    )
    los = np.asarray([lo for lo, _ in queries], dtype=np.uint64)
    his = np.asarray([hi for _, hi in queries], dtype=np.uint64)
    return los, his


async def run_async(
    host: str,
    port: int,
    cfg: LoadConfig,
    *,
    universe: int,
    keys: Optional[np.ndarray] = None,
) -> LoadReport:
    """Drive one open-loop run against a live server (asyncio side)."""
    los, his = generate_queries(cfg, universe, keys)
    offsets = generate_arrivals(cfg)
    # Simulated client -> connection assignment: deterministic striping.
    rng = np.random.default_rng(cfg.seed + 2)
    client_of = rng.integers(0, cfg.clients, cfg.n_requests)
    conn_of = client_of % cfg.connections
    conns = [
        await AsyncClient.connect(
            host, port, timeout=cfg.timeout,
            request_timeout=cfg.request_timeout, retry=cfg.retry,
        )
        for _ in range(cfg.connections)
    ]
    latencies: List[float] = []
    counts: Dict[str, int] = {"shed": 0, "errors": 0, "empties": 0}
    error_classes: Dict[str, int] = {}
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def fire(conn: AsyncClient, idx: int) -> None:
        scheduled = start + float(offsets[idx])
        try:
            empty = await conn.range_empty(int(los[idx]), int(his[idx]))
            latencies.append(loop.time() - scheduled)
            counts["empties"] += int(empty)
        except ShedError:
            counts["shed"] += 1
        except Exception as exc:  # noqa: BLE001 - tally by class, keep firing
            counts["errors"] += 1
            kind = classify_error(exc)
            error_classes[kind] = error_classes.get(kind, 0) + 1

    # Fired requests live at run scope, not inside drive(): the outer
    # timeout cancels only the drive() coroutines, so any fire() task
    # still pending at teardown must be cancelled here — otherwise a
    # truncated run leaks "Task was destroyed but it is pending"
    # warnings and stragglers append latencies after the report exists.
    tasks: List[asyncio.Task] = []

    async def drive(cid: int) -> None:
        conn = conns[cid]
        for idx in np.flatnonzero(conn_of == cid):
            delay = start + float(offsets[idx]) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(fire(conn, int(idx))))

    cancelled = 0
    try:
        await asyncio.wait_for(
            asyncio.gather(*(drive(c) for c in range(cfg.connections))),
            timeout=cfg.timeout * 2,
        )
        if tasks:
            await asyncio.wait(tasks, timeout=cfg.timeout)
    finally:
        pending = [task for task in tasks if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        cancelled = len(pending)
        if cancelled:
            error_classes["cancelled"] = (
                error_classes.get("cancelled", 0) + cancelled
            )
        elapsed = loop.time() - start
        for conn in conns:
            await conn.close()
    return LoadReport(
        # sent counts requests actually fired; on a truncated run the
        # never-scheduled remainder must not dilute shed_rate.
        sent=len(tasks),
        completed=len(latencies),
        shed=counts["shed"],
        errors=counts["errors"] + cancelled,
        elapsed=elapsed,
        offered_qps=cfg.rate,
        latencies=np.asarray(latencies, dtype=np.float64),
        empties=counts["empties"],
        error_classes=error_classes,
    )


def run(
    host: str,
    port: int,
    cfg: LoadConfig,
    *,
    universe: int,
    keys: Optional[np.ndarray] = None,
) -> LoadReport:
    """Synchronous wrapper: run the open-loop generator to completion."""
    return asyncio.run(
        run_async(host, port, cfg, universe=universe, keys=keys)
    )
