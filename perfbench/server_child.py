"""The ``net-zipf`` server: ``serve --listen`` built through the public API.

Run by :mod:`net_zipf` as a child process::

    python3 perfbench/server_child.py --seed 1 --dir D --dump F

It pins itself to the last CPU it may use (the generator takes the
first), bulk-loads the seed's keys into a persistent engine with the
``serve`` CLI defaults and one query thread per CPU it has, lets
compaction drain, starts the front door on a free local port and prints
``READY <host> <port> <speed>``, ``<speed>`` being the reference
kernel's samples from the bulk load (:meth:`speed.Speed.summary`).
Signals drive the rest: ``SIGUSR1`` starts recording spans (installing
the layer wrappers the first time), ``SIGUSR2`` stops recording, and
``SIGTERM`` shuts down like the CLI (drain, checkpoint, close) and
writes ``--dump``: the server's stats and, when recorded, the spans and
counters. The client knows when its traced requests ran, so it sets the
traced windows. The server also gets ``SIGTERM`` when the benchmark
process dies.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import gc
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PR_SET_PDEATHSIG = 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args()
    # Shut down if the benchmark dies without stopping this server.
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    sys.path.insert(0, str(ROOT / "src"))

    import common
    from gen import make_keys
    from layers import Layers
    from repro.engine import RangeQueryService
    from repro.net import NetServer, ServerConfig
    from spans import Recorder
    from speed import Speed

    common.pin_to_cpu(-1)
    engine = common.build_engine(Path(args.dir), "full")
    speed = Speed()
    common.bulk_load(engine, make_keys(args.seed, common.N_KEYS), speed)
    service = RangeQueryService(engine, num_threads=len(os.sched_getaffinity(0)))
    service.wait_for_compactions(timeout=60.0)
    speed.sample()
    # As in the closed loops: set-up's objects leave the collector's
    # generations, so a full collection cannot stall a request by
    # rescanning them.
    gc.collect()
    gc.freeze()
    rec = Recorder()
    layers = Layers(rec)

    def start_trace() -> None:
        layers.install()
        rec.enabled = True

    def stop_trace() -> None:
        rec.enabled = False

    async def serve() -> dict:
        server = NetServer(service, config=ServerConfig())
        await server.start()
        host, port = server.address
        print(f"READY {host} {port} {speed.summary()}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGUSR1, start_trace)
        loop.add_signal_handler(signal.SIGUSR2, stop_trace)
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await stop.wait()
        await server.stop()
        return server.stats()

    server_stats = asyncio.run(serve())
    layers.uninstall()
    payload = {"server": server_stats, "snapshot": service.stats_snapshot()}
    service.close(checkpoint=True)
    engine.close(checkpoint=False)
    rec.dump(args.dump, **payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
