"""Repository benchmark: one workload per run, in a fresh process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload probe-batch --seed 1 --seconds 20 --trace 0

Workloads (all Grafite at 16 bits/key, L=32, 4 shards, a 2^48 universe,
uniform keys; see each module's docstring for its metric mapping):

* ``probe-batch`` (:mod:`probe_batch`) — closed-loop bulk probing of a
  200k-key full-merge store through the planner;
* ``net-zipf`` (:mod:`net_zipf`) — closed-loop Zipf-skewed BATCH frames
  through the network front door of a server child process;
* ``ingest-mixed`` (:mod:`ingest_mixed`) — a closed-loop mutation
  stream with periodic probes and checkpoints on a leveled store.

Inputs come from ``--seed`` only and are drawn before timing starts.
Every verdict is checked against an exact oracle; a wrong verdict makes
the run exit with status 1. With ``--trace 0`` the last stdout line is
the JSON result with every end-to-end metric; with ``--trace 1`` it
carries every per-layer metric, taken from traced stretches that
alternate with untraced ones so the tracing overhead is measured too.
End-to-end times (and the throughputs made from them) are scaled to a
reference host speed that a fixed kernel, timed between the calls,
measures (:mod:`speed`); the raw figures are logged to stderr. The
in-process workloads time their calls by the process's CPU time.
Scratch state and traced runs' span dumps live in ``.perfbench/`` under
the repository root. The self-tests run with
``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("probe-batch", "net-zipf", "ingest-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import layers

    module = __import__(args.workload.replace("-", "_"))
    metrics, attempted, failed = module.run(args.seed, args.seconds, bool(args.trace))
    units = dict(layers.PER_LAYER if args.trace else common.END_TO_END)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    ordered = {name: metrics[name] for name in units}
    common.emit(ordered, units, correct=failed == 0, attempted=attempted, failed=failed)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
