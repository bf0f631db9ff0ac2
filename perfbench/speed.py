"""Host-speed normalisation of the benchmark's times.

On the shared 2-vCPU VM the benchmark was tuned on, the host flips
between a fast and a slow state (in one run, 9 ms against 17.5 ms per
net-zipf frame) for seconds to minutes, so raw times of the same code
spread past any useful bound from run to run. A fixed pure-Python
reference kernel, run between the timed calls, follows those flips:
over three-second windows of probe-batch its time correlated 0.99 with
the workload's round time, and dividing by it cut the windows' quartile
spread from 0.38 to 0.10. Every reported time is therefore scaled by
``NOMINAL_S / k``, where ``k`` is the kernel's median time within a
window (``WINDOW_S`` unless the workload says otherwise) of the timed
call: times read as on a host where the kernel takes ``NOMINAL_S``.

The kernel runs no program code and its data fits in a core's private
caches, so a change to the program moves the scaled times as it moves
the raw ones. (A kernel of lookups in a dict larger than the caches
tracked the host better within a run, but its time depended on what the
program left in the caches: 0.27 ms between ingest-mixed's blocks,
0.68 ms between probe-batch's rounds.) The kernel's time moves about
1.4 times less than the workloads' between the host's states; raising
its ratio to a power steadied medians but unsteadied p90s, so none is
used. Runs log the raw figures to stderr as well.
"""
from __future__ import annotations

import gc
import os
import time
from typing import List

import numpy as np

NOMINAL_S = 0.4e-3  # about the kernel's time on the VM above
# Each side of a timed call. Over six seeds, 0.25-0.5 s gave probe-batch
# about half the quartile spread of 1-4 s.
WINDOW_S = 0.5
KERNEL_ITEMS = 1000


def kernel() -> int:
    """Interpreter-bound reference work: dict inserts, a sort, a sum."""
    table = {}
    for i in range(KERNEL_ITEMS):
        table[i * 7919 % 10007] = i
    ordered = sorted(table.items())
    return sum(v for _, v in ordered)


class Speed:
    """Kernel timings taken through a run, and the scale they give."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self.spent = 0.0

    def sample(self, cpu: int | None = None) -> None:
        """Time the kernel once, on ``cpu`` if given (then move back)."""
        start = time.perf_counter()
        home = None
        if cpu is not None:
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {cpu})
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        if home is not None:
            os.sched_setaffinity(0, home)
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - start

    def summary(self) -> str:
        """Time spent and samples, for another process's :meth:`absorb`."""
        pairs = [x for sample in zip(self.at, self.took) for x in sample]
        return " ".join(repr(x) for x in [self.spent] + pairs)

    def absorb(self, summary: str) -> None:
        """Count another process's samples (from :meth:`summary`) as this
        one's. ``perf_counter`` is the system's monotonic clock, so the
        sample times of both processes lie on one time line."""
        spent, *pairs = (float(x) for x in summary.split())
        self.spent += spent
        samples = sorted(zip(self.at + pairs[0::2], self.took + pairs[1::2]))
        self.at = [at for at, _ in samples]
        self.took = [took for _, took in samples]

    def kernel_s(self) -> float:
        """The kernel's median time over every sample."""
        return float(np.median(self.took))

    def kernel_s_at(self, times, window_s: float = WINDOW_S) -> np.ndarray:
        """The kernel's median time within ``window_s`` of each of ``times``
        (the nearest sample's, where none lies that close)."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        times = np.asarray(times, dtype=np.float64)
        lo = np.searchsorted(at, times - window_s, side="left")
        hi = np.searchsorted(at, times + window_s, side="right")
        out = np.empty(times.size)
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            if b > a:
                out[i] = np.median(took[a:b])
            else:
                out[i] = took[np.abs(at - times[i]).argmin()]
        return out

    def scale(self) -> float:
        """``NOMINAL_S`` over the run's median kernel time."""
        return NOMINAL_S / self.kernel_s()

    def scale_at(self, times, window_s: float = WINDOW_S) -> np.ndarray:
        """``NOMINAL_S`` over the kernel's median time near each of ``times``."""
        return NOMINAL_S / self.kernel_s_at(times, window_s)
