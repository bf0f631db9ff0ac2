"""In-memory span recorder and the self-time accounting over its spans.

A span is ``(id, parent, request, name, start, end)`` on the
``time.perf_counter`` clock (CLOCK_MONOTONIC on Linux, so spans from a
server child line up with the parent's). The current span lives in a
:class:`contextvars.ContextVar`, which gives every asyncio task its own
parent chain; :meth:`Recorder.carry` re-enters a captured context on
another thread, so a request keeps its id across thread pools.

:func:`attribute` splits a window of wall-clock time among layers: at
every instant the time goes, in equal shares, to the *innermost* active
spans (those with no active child), and instants no span covers go to
``other``. With one thread and nested spans that is exactly each span's
duration minus its children's; with concurrent threads the shares still
sum to the window, so the layer table always adds up.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

Span = Tuple[int, int, int, str, float, float]  # id, parent, rid, name, t0, t1

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=(0, 0))


class Recorder:
    """Collects spans while :attr:`enabled`; costs one flag test when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._lock = threading.Lock()

    def begin(self, name: str):
        """Open a span under the current one; returns the token for :meth:`end`."""
        parent, rid = _current.get()
        sid = next(self._ids)
        if not parent:
            rid = next(self._rids)
        token = _current.set((sid, rid))
        return (sid, parent, rid, name, time.perf_counter(), token)

    def end(self, opened) -> None:
        sid, parent, rid, name, t0, token = opened
        t1 = time.perf_counter()
        _current.reset(token)
        self.spans.append((sid, parent, rid, name, t0, t1))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def carry(self, fn):
        """Wrap ``fn`` to run in the caller's span context on any thread."""
        ctx = contextvars.copy_context()

        def run(*args, **kwargs):
            return ctx.run(fn, *args, **kwargs)

        return run

    def dump(self, path, **extra) -> None:
        """Write the spans, counters and ``extra`` fields as JSON."""
        payload = {
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def load_dump(path) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    payload["spans"] = [tuple(s) for s in payload.get("spans", [])]
    return payload


def attribute(
    spans: Sequence[Span], windows: Iterable[Tuple[float, float]]
) -> Dict[str, float]:
    """Seconds of the given windows attributed to each span name.

    Returns a mapping name -> seconds, plus ``"other"`` for the part of
    the windows no span covers; the values sum to the windows' total
    length. Spans are clipped to the windows.
    """
    windows = sorted((float(a), float(b)) for a, b in windows if b > a)
    events: List[Tuple[float, int, int]] = []
    names: Dict[int, str] = {}
    parents: Dict[int, int] = {}
    for sid, parent, _rid, name, t0, t1 in spans:
        names[sid] = name
        parents[sid] = parent
        if t1 > t0:
            events.append((t0, 1, sid))
            events.append((t1, 0, sid))
    # Window edges are events too, so the sweep can tell in from out.
    for a, b in windows:
        events.append((a, 2, -1))
        events.append((b, -1, -1))
    events.sort()
    out: Dict[str, float] = defaultdict(float)
    active: Dict[int, int] = {}      # span id -> active child count
    innermost: Dict[int, None] = {}  # active spans with no active child
    in_window = 0
    last = events[0][0] if events else 0.0
    for t, kind, sid in events:
        dt = t - last
        if dt > 0 and in_window:
            if innermost:
                share = dt / len(innermost)
                for leaf in innermost:
                    out[names[leaf]] += share
            else:
                out["other"] += dt
        last = t
        if kind == 2:
            in_window += 1
        elif kind == -1:
            in_window -= 1
        elif kind == 1:
            active[sid] = 0
            innermost[sid] = None
            parent = parents[sid]
            if parent in active:
                active[parent] += 1
                innermost.pop(parent, None)
        else:
            active.pop(sid, None)
            innermost.pop(sid, None)
            parent = parents[sid]
            if parent in active:
                active[parent] -= 1
                if active[parent] == 0:
                    innermost[parent] = None
    return dict(out)


def totals(spans: Sequence[Span], windows) -> Dict[str, Tuple[int, float]]:
    """Per span name: (count, inclusive seconds) of spans that start
    inside one of the windows."""
    windows = list(windows)
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for _sid, _parent, _rid, name, t0, t1 in spans:
        if any(a <= t0 < b for a, b in windows):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
    return {name: (int(c), s) for name, (c, s) in out.items()}
