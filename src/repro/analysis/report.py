"""Plain-text table/series rendering for the benchmark harness.

The benchmarks print the same rows and series the paper's figures plot;
this module keeps the formatting in one place (fixed-width text tables,
scientific-notation FPRs, ns/query columns with ratio annotations — the
style of the tables attached to Figures 4 and 5).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a fixed-width text table."""
    materialised: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in materialised:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if 0 < abs(value) < 1e-3 or abs(value) >= 1e6:
            return f"{value:.2e}"
        return f"{value:,.2f}"
    return str(value)


def format_fpr(fpr: float) -> str:
    """FPR cell in the paper's log-scale style."""
    if fpr == 0:
        return "0"
    return f"{fpr:.2e}"


def format_speed_table(entries: Sequence[tuple[str, float]], title: str) -> str:
    """The Figure 4/5 side tables: avg ns/query with x-factor vs fastest."""
    ordered = sorted(entries, key=lambda item: item[1])
    fastest = ordered[0][1] if ordered else 1.0
    rows = [
        (name, f"{ns:,.0f}", f"({ns / fastest:.2f} x)")
        for name, ns in ordered
    ]
    return format_table(["Range filter", "Avg ns/query", "vs fastest"], rows, title=title)


def format_write_amp(
    entries_flushed: int, entries_compacted: int, bytes_compacted: int = 0
) -> str:
    """One-cell summary of an LSM store's write amplification.

    ``entries_flushed`` / ``entries_compacted`` / ``bytes_compacted``
    come from :class:`repro.lsm.store.IoStats`; the headline number is
    the classic ratio of total entries written (flush + compaction
    rewrites) to user entries flushed. The compaction policy is what
    moves it: full merges rewrite the store per compaction, leveled
    slicing rewrites only the touched slices.
    """
    if not entries_flushed:
        return "- (nothing flushed)"
    amp = (entries_flushed + entries_compacted) / entries_flushed
    detail = f"{entries_compacted:,} compacted / {entries_flushed:,} flushed entries"
    if bytes_compacted:
        detail += f", {bytes_compacted:,} bytes rewritten"
    return f"{amp:.2f}x ({detail})"


def format_planner_summary(planner: Optional[dict]) -> str:
    """One-cell summary of a planner's ``stats_snapshot()`` dict.

    Renders the dedup pass's fold count and the negative cache's hit
    rate in the form the ``engine``/``serve`` report tables show —
    ``"off"`` when no planner is attached (``None``).
    """
    if not planner:
        return "off"
    negcache = planner.get("negative_cache") or {}
    parts = [
        f"{planner.get('queries', 0):,} queries -> "
        f"{planner.get('executed_probes', 0):,} probes",
        f"{planner.get('duplicates_folded', 0):,} dups folded",
    ]
    if negcache.get("enabled"):
        parts.append(f"negcache {negcache.get('hit_rate', 0.0):.1%} hit")
    return "; ".join(parts)


def format_error_ledger(
    shed: int, errors: int, error_classes: Optional[dict] = None
) -> str:
    """Compact ``k=v`` ledger of a load run's failures, by class.

    Renders the shed count plus the per-class breakdown of
    :attr:`~repro.net.loadgen.LoadReport.error_classes`
    (reset / timeout / remote / protocol / other / cancelled) in the
    form the ``[loadgen]`` summary line carries — classes with zero
    count are omitted so the healthy case stays short.
    """
    parts = [f"shed={shed}", f"errors={errors}"]
    for kind in ("reset", "timeout", "remote", "protocol", "other",
                 "cancelled"):
        count = (error_classes or {}).get(kind, 0)
        if count:
            parts.append(f"{kind}={count}")
    return " ".join(parts)


def format_latency_histogram(
    latencies_s: Sequence[float],
    *,
    title: Optional[str] = None,
    percentiles: Sequence[float] = (50, 90, 99, 99.9),
    buckets: int = 12,
    width: int = 40,
) -> str:
    """Text histogram of request latencies plus the percentile ladder.

    Buckets are log-spaced between the observed min and max (latency
    distributions are heavy-tailed; linear buckets would dump everything
    into the first row), each row showing the bucket's upper edge in
    milliseconds, a proportional bar, and the count. The percentile rows
    underneath are what the SLO gates read.
    """
    import numpy as np

    lat = np.asarray(latencies_s, dtype=np.float64)
    lines: List[str] = []
    if title:
        lines.append(title)
    if lat.size == 0:
        lines.append("(no completed requests)")
        return "\n".join(lines)
    lo = max(float(lat.min()), 1e-7)
    hi = max(float(lat.max()), lo * 1.0001)
    edges = np.geomspace(lo, hi, buckets + 1)
    edges[0] = 0.0  # the first bucket catches everything below lo
    counts, _ = np.histogram(lat, bins=edges)
    peak = max(1, int(counts.max()))
    for i, count in enumerate(counts):
        bar = "#" * max(int(round(width * count / peak)), 1 if count else 0)
        lines.append(
            f"  <= {edges[i + 1] * 1e3:9.3f} ms | {bar:<{width}} | {count:,}"
        )
    for q in percentiles:
        lines.append(f"  p{q:<5} {float(np.percentile(lat, q)) * 1e3:9.3f} ms")
    lines.append(f"  max   {float(lat.max()) * 1e3:9.3f} ms  ({lat.size:,} samples)")
    return "\n".join(lines)


def format_series(
    x_label: str,
    xs: Sequence[object],
    series: Sequence[tuple[str, Sequence[object]]],
    title: Optional[str] = None,
) -> str:
    """Render a figure's data as one column per series (x on rows)."""
    headers = [x_label] + [name for name, _ in series]
    rows = [
        [x] + [values[i] for _, values in series]
        for i, x in enumerate(xs)
    ]
    return format_table(headers, rows, title=title)
