"""Shared benchmark harness: scaling, timing, and table output.

Every benchmark reads ``REPRO_SCALE`` (``small`` by default, ``medium``
for 10x) so the whole suite stays CI-friendly while remaining
proportional to the paper's workloads.  Results are printed as aligned
tables mirroring the paper's figures and also appended to
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: Scale factors relative to the `small` baseline.
SCALES = {"small": 1, "medium": 10}


def scale_factor() -> int:
    name = os.environ.get("REPRO_SCALE", "small")
    if name not in SCALES:
        raise KeyError(f"REPRO_SCALE must be one of {sorted(SCALES)}")
    return SCALES[name]


def scaled(n: int) -> int:
    """Scale a `small` workload size by the configured factor."""
    return n * scale_factor()


@dataclass
class Measurement:
    """One measured cell: operations per second plus metadata."""

    ops_per_sec: float
    seconds: float
    n_ops: int


#: Floor on a measured interval: one tick of the perf counter.  Without
#: it a sub-resolution run reports infinite throughput, which poisons
#: downstream arithmetic (``equi_cost`` would turn inf ops/s into a
#: meaningless cost of 0).
MIN_TIMER_RESOLUTION = max(time.get_clock_info("perf_counter").resolution, 1e-9)


def measure_ops(fn: Callable[[], Any], n_ops: int, repeats: int = 3) -> Measurement:
    """Time ``fn``, attributing ``n_ops`` operations to the best of
    ``repeats`` runs (best-of-N suppresses scheduler noise, which
    matters for the shape assertions on small scaled workloads)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    best = max(best, MIN_TIMER_RESOLUTION)
    return Measurement(n_ops / best, best, n_ops)


def held_bytes(make: Callable[[], Any]) -> int:
    """Bytes that the object ``make()`` returns holds once built: the
    traced allocations still alive after the call, with temporaries
    collected.  ``make`` runs once untraced first, so lazy imports and
    module-level caches are not charged to the object."""
    make()
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    del obj
    return held


def equi_cost(ops_per_sec: float, memory_bytes: int) -> float:
    """The paper's balanced cost function C = P * S (Section 3.7.1),
    with P as latency (1/throughput): lower is better."""
    latency = 1.0 / ops_per_sec if ops_per_sec else float("inf")
    return latency * memory_bytes


# -- output ------------------------------------------------------------------

RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[Any]]
) -> str:
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    if isinstance(cell, int) and abs(cell) >= 10000:
        return f"{cell:,}"
    return str(cell)


def report(name: str, title: str, headers: Sequence[str], rows) -> str:
    """Print a paper-shaped table and persist it under benchmarks/results.

    Two artifacts per experiment: the human-readable aligned table
    (``<name>.txt``, mirrored in EXPERIMENTS.md) and a machine-readable
    ``<name>.json`` so successive PRs can diff the perf trajectory.
    """
    rows = [list(row) for row in rows]
    text = format_table(title, headers, rows)
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    payload = {
        "name": name,
        "title": title,
        "scale": os.environ.get("REPRO_SCALE", "small"),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "headers": list(headers),
        "rows": [[_json_cell(c) for c in row] for row in rows],
    }
    (RESULTS_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
    return text


def _json_cell(cell: Any):
    """Coerce a table cell to a JSON-native value, unformatting numeric
    strings like ``"12,345"`` so consumers can compare runs directly."""
    if isinstance(cell, (int, float, bool)) or cell is None:
        return cell
    s = str(cell)
    stripped = s.replace(",", "")
    try:
        return int(stripped)
    except ValueError:
        try:
            return float(stripped)
        except ValueError:
            return s
