"""Summary statistics, host probe and process measurements for the benchmark.

Standard library only: the orchestrator imports this before it knows whether
the program under test is importable at all.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie above it.
MIN_TAIL_SAMPLES = 10

#: Iterations of the host-speed probe loop (a few milliseconds of pure Python).
PROBE_ITERATIONS = 30_000


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-quantile (rounded so 0.9*100 is 90)."""
    return max(1, math.ceil(round(q * count, 9)))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q``-quantile's rank."""
    return count - _rank(count, q)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (nearest rank), or ``None`` when the tail is too thin.

    A percentile is only meaningful when enough samples lie beyond it; with
    fewer than :data:`MIN_TAIL_SAMPLES` above the rank it would be set by a
    handful of outliers, so it is not reported.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    count = len(values)
    if count == 0 or samples_beyond(count, q) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return float(ordered[_rank(count, q) - 1])


def host_probe_ms() -> float:
    """Time a fixed pure-Python loop: a diagnostic of the host's current speed.

    Identical work every call, so a shift in this number between runs is a
    change of host speed, not of the program.  It scales no metric.
    """
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value
    return (time.perf_counter() - started) * 1000.0


def peak_rss_mb(pid: int) -> float:
    """The peak resident set (VmHWM) of process ``pid`` in MB, 0 if gone."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and all of its live descendants."""
    tree = [pid]
    index = 0
    while index < len(tree):
        current = tree[index]
        index += 1
        try:
            children = Path(f"/proc/{current}/task/{current}/children").read_text()
        except OSError:
            continue
        tree.extend(int(child) for child in children.split())
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of a process tree (an upper bound)."""
    return sum(peak_rss_mb(member) for member in process_tree(pid))


def metric(value: float, unit: str, samples: int) -> Dict[str, object]:
    """One reported metric with its unit and sample count."""
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def summarise_ops(latencies_ms: Iterable[float]) -> Dict[str, Dict[str, object]]:
    """Median and p90 op latency; p90 is absent when the tail is too thin."""
    values = list(latencies_ms)
    out = {"op_p50_ms": metric(median(values), "ms", len(values))}
    p90 = percentile(values, 0.9)
    if p90 is not None:
        out["op_p90_ms"] = metric(p90, "ms", len(values))
    return out

