"""Benchmark result persistence: ``BENCH_<name>.json`` artifacts.

Every benchmark that produces headline numbers (operation throughput, freeze
windows, latency percentiles) can persist them as a small JSON document next
to the benchmark sources, so runs are diffable across commits and machines
without scraping pytest output.  The format is deliberately flat:

* ``write_results(name, payload)`` writes ``BENCH_<name>.json`` with sorted
  keys and stable indentation (byte-identical output for identical results);
* ``duration_stats(durations)`` turns a list of per-operation durations
  (simulated seconds) into the shared summary shape — count, ops/sec over the
  summed duration, and mean/p50/p99 in milliseconds.

Nothing here imports the simulator: the module is pure stdlib so it works the
same from pytest runs and ``python benchmarks/bench_*.py`` script runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: Result documents live next to the benchmark sources.
RESULTS_DIR = Path(__file__).resolve().parent


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values* by linear interpolation.

    Matches ``statistics.quantiles``' inclusive method for the common cases
    (p50 of an odd-length list is its median) without requiring n >= 2.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def duration_stats(durations: Sequence[float]) -> Dict[str, float]:
    """Summary statistics for per-operation durations (simulated seconds)."""
    total = sum(durations)
    return {
        "count": len(durations),
        "ops_per_sec": round(len(durations) / total, 3) if total > 0 else 0.0,
        "mean_ms": round(1000.0 * total / len(durations), 4),
        "p50_ms": round(1000.0 * percentile(durations, 50.0), 4),
        "p99_ms": round(1000.0 * percentile(durations, 99.0), 4),
    }


def write_results(name: str, payload: Dict[str, Any], *, directory: Optional[Path] = None) -> Path:
    """Persist *payload* as ``BENCH_<name>.json``; returns the path written."""
    target_dir = Path(directory) if directory is not None else RESULTS_DIR
    path = target_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def read_results(name: str, *, directory: Optional[Path] = None) -> Dict[str, Any]:
    """Load a previously-written ``BENCH_<name>.json`` document."""
    target_dir = Path(directory) if directory is not None else RESULTS_DIR
    return json.loads((target_dir / f"BENCH_{name}.json").read_text())


def freeze_stats(freeze_windows: Sequence[float]) -> Dict[str, float]:
    """Summary of per-move freeze (event-buffering) windows in milliseconds."""
    return {
        "mean_ms": round(1000.0 * sum(freeze_windows) / len(freeze_windows), 4),
        "p50_ms": round(1000.0 * percentile(freeze_windows, 50.0), 4),
        "p99_ms": round(1000.0 * percentile(freeze_windows, 99.0), 4),
        "max_ms": round(1000.0 * max(freeze_windows), 4),
    }


__all__ = ["RESULTS_DIR", "duration_stats", "freeze_stats", "percentile", "read_results", "write_results"]
