"""``compare A.json B.json``: is B no worse than A, by the benchmark's own bounds?

Both files are documents written by ``run --out``.  For every workload in
both and every end-to-end metric, prints the relative difference and one of

* ``pass``       — B is not worse than A by more than the metric's bound;
* ``regressed``  — it is;
* ``unresolved`` — the run-to-run spread either document expects of its own
  median (iteration IQR / sqrt(K)) is wider than the bound, so the comparison
  cannot tell (reported, not failed).

Runs with equal seeds and iteration counts must also have equal
``sim_fingerprint``s: a performance change may not move what was simulated.
``failed`` may not increase.  Exit status is non-zero on any regression.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from .harness import REPO_ROOT


def load_bounds() -> Dict[str, dict]:
    """End-to-end metric definitions (unit, direction, bound) from ``BENCHMARK.json``."""
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in manifest["end_to_end"]}


def worse_by(baseline: float, candidate: float, better: str) -> float:
    """Relative worsening of *candidate* against *baseline* (negative = better)."""
    if baseline == 0:
        return 0.0
    change = (candidate - baseline) / abs(baseline)
    return change if better == "lower" else -change


def compare_workload(name: str, baseline: dict, candidate: dict, bounds: Dict[str, dict]) -> int:
    """Print one workload's rows; returns the number of regressions."""
    regressions = 0
    print(f"== {name}")
    same_inputs = (baseline["seed"], baseline["iterations"], baseline["scale"]) == (
        candidate["seed"],
        candidate["iterations"],
        candidate["scale"],
    )
    if same_inputs:
        equal = baseline["sim_fingerprint"] == candidate["sim_fingerprint"]
        print(f"   {'sim_fingerprint':<18} {'identical' if equal else 'DIFFERENT':>12}   {'pass' if equal else 'regressed'}")
        regressions += 0 if equal else 1
    else:
        print(f"   {'sim_fingerprint':<18} {'n/a':>12}   skipped (different seed, iterations or scale)")
    if candidate["failed"] > baseline["failed"]:
        print(f"   {'failed':<18} {baseline['failed']:>5} -> {candidate['failed']:<5}  regressed")
        regressions += 1
    for metric, spec in bounds.items():
        if metric not in baseline["metrics"] or metric not in candidate["metrics"]:
            continue
        before = baseline["metrics"][metric]["value"]
        after = candidate["metrics"][metric]["value"]
        worsening = worse_by(before, after, spec["better"])
        spread = max(baseline.get("spread", {}).get(metric, 0.0), candidate.get("spread", {}).get(metric, 0.0))
        if spread > spec["bound"]:
            verdict = f"unresolved (spread {spread:.1%} > bound)"
        elif worsening > spec["bound"]:
            verdict = "regressed"
            regressions += 1
        else:
            verdict = "pass"
        print(
            f"   {metric:<18} {before:>12.6g} -> {after:<12.6g} {spec['unit']:<4} "
            f"worse by {worsening:+.2%} (bound {spec['bound']:.0%})  {verdict}"
        )
    return regressions


def main(baseline_path: Path, candidate_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())["workloads"]
    candidate = json.loads(candidate_path.read_text())["workloads"]
    bounds = load_bounds()
    regressions = 0
    for name in baseline:
        if name in candidate:
            regressions += compare_workload(name, baseline[name], candidate[name], bounds)
        else:
            print(f"== {name}\n   missing from {candidate_path}")
            regressions += 1
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0
