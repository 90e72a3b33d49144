"""Self-test of the benchmark harness (``pytest benchmarks/perf -q``; not tier-1).

Runs the four workloads at ``--smoke`` size (one iteration, a tenth of the
inputs) and checks the contract between the code and ``BENCHMARK.json``:
same workload and metric names, names in the allowed alphabet, every metric
reported, and ``compare`` of a document with itself passing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [workload["name"] for workload in MANIFEST["workloads"]]


def perf(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    return subprocess.run([sys.executable, "-m", "benchmarks.perf", *args], cwd=cwd, env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = perf("run", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out


def test_names_use_the_allowed_alphabet_and_are_unique():
    names = WORKLOADS + [metric["name"] for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_manifest_matches_the_code():
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks.perf import metrics
    finally:
        sys.path.pop(0)
    assert WORKLOADS == list(metrics.WORKLOADS)
    for listed, defined in ((MANIFEST["end_to_end"], metrics.END_TO_END), (MANIFEST["per_layer"], metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in listed] == [(m.name, m.unit, m.better) for m in defined]
    assert len(metrics.LAYERS) == 17


def test_smoke_document_reports_every_end_to_end_metric(smoke):
    document = json.loads(smoke.read_text())
    assert list(document["workloads"]) == WORKLOADS
    wanted = [metric["name"] for metric in MANIFEST["end_to_end"]]
    for name, workload in document["workloads"].items():
        assert workload["failed"] == 0 and workload["correct"], workload["failures"]
        assert list(workload["metrics"]) == wanted, name
        assert all(metric["value"] > 0 for metric in workload["metrics"].values()), name
        assert {"python", "platform", "nproc", "git_commit", "loadavg_1m", "calib_s", "seed"} <= set(workload["env"])


def test_compare_of_a_document_with_itself_passes(smoke):
    done = perf("compare", str(smoke), str(smoke))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 regression(s)" in done.stdout


def test_driver_entry_fails_cleanly_without_the_system_under_test(tmp_path):
    """In a directory holding only the benchmark, the entry point exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "benchmarks/perf/run.py", "--workload", "bulk_move", "--seed", "3", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
