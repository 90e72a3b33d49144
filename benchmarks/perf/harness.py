"""Timing rules, estimators, and the worker that runs one workload.

Host time is CPU seconds of a single-threaded worker (``time.thread_time()``;
one thread, so the same quantity as ``process_time``, which this kernel reads
coarsely while an interval timer is armed).  Wall time is recorded beside it
only as a contention indicator.  Each workload runs one discarded warm-up at
1/10 scale, then K timed iterations (iteration seed ``seed + i``) with
``gc.collect()`` before and GC enabled during each.  Closed loop, one client.

The sizing box flips between speed regimes about 25 % apart every few
seconds, and a flip scales a fixed pure-Python kernel and the workloads alike.
So while an iteration runs, a virtual-time interval timer interrupts it every
30 ms of CPU to time that kernel (:class:`SpeedSampler`); the kernel's own time
is subtracted, and the iteration's CPU seconds are expressed in *calibrated*
seconds — seconds of a machine on which the kernel takes
:data:`CALIB_REFERENCE_S`.  On the sizing box this took the per-iteration
spread of ``bulk_move`` from ±15 % (bracketing readings: ±10 %) to ±2 %.
Throughput and set-up time are the median of the calibrated per-iteration
values; the raw median and IQR are reported beside them as harness-health
layer metrics.

The worker is a fresh subprocess with ``PYTHONHASHSEED=0``: global op-id and
xid counters restart, which is what makes the simulated figures repeat
exactly for a fixed seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import check
from .check import Iteration
from .metrics import END_TO_END, metric_value

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_SEED = 12
#: CPU seconds the calibration kernel takes on the reference machine (the
#: sizing box in its fast regime); calibrated seconds are seconds of that machine.
CALIB_REFERENCE_S = 1.3e-3
CALIB_KERNEL_STEPS = 10_000
#: CPU seconds between speed samples, and the fewest samples an estimate uses.
SAMPLE_INTERVAL_S = 0.03
MIN_SAMPLES = 8
#: Samples taken before set-up starts: all a set-up shorter than the interval has.
INITIAL_SAMPLES = 4
#: Never time fewer iterations than this, whatever the budget.
MIN_ITERATIONS = 8
#: Untraced iterations a ``--trace`` worker runs for its harness-health and
#: overhead figures, and the iterations it then runs under the profiler.
TRACE_UNTRACED_ITERATIONS = 3
TRACE_PROFILED_ITERATIONS = 2


class Spans:
    """Driver phase spans, kept in memory and written as Chrome trace events.

    Disabled (the untraced run), ``span`` hands back a shared no-op context.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.events: List[dict] = []
        self._stack: List[str] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str, **args):
        if not self.enabled:
            return self._null
        return self._record(name, args)

    @contextlib.contextmanager
    def _record(self, name: str, args: dict):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.events.append(
                {
                    "name": name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": start * 1e6,
                    "dur": (time.perf_counter() - start) * 1e6,
                    "args": {**args, "parent": parent},
                }
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.events, "displayTimeUnit": "ms"}))


# =========================================================================================
# Estimators
# =========================================================================================


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ranked = sorted(values)
    position = (len(ranked) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (0.0 below four samples)."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def median_spread(values: Sequence[float]) -> float:
    """How far the median of *values* is expected to move run to run, as a
    share of itself: the iteration IQR shrunk by the square root of their count."""
    return iqr_share(values) / math.sqrt(len(values)) if values else 0.0


def calibration_kernel() -> float:
    """CPU seconds of a fixed pure-Python kernel: the speed of this machine
    right now, and across documents its tag."""
    start = time.thread_time()
    table: Dict[int, int] = {}
    total = 0
    for n in range(CALIB_KERNEL_STEPS):
        table[n & 1023] = total
        total += (n * n) % 7 + len(str(n))
    return time.thread_time() - start


class SpeedSampler:
    """Times the calibration kernel at intervals while a measurement runs.

    ``start`` takes a few samples and arms a virtual-time (user CPU) interval
    timer whose handler takes more; :attr:`spent` is the CPU the samples
    themselves took, so a caller can net it out of what it measured.  ``stop``
    disarms the timer and tops :attr:`samples` up to the length asked for
    (short phases; profiled iterations, which are not interrupted).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGVTALRM, lambda _signum, _frame: self.sample())

    def sample(self) -> None:
        taken = calibration_kernel()
        self.samples.append(taken)
        self.spent += taken

    def start(self, *, armed: bool = True) -> None:
        self.samples = []
        for _ in range(INITIAL_SAMPLES):
            self.sample()
        if armed:
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self, at_least: int) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
        while len(self.samples) < at_least:
            self.sample()


def calibrated(cpu_seconds: float, kernel_s: float) -> float:
    """*cpu_seconds* in seconds of the reference machine, given the mean
    calibration-kernel time observed while they were spent."""
    return cpu_seconds * CALIB_REFERENCE_S / kernel_s


def environment(seed: int, calib_s: float) -> dict:
    """The stamp every results document carries."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
        "calib_s": calib_s,
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the enclosing checkout, read from ``.git`` (no subprocess)."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (REPO_ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def iterations_for(workload, seconds: Optional[float]) -> int:
    """The workload's default K, or the K a ``--seconds`` budget buys.

    Deterministic in ``seconds`` (sized from the workload's nominal iteration
    cost, not from a clock), so the simulated figures of a run are a function
    of the seed and the budget alone.
    """
    if seconds is None:
        return workload.iterations
    return max(MIN_ITERATIONS, int(seconds / workload.iteration_cpu_s))


# =========================================================================================
# The measurement loop
# =========================================================================================


def run_iterations(
    workload, seed: int, iterations: int, scale: float, spans: Spans, sampler: SpeedSampler, profiler=None
) -> List[dict]:
    """Time *iterations* closed-loop iterations; returns one record each.

    An exception in the measured phase or in the gate fails the iteration (one
    op, zero units) instead of taking the run down.  Under a profiler the
    speed samples are taken after the measured phase, not inside it.
    """
    records = []
    for index in range(iterations):
        gc.collect()
        gen2_before = gc.get_stats()[2]["collections"]
        with spans.span(f"iteration {index}", workload=workload.name, seed=seed + index):
            sampler.start(armed=profiler is None)
            cpu0, sampled0 = time.thread_time(), sampler.spent
            with spans.span("setup"):
                world = workload.setup(seed + index, scale)
            cpu1, wall1, sampled1 = time.thread_time(), time.perf_counter(), sampler.spent
            setup_samples = len(sampler.samples)
            if profiler is not None:
                profiler.enable()
            try:
                workload.run(world, spans)
                error = None
            except Exception as exc:
                error = f"run raised {type(exc).__name__}: {exc}"
            finally:
                if profiler is not None:
                    profiler.disable()
            cpu2, wall2, sampled2 = time.thread_time(), time.perf_counter(), sampler.spent
            sampler.stop(at_least=setup_samples + MIN_SAMPLES)
            gen2_after = gc.get_stats()[2]["collections"]
            result = Iteration(ops=1, failed=1, failures=[error])
            if error is None:
                with spans.span("verify"):
                    try:
                        result = workload.verify(world)
                    except Exception as exc:
                        result.failures = [f"verify raised {type(exc).__name__}: {exc}"]
        # Each phase is calibrated by the samples taken while (or, for a
        # phase too short to be interrupted, right before or after) it ran.
        setup_kernel_s = statistics.fmean(sampler.samples[:setup_samples])
        kernel_s = statistics.fmean(sampler.samples[setup_samples:])
        setup_cpu_s = cpu1 - cpu0 - (sampled1 - sampled0)
        run_cpu_s = cpu2 - cpu1 - (sampled2 - sampled1)
        records.append(
            {
                "setup_cpu_s": setup_cpu_s,
                "run_cpu_s": run_cpu_s,
                "run_wall_s": wall2 - wall1,
                "run_sampled_s": sampled2 - sampled1,
                "calib_s": kernel_s,
                "setup_cal_s": calibrated(setup_cpu_s, setup_kernel_s),
                "run_cal_s": calibrated(run_cpu_s, kernel_s),
                "gc_gen2": gen2_after - gen2_before,
                **dataclasses.asdict(result),
            }
        )
    return records


def end_to_end_metrics(records: List[dict]) -> Dict[str, dict]:
    """The end-to-end metrics of one workload's timed iterations."""
    good = [record for record in records if record["units"]]
    n = len(good)
    sim_ms = [seconds * 1e3 for record in good for seconds in record["sim_op_s"]]
    values = {
        "setup_s": (statistics.median(record["setup_cal_s"] for record in good), n),
        "work_per_cpu_s": (statistics.median(record["units"] / record["run_cal_s"] for record in good), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "sim_op_ms_p50": (percentile(sim_ms, 50), len(sim_ms)),
        "sim_op_ms_p95": (percentile(sim_ms, 95), len(sim_ms)),
    }
    return {metric.name: metric_value(metric.name, *values[metric.name]) for metric in END_TO_END}


def harness_metrics(records: List[dict], import_s: float) -> Dict[str, dict]:
    """Harness-health layer metrics from the untraced iterations (raw, uncalibrated)."""
    good = [record for record in records if record["units"]]
    n = len(good)
    rates = [record["units"] / record["run_cpu_s"] for record in good]
    values = {
        "harness.rate_p50": statistics.median(rates),
        "harness.rate_iqr_share": iqr_share(rates),
        "harness.wall_over_cpu": sum(r["run_wall_s"] for r in good) / sum(r["run_cpu_s"] + r["run_sampled_s"] for r in good),
        "harness.import_s": import_s,
        "harness.calib_s": statistics.median(record["calib_s"] for record in good),
        "harness.gc_gen2_collections": sum(r["gc_gen2"] for r in good),
    }
    return {name: metric_value(name, value, n) for name, value in values.items()}


def worker(
    workload_name: str,
    seed: int,
    *,
    iterations: Optional[int],
    seconds: Optional[float],
    trace: bool,
    scale: float = 1.0,
    probe_seconds: float = 0.0,
    bulk_flows: Optional[int] = None,
) -> dict:
    """Run one workload in this process and return its results document."""
    import_start = time.thread_time()
    from .workloads import all_workloads

    import_s = time.thread_time() - import_start
    workload = all_workloads(bulk_flows=bulk_flows)[workload_name]
    if iterations is None:
        iterations = iterations_for(workload, seconds)
    spans = Spans(enabled=trace)
    sampler = SpeedSampler()
    with spans.span("warm-up", workload=workload.name):
        run_iterations(workload, seed, 1, scale * 0.1, Spans(enabled=False), sampler)
    untraced = TRACE_UNTRACED_ITERATIONS if trace else iterations
    records = run_iterations(workload, seed, untraced, scale, spans, sampler)
    metrics = end_to_end_metrics(records)
    if trace:
        from . import probes, trace as tracing

        metrics.update(harness_metrics(records, import_s))
        profiled = min(TRACE_PROFILED_ITERATIONS, iterations)
        metrics.update(tracing.layer_metrics(workload, seed, profiled, scale, spans, sampler, untraced=records))
        if probe_seconds:
            with spans.span("probes"):
                metrics.update(probes.run_all(probe_seconds))

    attempted = sum(record["ops"] for record in records)
    failed = sum(record["failed"] for record in records)
    failures = [failure for record in records for failure in record["failures"]]
    durations = [seconds for record in records for seconds in record["sim_op_s"]]
    document = {
        "workload": workload.name,
        "unit": workload.unit,
        "op": workload.op,
        "why": workload.why,
        "seed": seed,
        "iterations": len(records),
        "scale": scale,
        "trace": trace,
        "env": environment(seed, statistics.median(record["calib_s"] for record in records)),
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "sim_fingerprint": check.sim_fingerprint(
            sum(record["executed_events"] for record in records),
            sum(record["wire_bytes"] for record in records),
            durations,
        ),
        "metrics": metrics,
        "spread": {
            "setup_s": median_spread([record["setup_cal_s"] for record in records]),
            "work_per_cpu_s": median_spread([r["units"] / r["run_cal_s"] for r in records if r["units"]]),
        },
        "iterations_detail": [
            {key: record[key] for key in ("setup_cpu_s", "run_cpu_s", "run_wall_s", "calib_s", "units")}
            for record in records
        ],
    }
    if trace:
        trace_path = RESULTS_DIR / f"trace-{workload.name}.json"
        spans.write(trace_path)
        document["trace_file"] = str(trace_path.relative_to(REPO_ROOT))
    return document


# =========================================================================================
# Spawning the worker
# =========================================================================================


def source_on_path() -> None:
    """Make ``repro`` importable in this process (``PYTHONPATH=src`` forgotten)."""
    source = str(REPO_ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)


def spawn_worker(workload: str, seed: int, *, extra: Sequence[str] = ()) -> dict:
    """Run one workload in a fresh single-threaded subprocess; returns its document.

    Raises ``RuntimeError`` (carrying the worker's stderr tail) when the
    worker exits non-zero or prints no document.
    """
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise RuntimeError(f"the system under test is missing: no {source}/repro")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(source), str(REPO_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "benchmarks.perf", "worker", "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(command, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])
