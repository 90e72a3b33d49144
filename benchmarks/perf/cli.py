"""Command line of the host-time benchmark.

``run``      every workload (or ``--workload``), each in a fresh worker; prints
             every metric by name with unit and sample count; ``--trace`` adds
             the per-layer run and the isolated probes; ``--out`` persists.
``compare``  two results documents against the bounds in ``BENCHMARK.json``.
``probes``   the isolated layer probes alone.
``worker``   (internal) one workload in this process; prints its document.

Without a sub-command the arguments are the benchmark driver's contract:
``--workload NAME --seed N --seconds S --trace 0|1``; the last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import harness
from .metrics import END_TO_END, PER_LAYER, WORKLOADS

#: CPU seconds each isolated probe loops for.
PROBE_SECONDS = 0.5
#: ``--smoke``: one iteration at a tenth of the size, for the harness test.
SMOKE_SCALE = 0.1


def _print_metric_lines(metrics: dict, indent: str = "   ") -> None:
    for name, metric in metrics.items():
        print(f"{indent}{name:<48} {metric['value']:>16.6g} {metric['unit']:<6} n={metric['samples']}")


def _print_metrics(document: dict) -> None:
    head = f"{document['workload']}  seed={document['seed']}  iterations={document['iterations']}"
    share = document["failed"] / max(1, document["attempted"])
    print(f"== {head}  failed_share={share:g} ({document['failed']}/{document['attempted']} {document['op']}s)")
    fingerprint = document["sim_fingerprint"]
    print(
        f"   sim_fingerprint events={fingerprint['executed_events']} wire={fingerprint['wire_bytes']} "
        f"durations={fingerprint['durations']}:{fingerprint['durations_sha256'][:12]}"
    )
    for failure in document["failures"]:
        print(f"   FAILED {failure}")
    _print_metric_lines(document["metrics"])


def _worker_args(args, workload: str, *, trace: bool) -> List[str]:
    extra = ["--trace", "1" if trace else "0"]
    if args.smoke:
        extra += ["--iterations", "1", "--scale", str(SMOKE_SCALE)]
    elif args.iterations is not None:
        extra += ["--iterations", str(args.iterations)]
    if args.scale is not None and workload == "bulk_move":
        extra += ["--bulk-flows", str(args.scale)]
    return extra


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    combined = {"env": None, "workloads": {}, "traced": {}, "probes": {}}
    failed = 0
    for name in names:
        document = harness.spawn_worker(name, args.seed, extra=_worker_args(args, name, trace=False))
        combined["env"] = combined["env"] or document["env"]
        combined["workloads"][name] = document
        failed += document["failed"]
        _print_metrics(document)
        if args.trace:
            traced = harness.spawn_worker(name, args.seed, extra=_worker_args(args, name, trace=True))
            combined["traced"][name] = traced
            _print_metrics(traced)
            print(f"   chrome trace -> {traced['trace_file']}")
    if args.trace:
        harness.source_on_path()
        from . import probes

        combined["probes"] = probes.run_all(0.05 if args.smoke else PROBE_SECONDS)
        print("== probes")
        _print_metric_lines(combined["probes"])
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1) + "\n")
        print(f"results -> {args.out}")
    return 1 if failed else 0


def cmd_probes(args) -> int:
    harness.source_on_path()
    from . import probes

    _print_metric_lines(probes.run_all(args.seconds), indent="")
    return 0


def cmd_worker(args) -> int:
    document = harness.worker(
        args.workload,
        args.seed,
        iterations=args.iterations,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        probe_seconds=args.probe_seconds,
        bulk_flows=args.bulk_flows,
    )
    print(json.dumps(document))
    return 0


def cmd_compare(args) -> int:
    from . import compare

    return compare.main(Path(args.baseline), Path(args.candidate))


def cmd_driver(args) -> int:
    """The benchmark driver's contract: one workload, one JSON line."""
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--probe-seconds", str(PROBE_SECONDS)]
    document = harness.spawn_worker(args.workload, args.seed, extra=extra)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        metric.name: {"value": document["metrics"][metric.name]["value"], "unit": metric.unit} for metric in wanted
    }
    for failure in document["failures"]:
        print(f"FAILED {failure}")
    result = {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if document["correct"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", choices=WORKLOADS)
    run.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    run.add_argument("--iterations", type=int, help="timed iterations per workload (default: each workload's own K)")
    run.add_argument("--trace", action="store_true", help="add the per-layer run, the probes and the Chrome trace")
    run.add_argument("--smoke", action="store_true", help="one iteration at 1/10 size (harness self-test)")
    run.add_argument("--scale", type=int, help="bulk_move flow count for the larger tiers (100000, 1000000)")
    run.add_argument("--out", help="write the combined results document here")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare two results documents against the bounds")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.set_defaults(func=cmd_compare)

    probes = sub.add_parser("probes", help="run the isolated layer probes")
    probes.add_argument("--seconds", type=float, default=PROBE_SECONDS)
    probes.set_defaults(func=cmd_probes)

    worker = sub.add_parser("worker")
    worker.add_argument("--workload", choices=WORKLOADS, required=True)
    worker.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    worker.add_argument("--iterations", type=int)
    worker.add_argument("--seconds", type=float)
    worker.add_argument("--trace", type=int, default=0)
    worker.add_argument("--scale", type=float, default=1.0)
    worker.add_argument("--probe-seconds", type=float, default=0.0)
    worker.add_argument("--bulk-flows", type=int)
    worker.set_defaults(func=cmd_worker)
    return parser


def driver_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks/perf/run.py", description="benchmark driver entry point")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.set_defaults(func=cmd_driver)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = driver_parser() if argv and argv[0].startswith("--") else build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
