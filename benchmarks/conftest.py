"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure from the paper's
evaluation (section 8) — see docs/paper-map.md for the mapping.  Each
benchmark prints the regenerated rows/series with the
``repro.analysis.report`` formatters, so running::

    pytest benchmarks/ --benchmark-only -s

produces a textual version of every table and figure alongside the
pytest-benchmark timing statistics.
"""

from __future__ import annotations

import pytest

from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator


def controller_with_dummies(
    chunk_counts, *, runtime=None, shards: int = 1, quiescence: float = 0.1, per_message_cost: float = 40e-6
):
    """Build a controller plus (src, dst) dummy middlebox pairs.

    ``chunk_counts`` is a list of per-pair chunk counts; returns
    (runtime, controller, northbound, [(src, dst), ...]).  *runtime* defaults
    to a fresh :class:`Simulator`; the ``bench_wallclock_*`` family passes a
    :class:`RealtimeRuntime` (``RuntimeConfig(mode="realtime").create()``), on
    which every delay is really waited out, so the durations it reports are
    measured wall time — such a caller owns the runtime and must
    ``runtime.close()`` it when done.
    """
    runtime = runtime if runtime is not None else Simulator()
    controller = MBController(
        runtime,
        ControllerConfig(quiescence_timeout=quiescence, per_message_cost=per_message_cost, num_shards=shards),
    )
    northbound = NorthboundAPI(controller)
    pairs = []
    for index, count in enumerate(chunk_counts):
        src = DummyMiddlebox(runtime, f"dummy-src-{index}", chunk_count=count)
        dst = DummyMiddlebox(runtime, f"dummy-dst-{index}")
        controller.register(src)
        controller.register(dst)
        pairs.append((src, dst))
    return runtime, controller, northbound, pairs


@pytest.fixture
def once(benchmark):
    """Run the measured callable exactly once (the workloads are simulations)."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)

    return run
