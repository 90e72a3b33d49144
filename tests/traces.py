"""Trace helpers only the tests use: a port-scan trace and one-call replay into a node."""

from __future__ import annotations

from repro.net.packet import SYN
from repro.net.simulator import Simulator
from repro.net.topology import Node
from repro.traffic import ReplayStats, Trace, TraceRecord, TraceReplayer


def scan_trace(
    *,
    scanner: str = "10.9.9.9",
    targets: int = 50,
    target_subnet: str = "10.4.1",
    port: int = 22,
    interval: float = 0.01,
) -> Trace:
    """One source probing many destinations (SYN only) — triggers IDS scan detection."""
    records = [
        TraceRecord(
            time=index * interval,
            nw_src=scanner,
            nw_dst=f"{target_subnet}.{index + 1}",
            tp_src=60_000 + index,
            tp_dst=port,
            flags=[SYN],
        )
        for index in range(targets)
    ]
    return Trace.from_records(records, kind="scan", scanner=scanner, targets=targets)


def replay_trace_through(
    sim: Simulator,
    trace: Trace,
    node: Node,
    *,
    in_port: int = 1,
    speedup: float = 1.0,
    run: bool = True,
) -> ReplayStats:
    """Convenience: replay a whole trace into *node* and (optionally) run the simulator."""
    replayer = TraceReplayer.into_node(sim, trace, node, in_port=in_port, speedup=speedup)
    replayer.schedule()
    if run:
        sim.run(until=replayer.stats.last_time + 1.0)
    return replayer.stats
