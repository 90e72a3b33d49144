#!/usr/bin/env python
"""Quickstart: move live middlebox state between two instances with OpenMB.

This example builds the smallest useful OpenMB deployment:

* two PRADS-like passive monitors registered with the MB controller,
* a stream of flows replayed into the first monitor,
* a ``moveInternal`` call that re-homes the per-flow state for one subnet onto
  the second monitor while traffic keeps flowing, with the second monitor's
  new-flow introspection events enabled around it (``enableEvents`` /
  ``disableEvents``),
* a second move that the controller aborts, after which the source still
  holds its state,

and prints what the controller and the middleboxes observed.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import ControllerConfig, MBController, NorthboundAPI, OperationAbortedError
from repro.middleboxes import PassiveMonitor
from repro.middleboxes.monitor import EVENT_FLOW_SEEN
from repro.net import Simulator
from repro.traffic import TraceReplayer, constant_rate_trace


def main() -> None:
    # 1. A simulator, a controller, and two OpenMB-enabled monitors.
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.5))
    northbound = NorthboundAPI(controller)
    mon_a = PassiveMonitor(sim, "monitor-a")
    mon_b = PassiveMonitor(sim, "monitor-b")
    controller.register(mon_a)
    controller.register(mon_b)

    # 2. Replay one second of traffic (500 packets/s over 100 flows) into monitor A.
    trace = constant_rate_trace(rate=500.0, duration=1.0, flows=100, client_subnet="10.7")
    TraceReplayer.into_node(sim, trace, mon_a).schedule()
    sim.run(until=1.1)
    print(f"monitor-a is tracking {len(mon_a.report_store)} flows "
          f"({mon_a.counters.packets_received} packets seen)")

    # 3. Ask how much state exists for the subnet we are about to re-balance.
    stats = sim.run_until(northbound.stats("monitor-a", ["nw_src=10.7.1.0/24"]))
    print(f"stats(monitor-a, nw_src=10.7.1.0/24) -> {stats}")

    # 4. Ask monitor B to report every new flow it sees, for as long as it
    #    takes over the subnet.
    flows_seen = []
    northbound.subscribe_events(lambda event: flows_seen.append(event) if event.code == EVENT_FLOW_SEEN else None)
    sim.run_until(northbound.enable_events("monitor-b", EVENT_FLOW_SEEN))

    # 5. Move the per-flow state for that subnet to monitor B.  Traffic for the
    #    moved flows keeps arriving at monitor A during the move; re-process
    #    events carry those updates to monitor B so nothing is lost.
    handle = northbound.move_internal("monitor-a", "monitor-b", ["nw_src=10.7.1.0/24"])
    more_traffic = constant_rate_trace(rate=500.0, duration=0.5, flows=100, client_subnet="10.7", seed=11)
    TraceReplayer.into_node(sim, more_traffic, mon_a, start_at=sim.now).schedule()
    record = sim.run_until(handle.completed)
    print(f"moveInternal returned after {record.duration * 1000:.1f} ms: "
          f"{record.chunks_transferred} chunks, {record.bytes_transferred} bytes, "
          f"{record.events_forwarded} re-process events forwarded")

    # 6. After the quiescence period the controller deletes the moved state at the source.
    sim.run_until(handle.finalized)
    print(f"after finalisation: monitor-a holds {len(mon_a.report_store)} flow records, "
          f"monitor-b holds {len(mon_b.report_store)}")

    # 7. New flows now reach monitor B, which reports each one until the
    #    events are disabled again; flows after that raise nothing.
    def new_flows(subnet: str) -> None:
        burst = constant_rate_trace(rate=200.0, duration=0.1, flows=20, client_subnet=subnet)
        TraceReplayer.into_node(sim, burst, mon_b, start_at=sim.now).schedule()
        sim.run(until=sim.now + 0.2)
        print(f"after 20 new flows from {subnet}.0.0/16: monitor-b reported {len(flows_seen)} flow_seen events")

    new_flows("10.8")
    sim.run_until(northbound.disable_events("monitor-b", EVENT_FLOW_SEEN))
    new_flows("10.9")

    # 8. Start moving the subnet back, then abort the move: the operation fails
    #    and nothing is deleted, so monitor B keeps every flow record it had.
    held = len(mon_b.report_store)
    back = northbound.move_internal("monitor-b", "monitor-a", ["nw_src=10.7.1.0/24"])
    sim.run(until=sim.now + 0.01)  # part way: some chunks are already at monitor A
    controller.abort_operation(back, "operator cancelled the move back")
    try:
        sim.run_until(back.completed)
    except OperationAbortedError as exc:
        print(f"second move aborted after {back.record.chunks_transferred} chunks ({exc}); "
              f"monitor-b kept {len(mon_b.report_store)} of {held} flow records")
    print(f"controller summary: {controller.stats.summary()}")


if __name__ == "__main__":
    main()
