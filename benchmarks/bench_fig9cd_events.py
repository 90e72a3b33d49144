"""Figures 9(c) and 9(d): re-process events generated during moveInternal vs packet rate.

Regenerates the event-count series: the number of re-process events the source
middlebox raises while a moveInternal is in progress (and until the routing
update takes effect), as a function of the packet arrival rate, for different
amounts of per-flow state (250 / 500 / 1000 chunks), for the monitor and the
IDS.  Expected shape: the event count grows linearly with the packet rate, and
larger moves (more chunks, hence a longer transfer window) generate more
events.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.middleboxes import IDS, PassiveMonitor
from repro.net import Simulator
from repro.traffic import TraceReplayer, constant_rate_trace

PACKET_RATES = (500.0, 1500.0, 2500.0)
CHUNK_COUNTS = (250, 1000)
#: Time between the move returning and the routing update taking effect.
ROUTING_LAG = 0.05


def events_during_move(mb_factory, label, flows, rate):
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.2))
    northbound = NorthboundAPI(controller)
    src = mb_factory(sim, f"{label}-src")
    dst = mb_factory(sim, f"{label}-dst")
    controller.register(src)
    controller.register(dst)
    # Populate per-flow state for *flows* flows.
    warm = constant_rate_trace(rate=4000.0, duration=flows / 4000.0, flows=flows, seed=130)
    TraceReplayer.into_node(sim, warm, src).schedule()
    sim.run(until=flows / 4000.0 + 0.5)

    # Start the move with traffic for the moved flows arriving at the given rate;
    # the traffic keeps hitting the source until the "routing update" takes effect
    # shortly after the move returns.
    handle = northbound.move_internal(src.name, dst.name, FlowPattern.wildcard())
    live = constant_rate_trace(rate=rate, duration=3.0, flows=flows, seed=131)
    TraceReplayer.into_node(sim, live, src, start_at=sim.now).schedule()
    record = sim.run_until(handle.completed, limit=300)
    sim.run(until=sim.now + ROUTING_LAG)
    events = src.counters.reprocess_events_raised
    window = sim.now - record.started_at
    return events, window, record.duration


def test_fig9cd_events_vs_packet_rate(once):
    def run_all():
        results = {}
        for label, factory in (
            ("monitor", lambda sim, name: PassiveMonitor(sim, name)),
            ("ids", lambda sim, name: IDS(sim, name)),
        ):
            for flows in CHUNK_COUNTS:
                for rate in PACKET_RATES:
                    results[(label, flows, rate)] = events_during_move(factory, label, flows, rate)
        return results

    results = once(run_all)

    rows = [
        (label, flows, int(rate), events, round(window * 1000, 1), round(duration * 1000, 1))
        for (label, flows, rate), (events, window, duration) in sorted(results.items())
    ]
    print_block(
        format_table(
            "Figures 9(c)/9(d) — re-process events generated during moveInternal",
            ["middlebox", "chunks", "packet rate (pkt/s)", "events generated", "window (ms)", "move time (ms)"],
            rows,
        )
    )

    for label in ("monitor", "ids"):
        for flows in CHUNK_COUNTS:
            events = [results[(label, flows, rate)][0] for rate in PACKET_RATES]
            # More packets per second during the transfer window -> more events.
            assert events[0] < events[1] < events[2], "Fig. 9(c)/(d): events grow with the packet rate"
        # A larger move keeps the window open longer, so it generates more events
        # at the same packet rate.
        assert results[(label, 1000, 2500.0)][0] > results[(label, 250, 2500.0)][0], "Fig. 9(c)/(d): a larger move raises more events"
