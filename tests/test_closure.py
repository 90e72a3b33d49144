"""Order-preserving closure: the release schedule is pinned, its host work is linear.

Two properties of an order-preserving :class:`~repro.core.operations.MoveOperation`:

* **what it sends** — the ordered ``REPROCESS_PACKET`` / ``TRANSFER_RELEASE`` /
  ``TRANSFER_HOLD`` stream towards the destination of a two-role Dummy move
  under live re-process events (flows reopen mid-release) equals the trace in
  ``tests/data/release_schedule.json``, recorded before the policy's four
  per-flow collections became one closure record.  Re-record it (only when the
  protocol is meant to change) with
  ``PYTHONPATH=src python tests/test_closure.py``;
* **what it costs** — the release sweep examines each flow a bounded number
  of times per move (``OperationRecord.closure_scan_steps``), not once per
  release ACK: exactly once per reopened flow (snapshot, batch32), or once
  per flow (precopy, whose final round holds every flow up front).  Counted,
  not timed, so the assertion is exact on any host.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core import ControllerConfig, MBController, NorthboundAPI, TransferGuarantee, TransferSpec
from repro.core.messages import MessageType
from repro.core.state import PerFlowStateStore
from repro.middleboxes import DummyMiddlebox
from repro.middleboxes.base import ProcessingCosts
from repro.net import Simulator

GOLDEN = Path(__file__).parent / "data" / "release_schedule.json"

ORDER_PRESERVING = TransferGuarantee.ORDER_PRESERVING
SPECS = {
    "snapshot": TransferSpec(guarantee=ORDER_PRESERVING),
    "precopy": TransferSpec.precopy(guarantee=ORDER_PRESERVING),
    "batch32": TransferSpec.batched(32, guarantee=ORDER_PRESERVING),
}
GET_PER_CHUNK = 100e-6
TRACED = (MessageType.REPROCESS_PACKET, MessageType.TRANSFER_RELEASE, MessageType.TRANSFER_HOLD)


def run_move(variant: str, flows: int, *, events: int):
    """One order-preserving Dummy move under seeded live events and traffic.

    Returns ``(record, trace, reopened, dst)``: *trace* lists, in send order,
    ``"<message type> <flow>[,<flow>...]"`` for every traced message the
    controller put on the destination's channel; *reopened* is the record's
    ``flows_reopened`` (frozen flows a late chunk re-held after their ACK).
    """
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1))
    northbound = NorthboundAPI(controller)
    # A source slower than the controller loop (so put ACKs are not stuck
    # behind the chunk stream) whose two role streams run in opposite orders:
    # most flows' second chunk arrives after the first was ACKed and its
    # release started, which is the reopen path.
    costs = ProcessingCosts(**{**vars(DummyMiddlebox.DEFAULT_COSTS), "get_per_chunk": GET_PER_CHUNK})
    src = DummyMiddlebox(sim, "closure-src", costs=costs)
    dst = DummyMiddlebox(sim, "closure-dst")
    src.support_store = PerFlowStateStore(src.support_store.granularity)
    src.report_store = PerFlowStateStore(src.report_store.granularity)
    for index in range(flows):
        src.support_store.put(src.flow_key_for(index), {"index": index, "data": "x" * src.chunk_bytes})
    for index in reversed(range(flows)):
        src.report_store.put(src.flow_key_for(index), {"index": index, "packets": index})
    controller.register(src)
    controller.register(dst)

    trace = []
    channel = controller.channel_for("closure-dst")
    send = channel.send_to_middlebox

    def traced_send(message):
        if message.type in TRACED:
            body = message.body
            keys = body["keys"] if "keys" in body else [body["packet"]]
            names = ",".join(f"{key['nw_src']}:{key['tp_src']}" for key in keys)
            trace.append(f"{message.type} {names}")
        return send(message)

    channel.send_to_middlebox = traced_send

    # Live load over the whole move: packets dirty flows during warm pre-copy
    # rounds (and raise real re-process events once the source is frozen);
    # fabricated events land while puts, replays and releases are in flight.
    rng = random.Random(13)
    span = 2.5 * GET_PER_CHUNK * flows
    src.drive_traffic_at_rate(flows / span, span)
    for _ in range(events):
        sim.schedule(rng.uniform(0.0, span), src.generate_reprocess_event, rng.randrange(flows))

    handle = northbound.move_internal("closure-src", "closure-dst", None, spec=SPECS[variant])
    record = sim.run_until(handle.finalized, limit=1_000)
    sim.run(until=sim.now + 0.5)
    return record, trace, record.flows_reopened, dst


def golden_traces():
    """The traces the golden file pins: 24 flows, 60 events, both copy disciplines."""
    return {variant: run_move(variant, 24, events=60)[1] for variant in ("snapshot", "precopy")}


class TestReleaseScheduleGolden:
    @pytest.mark.parametrize("variant", ["snapshot", "precopy"])
    def test_release_schedule_matches_the_pre_refactor_trace(self, variant):
        golden = json.loads(GOLDEN.read_text())[variant]
        record, trace, reopened, dst = run_move(variant, 24, events=60)
        # The scenario must keep exercising what it pins: flows re-held after
        # their release started, buffered events replayed behind the hold.
        assert reopened > 0 or variant == "precopy"
        assert record.events_buffered > 0
        assert any(line.startswith(MessageType.TRANSFER_HOLD) for line in trace) == (variant == "precopy")
        assert trace == golden
        assert not dst._held_flows and not dst._held_packets


class TestClosureWorkIsLinear:
    @pytest.mark.parametrize("variant", sorted(SPECS))
    def test_sweep_examines_each_flow_a_bounded_number_of_times(self, variant):
        per_unit = {}
        for flows in (200, 800):
            record, _, reopened, dst = run_move(variant, flows, events=flows // 4)
            assert record.releases_sent >= flows
            assert not dst._held_flows and not dst._held_packets
            # One sweep step per flow that needs a (fresh) release, and no more.
            units = flows if variant == "precopy" else reopened
            assert 0 < record.closure_scan_steps == units <= flows
            per_unit[flows] = record.closure_scan_steps / units
        assert per_unit[800] <= per_unit[200] * 1.1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_traces(), indent=0) + "\n")
    print(f"wrote {GOLDEN}")
