"""The southbound wire is bit-identical across the protocol consolidation.

``tests/data/southbound_transcript.json`` was recorded while message bodies
were read, and replies built, by hand in the agent, the controller, the
operation state machines and the federation — before every body got one
constructor and one parser in :mod:`repro.core.messages`, the agent one serve
skeleton and the controller one request skeleton.  For two runs on one
controller each it pins every message either side put on a control channel —
``[sim time, channel:direction, type, sha256 of the encoded bytes]`` — plus the
simulator's executed-callback count (sealing nonces pinned; every id is
numbered by its owner, so nothing else needs pinning):

* **plain** — config get/set/del, stats, enable/disable events, a snapshot
  move under fabricated re-process events, an order-preserving pre-copy move
  with ``batch_size=32`` under live traffic, a compressed early-release move,
  a clone, a merge, an explicit ``end_transfer``, four requests the middlebox
  refuses (unknown type, unknown config key, granularity, a shared put into
  a middlebox with no shared state) and a pre-copy move aborted mid-round;
* **batched** — the order-preserving and the snapshot move again with
  ``dispatch_tick=0.0``, so hot-path requests travel inside ``BATCH`` frames.

Together the runs carry all 18 request types, all 8 reply types and events.
It was re-recorded once when a get started to carry its spec's batch cap:
the two ``batch_size=32`` moves now stream ``STATE_CHUNK_BATCH`` replies.
It was re-recorded once more when a failed pre-copy move began to release
its flows at the destination (their install-round tags stayed behind): the
aborted ``doomed`` move now sends ``doomed-dst`` one ``transfer_release``,
which the destination ACKs; the source's cleanup messages carry the next
xids, so their hashes moved too (executed events 4146 → 4149).
Re-record it (only when the protocol is meant to change) with
``PYTHONPATH=src python tests/test_southbound_golden.py``.
"""

import contextlib
import hashlib
import itertools
import json
import types
from pathlib import Path

import pytest

import repro.core.crypto as crypto_module
import repro.core.messages as messages_module
from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI, TransferGuarantee, TransferSpec
from repro.core.messages import Message, MessageType
from repro.core.state import StateRole
from repro.middleboxes import DummyMiddlebox, LoadBalancer, PassiveMonitor, REDecoder
from repro.net import Simulator, tcp_packet

GOLDEN = Path(__file__).parent / "data" / "southbound_transcript.json"

REQUEST_TYPES = {
    getattr(MessageType, name)
    for name in (
        "BATCH GET_CONFIG SET_CONFIG DEL_CONFIG GET_PERFLOW GET_PERFLOW_DELTA PUT_PERFLOW PUT_PERFLOW_BATCH DEL_PERFLOW "
        "TRANSFER_HOLD TRANSFER_RELEASE GET_SHARED PUT_SHARED GET_STATS ENABLE_EVENTS DISABLE_EVENTS TRANSFER_END "
        "REPROCESS_PACKET"
    ).split()
}
REPLY_TYPES = {
    MessageType.CONFIG_VALUE,
    MessageType.STATE_CHUNK,
    MessageType.STATE_CHUNK_BATCH,
    MessageType.SHARED_STATE,
    MessageType.GET_COMPLETE,
    MessageType.STATS_REPLY,
    MessageType.ACK,
    MessageType.ERROR,
}
ORDER_PRESERVING_PRECOPY = TransferSpec.precopy(guarantee=TransferGuarantee.ORDER_PRESERVING, batch_size=32)


class Scenario:
    """One controller whose every control channel is tapped at the wire."""

    def __init__(self, dispatch_tick) -> None:
        self.sim = Simulator()
        self.controller = MBController(
            self.sim, ControllerConfig(quiescence_timeout=0.05, dispatch_tick=dispatch_tick)
        )
        self.northbound = NorthboundAPI(self.controller)
        self.messages = []

    def register(self, middlebox):
        channel = self.controller.register(middlebox)
        transmit = channel._transmit

        def tapped(direction, encoded, retry=False, ack=False):
            digest = hashlib.sha256(encoded).hexdigest()
            self.messages.append([self.sim.now, f"{channel.name}:{direction}", Message.decode(encoded).type, digest])
            return transmit(direction, encoded, retry, ack)

        channel._transmit = tapped
        return middlebox

    def dummy_pair(self, tag: str, flows: int):
        src = self.register(DummyMiddlebox(self.sim, f"{tag}-src", chunk_count=flows, subnet="10.7"))
        dst = self.register(DummyMiddlebox(self.sim, f"{tag}-dst"))
        return src, dst

    def settle(self, *futures, failing=()):
        for future in futures:
            self.sim.run_until(future, limit=100)
        for future in failing:
            with pytest.raises(Exception):
                self.sim.run_until(future, limit=100)
        self.sim.run(until=self.sim.now + 0.2)

    def order_preserving_move(self, tag: str):
        """Pre-copy, order-preserving, 32-chunk batches, under live traffic and events."""
        src, _ = self.dummy_pair(tag, 64)
        src.drive_traffic_at_rate(20_000, 0.02)
        for index in range(40):
            self.sim.schedule(0.0004 * (index + 1), src.generate_reprocess_event, index % 64)
        handle = self.northbound.move_internal(f"{tag}-src", f"{tag}-dst", None, spec=ORDER_PRESERVING_PRECOPY)
        self.settle(handle.finalized)
        assert handle.record.precopy_rounds >= 2 and handle.record.releases_sent > 0
        return handle

    def snapshot_move(self, tag: str):
        src, _ = self.dummy_pair(tag, 12)
        src.generate_events_at_rate(20_000, 0.002)
        handle = self.northbound.move_internal(f"{tag}-src", f"{tag}-dst", {"nw_src": "10.7.0.0/16"})
        self.settle(handle.finalized)
        assert handle.record.events_forwarded > 0
        return handle

    def result(self) -> dict:
        return {"executed_events": self.sim.executed_events, "messages": self.messages}


def feed(sim, middlebox, count: int, dst: str = "192.0.2.10") -> None:
    for index in range(count):
        packet = tcp_packet(f"10.0.0.{index % 8 + 1}", dst, 1000 + index % 8, 80, b"payload")
        sim.schedule(0.0002 * index, middlebox.receive, packet, 1)


def plain_run() -> dict:
    scenario = Scenario(dispatch_tick=None)
    sim, controller, northbound = scenario.sim, scenario.controller, scenario.northbound
    pattern = FlowPattern(nw_src="10.0.0.0/24")

    # Configuration, statistics, event subscriptions (with introspection events flowing).
    monitor = scenario.register(PassiveMonitor(sim, "mon1"))
    other = scenario.register(PassiveMonitor(sim, "mon2"))
    seen = []
    northbound.subscribe_events(seen.append)
    scenario.settle(
        northbound.enable_events("mon1", "monitor.asset_detected", pattern, until=5.0),
        northbound.enable_events("mon1", "monitor.flow_seen"),
    )
    feed(sim, monitor, 24)
    feed(sim, other, 8, dst="192.0.2.99")
    scenario.settle()
    assert seen
    key = "Monitor.PromiscuousMode"
    scenario.settle(northbound.read_config("mon1"), northbound.write_config("mon1", key, [False]))
    replies = []
    controller.send("mon1", messages_module.del_config("mon1", key), on_reply=replies.append)
    scenario.settle(
        northbound.stats("mon1", pattern),
        northbound.disable_events("mon1", "monitor.asset_detected", pattern),
        northbound.disable_events("mon1", "monitor.flow_seen"),
    )
    assert [reply.type for reply in replies] == [MessageType.ACK]

    # The three per-flow move flavours.
    scenario.snapshot_move("snap")
    scenario.order_preserving_move("op")
    src, _ = scenario.dummy_pair("zip", 8)
    src.generate_events_at_rate(10_000, 0.002)
    spec = TransferSpec(parallelism=2, early_release=True, compress=True)
    scenario.settle(northbound.move_internal("zip-src", "zip-dst", None, spec=spec).finalized)

    # Shared state: clone (supporting), merge (supporting + reporting) under traffic.
    decoder = scenario.register(REDecoder(sim, "dec1", cache_capacity=4096))
    scenario.register(REDecoder(sim, "dec2", cache_capacity=4096))
    decoder.cache.insert(b"cached-content" * 10)
    clone = northbound.clone_support("dec1", "dec2")
    merge = northbound.merge_internal("mon1", "mon2")
    feed(sim, monitor, 16)
    scenario.settle(merge.completed, northbound.end_transfer("mon1"), clone.finalized, merge.finalized)
    assert merge.record.chunks_transferred == 1 and clone.record.chunks_transferred == 1

    # Requests the middlebox refuses.
    balancer = scenario.register(LoadBalancer(sim, "lb", backends=["10.0.0.1"]))
    balancer.process_packet(tcp_packet("10.0.0.9", "198.51.100.10", 999, 80))
    controller.send("mon1", Message("bogus_type", mb="mon1"), on_reply=replies.append)
    controller.send(
        "lb",
        messages_module.get_perflow("lb", StateRole.SUPPORTING, FlowPattern(nw_dst="198.51.100.10")),
        on_reply=replies.append,
    )
    scenario.dummy_pair("bare", 0)
    scenario.settle(
        failing=[northbound.read_config("mon1", "No.Such"), northbound.clone_support("dec1", "bare-dst").completed]
    )
    assert [reply.type for reply in replies[1:]] == [MessageType.ERROR, MessageType.ERROR]

    # A pre-copy move aborted mid-round owes its source the scoped cleanup.
    scenario.dummy_pair("doomed", 16)
    doomed = northbound.move_internal("doomed-src", "doomed-dst", None, spec=TransferSpec.precopy())
    sim.schedule(0.0005, controller.abort_operation, doomed)
    scenario.settle(failing=[doomed.completed])
    assert doomed.record.chunks_transferred > 0
    return scenario.result()


def batched_run() -> dict:
    scenario = Scenario(dispatch_tick=0.0)
    scenario.order_preserving_move("op")
    scenario.snapshot_move("snap")
    assert scenario.controller.stats.batches_dispatched > 0
    return scenario.result()


RUNS = {"plain": plain_run, "batched": batched_run}


@contextlib.contextmanager
def pinned_nonces():
    """Sealing nonces come from ``os.urandom``; count instead, so chunk bytes repeat."""
    counter = itertools.count(1)
    real = crypto_module.os
    crypto_module.os = types.SimpleNamespace(urandom=lambda length: next(counter).to_bytes(length, "big"))
    try:
        yield
    finally:
        crypto_module.os = real


def run(name: str) -> dict:
    with pinned_nonces():
        return RUNS[name]()


def record() -> dict:
    return {name: run(name) for name in RUNS}


class TestSouthboundTranscript:
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_wire_matches_the_pre_consolidation_run(self, name):
        golden = json.loads(GOLDEN.read_text())[name]
        observed = run(name)
        assert observed["executed_events"] == golden["executed_events"]
        assert len(observed["messages"]) == len(golden["messages"])
        for index, (seen, pinned) in enumerate(zip(observed["messages"], golden["messages"])):
            assert seen == pinned, f"message {index} diverged"

    def test_transcript_covers_every_request_and_reply_type(self):
        golden = json.loads(GOLDEN.read_text())
        seen = {entry[2] for run in golden.values() for entry in run["messages"]}
        assert REQUEST_TYPES | REPLY_TYPES | {MessageType.EVENT} <= seen
        assert len(REQUEST_TYPES) == 18


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    # One message per line, so a re-record diffs message by message.
    runs = [
        ' "%s": {\n  "executed_events": %d,\n  "messages": [\n%s\n]\n }'
        % (name, result["executed_events"], ",\n".join(json.dumps(entry) for entry in result["messages"]))
        for name, result in record().items()
    ]
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(runs))
    print(f"wrote {GOLDEN}")
