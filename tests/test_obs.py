"""One counters type and one stats document.

* ``Counters``: declaration order, and the merge algebra (sums, archives
  concatenated, identity, associativity, a subclass's own counters kept);
* ``MBController.snapshot()``: JSON round trip after a move with live
  events, and every counter of every ``Counters`` the controller reaches
  appears in the document exactly once;
* ``Federation.snapshot()``: the ``fleet`` section is the merge of the
  domains' controller counters, and the gossip channels are reported.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.core.state import PerFlowStateStore
from repro.core.stats import ControllerStats
from repro.federation import Federation, FederationConfig, GossipConfig
from repro.middleboxes import DummyMiddlebox, PassiveMonitor
from repro.net import Simulator, tcp_packet
from repro.obs import Counters

# =========================================================================================
# Counters and its merge
# =========================================================================================


class TestCounters:
    def test_names_start_at_zero_and_keep_declaration_order(self):
        counters = Counters("b", "a", c=3)
        assert counters.as_dict() == {"b": 0, "a": 0, "c": 3}
        assert list(counters.as_dict()) == ["b", "a", "c"]
        counters.a += 2
        assert counters.as_dict()["a"] == 2

    def test_names_only_some_instances_carry_are_kept(self):
        merged = Counters("x", y=2).merge(Counters(z=5), Counters(x=1))
        assert merged.as_dict() == {"x": 1, "y": 2, "z": 5}

    def test_merge_sums_counters_and_concatenates_records(self):
        a = ControllerStats(messages_sent=3, operations_completed=1)
        a.records.append("ra")
        b = ControllerStats(messages_sent=4, precopy_rounds_total=2)
        b.records.append("rb")
        merged = a.merge(b)
        assert merged.messages_sent == 7
        assert merged.operations_completed == 1
        assert merged.precopy_rounds_total == 2
        assert merged.records == ["ra", "rb"]
        assert a.messages_sent == 3 and b.messages_sent == 4 and a.records == ["ra"]  # inputs untouched
        assert "records" not in merged.as_dict()

    def test_merge_with_a_fresh_instance_is_identity(self):
        a = ControllerStats(messages_received=9, heartbeats_received=2)
        assert a.merge(ControllerStats()).as_dict() == a.as_dict()
        assert ControllerStats().merge(a).as_dict() == a.as_dict()

    def test_merge_is_associative(self):
        a = ControllerStats(messages_sent=1)
        b = ControllerStats(messages_sent=2, events_received=5)
        c = ControllerStats(messages_sent=4, instances_killed=1)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.as_dict() == right.as_dict()
        assert (left.messages_sent, left.events_received, left.instances_killed) == (7, 5, 1)

    def test_merge_keeps_a_subclass_and_its_own_counters(self):
        class Extended(ControllerStats):
            def __init__(self, **values):
                super().__init__(**{"gossip_rounds": 0, **values})

        merged = Extended(messages_sent=1, gossip_rounds=2).merge(Extended(messages_sent=2, gossip_rounds=5))
        assert type(merged) is Extended
        assert (merged.messages_sent, merged.gossip_rounds) == (3, 7)
        every = dict.fromkeys(ControllerStats().as_dict(), 1)
        doubled = ControllerStats(**every).merge(ControllerStats(**every))
        assert all(value == 2 for value in doubled.as_dict().values()) and len(every) == 20


# =========================================================================================
# The controller's document
# =========================================================================================


def moved_world():
    """Two shards, two monitors, one move of live flows with re-process events forwarded."""
    sim = Simulator()
    controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05, num_shards=2))
    northbound = NorthboundAPI(controller)
    mon1, mon2 = PassiveMonitor(sim, "mon1"), PassiveMonitor(sim, "mon2")
    controller.register(mon1)
    controller.register(mon2)
    for index in range(30):
        packet = tcp_packet(f"10.0.{index % 3}.{index + 1}", "192.0.2.10", 1000 + index, 80, b"payload")
        sim.schedule(0.0005 * index, mon1.receive, packet, 1)
    sim.run(until=0.1)
    handle = northbound.move_internal("mon1", "mon2", None)
    for index in range(20):
        packet = tcp_packet(f"10.0.{index % 3}.{index + 1}", "192.0.2.10", 1000 + index, 80, b"more")
        sim.schedule(0.001 * index, mon1.receive, packet, 1)
    record = sim.run_until(handle.finalized, limit=100)
    assert record.events_forwarded > 0
    return sim, controller


def reachable(root, skip=(Simulator,)):
    """Every ``Counters`` and every ``PerFlowStateStore`` reachable from *root* through attributes and containers.

    The kernel is not walked: its queue holds callbacks of whatever is scheduled, which the root does not own.
    """
    counters, stores, seen, stack = [], [], set(), [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, skip):
            continue
        seen.add(id(item))
        if isinstance(item, Counters):
            counters.append(item)
        if isinstance(item, PerFlowStateStore):
            stores.append(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif type(item).__module__.startswith("repro.") and hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return counters, stores


def leaves(document):
    """Every scalar of a JSON-like document."""
    if isinstance(document, dict):
        for value in document.values():
            yield from leaves(value)
    elif isinstance(document, list):
        for value in document:
            yield from leaves(value)
    else:
        yield document


class TestControllerSnapshot:
    def test_the_document_survives_json(self):
        _, controller = moved_world()
        snapshot = controller.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert set(snapshot) == {"controller", "sharding", "instances"}
        report = snapshot["controller"]
        assert report["operations_completed"] == 1 and report["chunks_transferred"] == controller.stats.total_chunks() > 0
        assert snapshot["sharding"]["num_shards"] == 2 and len(snapshot["sharding"]["shards"]) == 2
        assert set(snapshot["instances"]) == {"mon1", "mon2"}
        mon2 = controller._registrations["mon2"].middlebox
        assert snapshot["instances"]["mon2"]["stores"]["report"]["entries"] == len(mon2.report_store) > 0

    def test_every_counter_the_controller_reaches_appears_exactly_once(self):
        _, controller = moved_world()
        counters, stores = reachable(controller)
        # The controller's own, two shards', and per instance: two channel directions, an agent, a middlebox.
        assert len(counters) == 1 + 2 + 2 * 4
        sentinels = itertools.count(10**9)
        planted = []
        for instance in counters:
            for name in instance.as_dict():
                planted.append(next(sentinels))
                setattr(instance, name, planted[-1])
        seen = Counter(leaves(controller.snapshot()))
        assert [value for value in planted if seen[value] != 1] == []
        # A store's gauges are computed on read: each reachable store is reported once, in full.
        reported = [
            gauges for instance in controller.snapshot()["instances"].values() for gauges in instance["stores"].values()
        ]
        assert len(stores) == len(reported) == 4
        assert sorted(map(json.dumps, reported)) == sorted(json.dumps(store.memory_stats().as_dict()) for store in stores)


# =========================================================================================
# The federation's document
# =========================================================================================


def three_domains():
    sim = Simulator()
    federation = Federation(sim, FederationConfig(gossip=GossipConfig(fanout=2, interval=2e-3, ttl=0.5, seed=11)))
    for index in range(3):
        federation.add_domain(f"dc{index}", controller_config=ControllerConfig(quiescence_timeout=0.02))
    federation.connect_all(latency=2e-3, bandwidth=12.5e6)
    for index, domain in enumerate(federation.domains.values()):
        src, dst = DummyMiddlebox(sim, f"src{index}", chunk_count=10 * (index + 1)), DummyMiddlebox(sim, f"dst{index}")
        domain.register(src)
        domain.register(dst)
        NorthboundAPI(domain.controller).move_internal(src.name, dst.name, FlowPattern.wildcard())
    sim.run(until=0.2)
    federation.stop()
    return federation


class TestFederationSnapshot:
    def test_the_fleet_is_the_merge_of_the_domains_controllers(self):
        federation = three_domains()
        snapshot = federation.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        stats = [domain.controller.stats for domain in federation.domains.values()]
        merged = stats[0].merge(*stats[1:])
        assert snapshot["fleet"] == {
            **merged.as_dict(),
            "chunks_transferred": merged.total_chunks(),
            "bytes_transferred": merged.total_bytes(),
        }
        # 10 + 20 + 30 flows, a supporting and a reporting chunk each.
        assert snapshot["fleet"]["operations_completed"] == 3 and snapshot["fleet"]["chunks_transferred"] == 120
        assert list(snapshot["domains"]) == ["dc0", "dc1", "dc2"]
        assert snapshot["domains"]["dc1"] == federation.domains["dc1"].controller.snapshot()

    def test_each_gossip_channel_is_reported_once(self):
        federation = three_domains()
        gossip = federation.snapshot()["gossip"]
        assert sorted(gossip) == ["wan-dc0-dc1", "wan-dc0-dc2", "wan-dc1-dc2"]
        for name, directions in gossip.items():
            assert set(directions) == {"to_mb", "to_controller"}
            assert directions["to_mb"]["messages"] > 0 and directions["to_controller"]["messages"] > 0, name
