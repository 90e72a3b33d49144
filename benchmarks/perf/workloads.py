"""The four workloads: what each builds, runs, and checks.

A workload is three steps the harness times separately:

* ``setup(seed, scale)`` builds one iteration's inputs — runtime, controller,
  instances, channels or topology, store population, traffic schedule.  The
  seed picks flow keys, hot sets, traffic phase and fault streams; the system
  under test sees only the generated inputs.
* ``run(world, spans)`` is the measured phase: issue the operations, run the
  runtime until they finish, drain.
* ``verify(world)`` is unmeasured: the correctness gate (:mod:`.check`) plus
  the simulated figures and the system's own public counters.

Names and shapes are fixed — later issues cite them.  Each class's ``why``
records what the workload stresses and what it bypasses.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from repro.core import (
    ControlChannel,
    ControllerConfig,
    FaultPlan,
    FlowPattern,
    MBController,
    NorthboundAPI,
    PerFlowStateStore,
    TransferSpec,
)
from repro.federation import Federation, FederationConfig, GossipConfig
from repro.middleboxes import DummyMiddlebox
from repro.net import Action, FlowRule, LinkFaultPlan, ProtectionConfig, Simulator, Switch, Topology, summarize, tcp_packet
from repro.testing import FAULT_PROFILES, ChaosMiddlebox, ChaosSpec, run_chaos, run_federated_chaos

from . import check
from .check import Iteration


def _add(counters: Dict[str, float], **values: float) -> None:
    for name, value in values.items():
        counters[name] = counters.get(name, 0) + value


def channel_counters(counters: Dict[str, float], channels) -> None:
    """Fold :class:`ChannelStats` of both directions of *channels* in."""
    for channel in channels:
        for stats in (channel.to_mb, channel.to_controller):
            _add(
                counters,
                channel_msgs=stats.messages,
                channel_bytes=stats.bytes,
                channel_retransmits=stats.retransmits,
                channel_acks=stats.chan_acks,
                channel_dropped=stats.dropped,
            )


def controller_counters(counters: Dict[str, float], controller) -> None:
    """Fold :class:`ControllerStats` and the per-shard load of *controller* in."""
    stats = controller.stats
    _add(
        counters,
        controller_batches=stats.batches_dispatched,
        controller_coalesced=stats.messages_coalesced,
        controller_sent=stats.messages_sent,
        events_buffered=stats.events_buffered,
        chunks=stats.total_chunks(),
        resent_chunks=stats.precopy_delta_chunks,
    )
    shard_messages = [shard["messages"] for shard in controller.shard_summary()["shards"]]
    _add(counters, shard_msgs_max=max(shard_messages), shard_msgs_total=sum(shard_messages))


def store_counters(counters: Dict[str, float], stores) -> None:
    """Fold store scan steps and the largest accounted peak of *stores* in."""
    for store in stores:
        _add(counters, store_scan_steps=store.scan_steps)
        counters["store_peak_bytes"] = max(counters.get("store_peak_bytes", 0), store.memory_stats().peak_total_bytes)


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""
    unit = ""
    op = ""
    why = ""
    #: Timed iterations of a full ``run`` (≈ 28 s of measured CPU).
    iterations = 8
    #: Calibrated CPU seconds one iteration's measured phase costs on the
    #: sizing machine; turns a ``--seconds`` budget into a deterministic
    #: iteration count.
    iteration_cpu_s = 1.0
    #: Set for the profiled iterations of a ``--trace`` run: a
    #: :class:`~.trace.ChaosCapture` holding what ``repro.testing.chaos`` built,
    #: so a workload that goes through it can read those objects' counters.
    capture = None

    def setup(self, seed: int, scale: float):
        raise NotImplementedError

    def run(self, world, spans) -> None:
        raise NotImplementedError

    def verify(self, world) -> Iteration:
        raise NotImplementedError


# =========================================================================================
# bulk_move
# =========================================================================================


class BulkMove(Workload):
    name = "bulk_move"
    unit = "chunk"
    op = "move"
    why = (
        "one loss-free pre-copy wildcard move of 20k tiny entries under a 64-flow hot set: "
        "store export/import, messages/chunks/json and the kernel do the work; ARQ, sharding, links, gossip do none"
    )
    iterations = 14
    iteration_cpu_s = 1.3

    FLOWS = 20_000
    HOT_FLOWS = 64
    RATE = 16_000.0
    DURATION = 0.04
    #: ``DummyMiddlebox.flow_key_for`` is injective below this index.
    KEY_UNIVERSE = 1_500_000

    def __init__(self, flows: Optional[int] = None) -> None:
        self.flows = flows or self.FLOWS

    def setup(self, seed: int, scale: float):
        rng = random.Random(seed)
        flows = max(self.HOT_FLOWS, round(self.flows * scale))
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.05, per_message_cost=1e-6))
        northbound = NorthboundAPI(controller)
        src = DummyMiddlebox(sim, "bulk-src")
        dst = DummyMiddlebox(sim, "bulk-dst")
        controller.register(src)
        controller.register(dst)
        keys = [src.flow_key_for(index) for index in rng.sample(range(self.KEY_UNIVERSE), flows)]
        for index, key in enumerate(keys):
            src.support_store.put(key, {"index": index, "packets": 0})
        hot = rng.sample(keys, self.HOT_FLOWS)
        phase = rng.random() / self.RATE
        injected = int(self.RATE * self.DURATION)
        for n in range(injected):
            key = hot[n % self.HOT_FLOWS]
            packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"t" * 64)
            sim.schedule(phase + (n + 1) / self.RATE, src.receive, packet, 0)
        return SimpleNamespace(
            sim=sim, controller=controller, northbound=northbound, src=src, dst=dst, keys=keys, injected=injected, handle=None
        )

    def run(self, world, spans) -> None:
        with spans.span("issue"):
            world.handle = world.northbound.move_internal(
                world.src.name, world.dst.name, None, spec=TransferSpec.precopy(batch_size=512)
            )
        with spans.span("run"):
            world.sim.run_until(world.handle.finalized, limit=10_000)
        with spans.span("drain"):
            world.sim.run(until=world.sim.now + 0.5)

    def verify(self, world) -> Iteration:
        record = world.handle.record
        result = Iteration(units=record.puts_acked, ops=1, executed_events=world.sim.executed_events)
        stores = (world.src.support_store, world.dst.support_store)
        result.gate(
            check.move_failures(record, label="move")
            + check.conservation_failures(world.injected, stores, label="move")
            + check.placement_failures(world.dst.support_store, world.keys, label="dst")
            + check.placement_failures(world.src.support_store, [], label="src")
        )
        if record.finalized_at is not None:
            result.sim_op_s.append(record.finalized_at - record.started_at)
        if record.freeze_window is not None:
            result.sim_freeze_s.append(record.freeze_window)
        channels = [world.controller.channel_for(name) for name in (world.src.name, world.dst.name)]
        channel_counters(result.counters, channels)
        controller_counters(result.counters, world.controller)
        store_counters(result.counters, stores)
        result.wire_bytes = int(result.counters["channel_bytes"])
        return result


# =========================================================================================
# concurrent_moves
# =========================================================================================


class ConcurrentMoves(Workload):
    name = "concurrent_moves"
    unit = "chunk"
    op = "move"
    why = (
        "32 simultaneous order-preserving snapshot moves of a /25 on 4 shards with a live event stream: shard routing, "
        "event buffering/release, BATCH framing, the indexed store path and the operation pipeline dominate"
    )
    iterations = 12
    iteration_cpu_s = 2.65

    MOVES = 32
    CHUNKS = 400
    EVENT_RATE = 400.0
    EVENT_DURATION = 0.05
    SERVER = "192.0.2.10"
    #: ``flow_key_for(i)`` for i < 127 is ``<subnet>.1.1`` .. ``<subnet>.1.127``:
    #: the flows inside the moved /25.  Re-process events are fabricated only
    #: for those — a real source raises them only for state in transfer.
    MOVED_FLOWS = 127

    def setup(self, seed: int, scale: float):
        rng = random.Random(seed)
        moves = max(2, round(self.MOVES * scale))
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.1, num_shards=4, dispatch_tick=0.5e-3))
        northbound = NorthboundAPI(controller)
        pairs = []
        for index in range(moves):
            src = DummyMiddlebox(sim, f"conc-src-{index}", subnet=f"10.{index}")
            dst = DummyMiddlebox(sim, f"conc-dst-{index}", subnet=f"10.{index}")
            for middlebox in (src, dst):
                # The indexed store is the path under test: the move pattern
                # pins the server address, so the get walks that posting set
                # and filters it by the /25 instead of scanning every shard.
                middlebox.support_store = PerFlowStateStore(middlebox.support_store.granularity, indexed=True)
                middlebox.report_store = PerFlowStateStore(middlebox.report_store.granularity, indexed=True)
            src.populate(self.CHUNKS)
            controller.register(src)
            controller.register(dst)
            pairs.append((src, dst))
        events = int(self.EVENT_RATE * self.EVENT_DURATION)
        for src, _ in pairs:
            phase = rng.random() / self.EVENT_RATE
            for n in range(events):
                sim.schedule(phase + (n + 1) / self.EVENT_RATE, src.generate_reprocess_event, rng.randrange(self.MOVED_FLOWS))
        return SimpleNamespace(sim=sim, controller=controller, northbound=northbound, pairs=pairs, events=events, handles=[])

    def run(self, world, spans) -> None:
        with spans.span("issue"):
            world.handles = [
                world.northbound.move_internal(
                    src.name,
                    dst.name,
                    FlowPattern(nw_src=f"{src.subnet}.1.0/25", nw_dst=self.SERVER),
                    spec="order_preserving",
                )
                for src, dst in world.pairs
            ]
        with spans.span("run"):
            for handle in world.handles:
                world.sim.run_until(handle.finalized, limit=5_000)
        with spans.span("drain"):
            world.sim.run(until=world.sim.now + 2.0)

    def verify(self, world) -> Iteration:
        result = Iteration(ops=len(world.handles), executed_events=world.sim.executed_events)
        stores = []
        for index, (handle, (src, dst)) in enumerate(zip(world.handles, world.pairs)):
            record = handle.record
            label = f"move-{index}"
            keys = [src.flow_key_for(i) for i in range(self.CHUNKS)]
            moved = [key for key in keys if record.pattern.matches(key)]
            kept = [key for key in keys if not record.pattern.matches(key)]
            failures = check.move_failures(record, label=label)
            failures += check.event_failures(record, src.events_generated, len(moved), label=label)
            for role_store_src, role_store_dst in ((src.support_store, dst.support_store), (src.report_store, dst.report_store)):
                failures += check.placement_failures(role_store_dst, moved, label=f"{label} dst")
                failures += check.placement_failures(role_store_src, kept, label=f"{label} src")
                stores += [role_store_src, role_store_dst]
            if src.events_generated != world.events:
                failures.append(f"{label}: generated {src.events_generated} of {world.events} events")
            result.gate(failures)
            result.units += record.puts_acked
            if record.finalized_at is not None:
                result.sim_op_s.append(record.finalized_at - record.started_at)
            if record.freeze_window is not None:
                result.sim_freeze_s.append(record.freeze_window)
        names = [middlebox.name for pair in world.pairs for middlebox in pair]
        channel_counters(result.counters, [world.controller.channel_for(name) for name in names])
        controller_counters(result.counters, world.controller)
        store_counters(result.counters, stores)
        result.wire_bytes = int(result.counters["channel_bytes"])
        return result


# =========================================================================================
# faulted_moves
# =========================================================================================


class FaultedMoves(Workload):
    name = "faulted_moves"
    unit = "scenario"
    op = "scenario"
    why = (
        "a 19-scenario chaos-matrix slice (lossy/chaotic channels, dst-kill with standby retry, src-kill, federated "
        "domain death): the only workload where ARQ, heartbeats, crash purge, gossip and the chaos invariants run"
    )
    iterations = 16
    iteration_cpu_s = 1.45

    FLOWS = 200
    PACKETS = 200
    #: The federated scenario keeps the size the chaos tests prove: its
    #: ownership digest grows with the flow count and stops converging on the
    #: modelled WAN well before 200 flows.
    FED_FLOWS = 50
    FED_PACKETS = 40

    def scenarios(self, seed: int, scale: float) -> List[tuple]:
        """(label, runner, spec, expected outcome) for one iteration."""
        rng = random.Random(seed)
        flows = max(20, round(self.FLOWS * scale))
        packets = max(20, round(self.PACKETS * scale))

        def spec(**kwargs) -> ChaosSpec:
            return ChaosSpec(seed=rng.randrange(2**31), flows=flows, packets=packets, batch_size=8, **kwargs)

        out = []
        for guarantee in ("loss_free", "order_preserving"):
            for mode in ("snapshot", "precopy"):
                for profile in ("lossy", "chaotic"):
                    for shards in (1, 4):
                        label = f"{guarantee}/{mode}/{profile}/{shards}"
                        out.append(
                            (label, run_chaos, spec(guarantee=guarantee, mode=mode, profile=profile, shards=shards), "completed")
                        )
        # The two liveness/gossip scenarios run on the jittery profile (delay
        # and reordering, no drops): with drops, a few percent of seeds lose
        # enough heartbeats or digests for a false death verdict (a standby
        # declared dead mid-retry, two domains adopting the same orphan) —
        # real robustness findings, but a benchmark needs ops that do not fail.
        dst_kill = spec(mode="precopy", profile="jittery", kill="dst", kill_at_round=1, detect="liveness", standby=True)
        out.append(("dst-kill/standby", run_chaos, dst_kill, "completed"))
        out.append(("src-kill", run_chaos, spec(profile="lossy", kill="src", kill_time=3e-3), "failed"))
        federated = ChaosSpec(
            seed=rng.randrange(2**31),
            mode="precopy",
            profile="jittery",
            flows=max(10, round(self.FED_FLOWS * scale)),
            packets=self.FED_PACKETS,
        )
        out.append(("federated/domain-death", run_federated_chaos, federated, "completed"))
        return out

    def setup(self, seed: int, scale: float):
        scenarios = self.scenarios(seed, scale)
        # run_chaos builds its own world inside the measured phase, so set-up
        # cost would be invisible here.  Build the same world once per scenario
        # through the same public constructors, and discard it: that is what
        # this workload's setup_s measures.
        for _, runner, spec, _ in scenarios:
            self._build_world(spec, federated=runner is run_federated_chaos)
        return SimpleNamespace(scenarios=scenarios, results=[])

    @staticmethod
    def _build_world(spec: ChaosSpec, *, federated: bool) -> None:
        master = random.Random(spec.seed)
        sim = Simulator()
        profile = FAULT_PROFILES[spec.profile]
        config = ControllerConfig(quiescence_timeout=spec.quiescence, num_shards=spec.shards)
        if federated:
            gossip = GossipConfig(fanout=2, interval=1e-3, ttl=0.25, seed=master.randrange(2**31))
            federation = Federation(sim, FederationConfig(gossip=gossip, suspicion_timeout=2.5e-2))
            names = ("dc0", "dc1", "dc2")
            for name in names:
                federation.add_domain(name, controller_config=config)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    federation.connect(a, b, faults=FaultPlan.symmetric(master.randrange(2**31), **profile))
            register = federation.domains["dc0"].register
        else:
            register = MBController(sim, config).register
        for name, flows in (("src", spec.flows), ("dst", 0), ("standby", 0)):
            plan = FaultPlan.symmetric(master.randrange(2**31), **profile)
            register(ChaosMiddlebox(sim, name, flows=flows), channel=ControlChannel(sim, f"chan-{name}", faults=plan))

    def run(self, world, spans) -> None:
        for label, runner, spec, _ in world.scenarios:
            with spans.span(f"scenario {label}"):
                world.results.append(runner(spec))

    def verify(self, world) -> Iteration:
        result = Iteration(units=len(world.results), ops=len(world.results))
        for (label, _, _, expected), outcome in zip(world.scenarios, world.results):
            failures = check.chaos_failures(outcome, expect_outcome=expected, label=label)
            if label == "dst-kill/standby" and not outcome.retried_on_standby:
                failures.append(f"{label}: move was not retried on the standby")
            if label.startswith("federated") and not (outcome.takeover_by and outcome.federation_converged):
                failures.append(f"{label}: no converged takeover")
            result.gate(failures)
            result.executed_events += outcome.executed_events
            if outcome.move_duration is not None:
                result.sim_op_s.append(outcome.move_duration)
                result.sim_freeze_s.append(outcome.freeze_window)
            # ChaosResult carries message counts but no byte counts; messages
            # are this workload's wire figure in the fingerprint.
            result.wire_bytes += outcome.messages
            if self.capture is None:
                _add(
                    result.counters,
                    channel_msgs=outcome.messages,
                    channel_retransmits=outcome.retransmits,
                    channel_dropped=outcome.drops,
                )
        if self.capture is not None:
            self._fold_capture(result.counters)
        return result

    def _fold_capture(self, counters: Dict[str, float]) -> None:
        capture = self.capture
        controllers = list(capture.controllers)
        gossip_channels = {}
        for federation in capture.federations:
            for name, domain in federation.domains.items():
                controllers.append(domain.controller)
                for peer in federation.domains:
                    if peer != name:
                        channel = domain.peer_link(peer).channel
                        gossip_channels[id(channel)] = channel
        channel_counters(counters, capture.channels)
        for controller in controllers:
            controller_counters(counters, controller)
        _add(
            counters,
            gossip_msgs=sum(channel.total_messages for channel in gossip_channels.values()),
            gossip_bytes=sum(channel.total_bytes for channel in gossip_channels.values()),
        )
        capture.clear()


# =========================================================================================
# dataplane_fct
# =========================================================================================

H1_IP = "10.20.0.1"
H2_IP = "10.20.0.2"


class _ReliableFlow:
    """Sender side of a minimal window transport: seq-numbered data packets,
    an ack per arrival, a full end-to-end RTO for anything unacked."""

    WINDOW = 8
    RTO = 10e-3

    def __init__(self, sim, host, port: int, packets: int, payload: bytes, on_done: Callable[["_ReliableFlow"], None]) -> None:
        self.sim = sim
        self.host = host
        self.port = port
        self.packets = packets
        self.payload = payload
        self.on_done = on_done
        self.started_at = sim.now
        self.completed_at: Optional[float] = None
        self.first_sends = 0
        self.timeouts = 0
        self._next_seq = 1
        self._unacked: set = set()
        self._fill_window()

    def _fill_window(self) -> None:
        while self._next_seq <= self.packets and len(self._unacked) < self.WINDOW:
            seq = self._next_seq
            self._next_seq += 1
            self._unacked.add(seq)
            self.first_sends += 1
            self._send(seq)

    def _send(self, seq: int) -> None:
        self.host.send(tcp_packet(H1_IP, H2_IP, self.port, 80, self.payload, seq=seq))
        self.sim.schedule(self.RTO, self._check, seq)

    def _check(self, seq: int) -> None:
        if seq in self._unacked:
            self.timeouts += 1
            self._send(seq)

    def on_ack(self, seq: int) -> None:
        if seq not in self._unacked:
            return
        self._unacked.discard(seq)
        if not self._unacked and self._next_seq > self.packets:
            self.completed_at = self.sim.now
            self.on_done(self)
        else:
            self._fill_window()


class DataplaneFct(Workload):
    name = "dataplane_fct"
    unit = "frame"
    op = "flow"
    why = (
        "50 sequential 240-packet flows over h1-s1==s2-h2 with 1e-3 corruption and strict-order link protection: "
        "net.links, net.protection, net.switch and the kernel only; no controller, codec or store code runs"
    )
    iterations = 28
    iteration_cpu_s = 0.7

    FLOWS = 50
    PACKETS = 240
    CORRUPTION = 1e-3
    #: The topology is built this many times in set-up (the last one is used):
    #: one build is a fraction of a millisecond, too short to resolve.
    SETUP_BUILDS = 120

    def setup(self, seed: int, scale: float):
        for _ in range(self.SETUP_BUILDS):
            world = self._build(seed, max(2, round(self.FLOWS * scale)))
        return world

    def _build(self, seed: int, flows: int):
        rng = random.Random(seed)
        sim = Simulator()
        topo = Topology(sim)
        h1 = topo.add_host("h1", H1_IP)
        h2 = topo.add_host("h2", H2_IP)
        s1 = topo.add_node(Switch(sim, "s1"))
        s2 = topo.add_node(Switch(sim, "s2"))
        topo.connect(h1, s1)
        middle = topo.connect(s1, s2, faults=LinkFaultPlan.symmetric(rng.randrange(2**31), corruption=self.CORRUPTION))
        topo.connect(s2, h2)
        middle.enable_protection(ProtectionConfig(strict_order=True))
        for switch, forward, backward in ((s1, s2, h1), (s2, h2, s1)):
            switch.install_rule(FlowRule(FlowPattern(nw_dst=H2_IP), [Action.output(switch.port_to(forward))]))
            switch.install_rule(FlowRule(FlowPattern(nw_dst=H1_IP), [Action.output(switch.port_to(backward))]))
        # Traffic: a seeded idle gap before each flow starts, and a seeded
        # packet size per flow (1000 bytes +-2 %), so completion times are a
        # distribution and not two values.
        gaps = [rng.uniform(0.0, 1e-4) for _ in range(flows)]
        payloads = [bytes(rng.randint(980, 1020)) for _ in range(flows)]
        return SimpleNamespace(
            sim=sim, topo=topo, h1=h1, h2=h2, middle=middle, gaps=gaps, payloads=payloads, flows=[], delivered={}, active=None
        )

    def run(self, world, spans) -> None:
        sim, h1, h2 = world.sim, world.h1, world.h2

        def receiver(packet) -> None:
            world.delivered.setdefault(packet.tp_src, set()).add(packet.seq)
            h2.send(tcp_packet(H2_IP, H1_IP, 80, packet.tp_src, b"", seq=packet.seq))

        def ack_receiver(packet) -> None:
            flow = world.active
            if flow is not None and packet.tp_dst == flow.port:
                flow.on_ack(packet.seq)

        def start_flow() -> None:
            index = len(world.flows)
            world.active = _ReliableFlow(sim, h1, 10_000 + index, self.PACKETS, world.payloads[index], finish_flow)

        def finish_flow(flow: _ReliableFlow) -> None:
            world.flows.append(flow)
            if len(world.flows) < len(world.gaps):
                sim.schedule(world.gaps[len(world.flows)], start_flow)

        with spans.span("issue"):
            h2.on_receive(receiver)
            h1.on_receive(ack_receiver)
            sim.schedule(world.gaps[0], start_flow)
        with spans.span("run"):
            sim.run(until=120.0)

    def verify(self, world) -> Iteration:
        result = Iteration(ops=len(world.gaps), executed_events=world.sim.executed_events)
        summary = summarize(world.middle)
        for index in range(len(world.gaps)):
            port = 10_000 + index
            completed = index < len(world.flows)
            delivered = world.delivered.get(port, set())
            failures = check.flow_failures(completed, delivered, self.PACKETS, label=f"flow-{index}")
            if index == 0 and summary.abandoned:
                failures.append(f"protection abandoned {summary.abandoned} frames")
            result.gate(failures)
            result.units += len(delivered)
            if completed:
                flow = world.flows[index]
                result.sim_op_s.append(flow.completed_at - flow.started_at)
        directions = [stats for link in world.topo.links for stats in (link.stats_a_to_b, link.stats_b_to_a)]
        frames = sum(stats.packets for stats in directions)
        result.wire_bytes = sum(stats.bytes for stats in directions)
        _add(
            result.counters,
            link_frames=frames,
            protected_sent=summary.sent,
            protected_lost=summary.lost_on_wire,
            protected_retransmits=summary.retransmits,
            protected_ctrl=summary.ctrl_frames,
            transport_timeouts=sum(flow.timeouts for flow in world.flows),
            transport_first_sends=sum(flow.first_sends for flow in world.flows),
        )
        return result


def all_workloads(*, bulk_flows: Optional[int] = None) -> Dict[str, Workload]:
    """Fresh instances of the four workloads, by name."""
    workloads = (BulkMove(bulk_flows), ConcurrentMoves(), FaultedMoves(), DataplaneFct())
    return {workload.name: workload for workload in workloads}
