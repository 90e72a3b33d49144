"""Ready-made scenario topologies used by examples, tests, and benchmarks.

Two scenario builders mirror the paper's two control-application examples:

* :func:`build_two_instance_scenario` — the elastic-scaling / generic
  migration topology (Figure 6(b)): a client gateway and a server gateway
  joined by an ingress and an egress switch, with two middlebox instances
  (monitors, IDSes, ...) connected between the switches.  Traffic is routed
  through instance 1 initially; re-balancing a subnet means installing a
  higher-priority route through instance 2.
* :func:`build_re_migration_scenario` — the live-migration topology
  (Figure 6(a)): a remote site with an RE encoder, a WAN switch, and two data
  centers each with an RE decoder and an application gateway host.

Both builders wire up the full OpenMB stack (network topology, SDN controller,
MB controller, northbound API) and return a bundle with helpers for routing
changes and trace injection, so application code and benchmarks stay short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.controller import ControllerConfig, MBController
from ..core.flowspace import FlowPattern, IPv4Prefix
from ..core.northbound import NorthboundAPI
from ..core.operations import OperationRecord
from ..core.transfer import TransferGuarantee, TransferSpec
from ..middleboxes.base import Middlebox
from ..middleboxes.monitor import PassiveMonitor
from ..middleboxes.re import REDecoder, REEncoder
from ..net.packet import Packet
from ..net.sdn import RouteHandle, SDNController
from ..net.simulator import Future, Simulator
from ..net.switch import Switch
from ..net.topology import Host, Topology
from ..traffic.records import Trace
from ..traffic.replay import TraceReplayer


@dataclass
class ScenarioBase:
    """Common plumbing shared by the scenario bundles."""

    sim: Simulator
    topology: Topology
    sdn: SDNController
    controller: MBController
    northbound: NorthboundAPI
    route_priority: int = 100

    def next_priority(self) -> int:
        """Monotonically increasing rule priority, so newer routes win."""
        self.route_priority += 10
        return self.route_priority


@dataclass
class TwoInstanceScenario(ScenarioBase):
    """The scaling/migration topology with two interchangeable middlebox instances."""

    client_gw: Host = None  # type: ignore[assignment]
    server_gw: Host = None  # type: ignore[assignment]
    ingress: Switch = None  # type: ignore[assignment]
    egress: Switch = None  # type: ignore[assignment]
    mb1: Middlebox = None  # type: ignore[assignment]
    mb2: Middlebox = None  # type: ignore[assignment]
    client_prefix: str = "10.1.0.0/16"
    server_prefix: str = "172.16.0.0/16"
    routes: List[RouteHandle] = field(default_factory=list)

    # -- routing ------------------------------------------------------------------------------------

    def route_via(self, middlebox: Middlebox | str, pattern: FlowPattern) -> Future:
        """Route flows matching *pattern* through the given instance.

        Installs a forward route (client gateway to server gateway) and the
        corresponding reverse route for return traffic.  Returns a future that
        completes when every switch has applied its rules.
        """
        name = middlebox.name if isinstance(middlebox, Middlebox) else middlebox
        priority = self.next_priority()
        forward = self.sdn.route(
            pattern, self.client_gw, self.server_gw, waypoints=[name], priority=priority
        )
        reverse = self.sdn.route(
            pattern.reversed(), self.server_gw, self.client_gw, waypoints=[name], priority=priority
        )
        self.routes += [forward, reverse]
        from ..net.simulator import all_of

        return all_of(self.sim, [forward.installed, reverse.installed])

    # -- traffic -------------------------------------------------------------------------------------

    def inject(self, trace: Trace, *, speedup: float = 1.0, start_at: Optional[float] = None) -> TraceReplayer:
        """Schedule a trace for replay; each packet enters at the gateway on its source side.

        ``start_at`` defaults to the current simulated time so the trace's relative
        packet spacing is preserved (injecting "in the past" would collapse the
        early part of the trace into a single instant).
        """
        if start_at is None:
            start_at = self.sim.now
        server_prefix = IPv4Prefix.parse(self.server_prefix)

        def entry(packet: Packet) -> None:
            if server_prefix.contains_ip(packet.nw_src):
                self.server_gw.send(packet)
            else:
                self.client_gw.send(packet)

        replayer = TraceReplayer(self.sim, trace, entry, speedup=speedup, start_at=start_at)
        replayer.schedule()
        return replayer


def build_two_instance_scenario(
    *,
    sim: Optional[Simulator] = None,
    mb_factory: Callable[[Simulator, str], Middlebox] = lambda sim, name: PassiveMonitor(sim, name),
    mb_names: tuple = ("mb1", "mb2"),
    client_prefix: str = "10.1.0.0/16",
    server_prefix: str = "172.16.0.0/16",
    quiescence_timeout: float = 0.5,
    controller_config: Optional[ControllerConfig] = None,
    install_default_route: bool = True,
) -> TwoInstanceScenario:
    """Build the two-instance topology and route all traffic through instance 1."""
    sim = sim or Simulator()
    topology = Topology(sim)
    client_gw = topology.add_host("client-gw", "10.1.0.254")
    server_gw = topology.add_host("server-gw", "172.16.0.254")
    ingress = Switch(sim, "s-ingress")
    egress = Switch(sim, "s-egress")
    topology.add_node(ingress)
    topology.add_node(egress)
    mb1 = mb_factory(sim, mb_names[0])
    mb2 = mb_factory(sim, mb_names[1])
    topology.add_node(mb1)
    topology.add_node(mb2)
    topology.connect(client_gw, ingress)
    topology.connect(egress, server_gw)
    for middlebox in (mb1, mb2):
        topology.connect(ingress, middlebox)
        topology.connect(middlebox, egress)
    sdn = SDNController(sim, topology)
    config = controller_config or ControllerConfig(quiescence_timeout=quiescence_timeout)
    controller = MBController(sim, config)
    controller.register(mb1)
    controller.register(mb2)
    northbound = NorthboundAPI(controller)
    scenario = TwoInstanceScenario(
        sim=sim,
        topology=topology,
        sdn=sdn,
        controller=controller,
        northbound=northbound,
        client_gw=client_gw,
        server_gw=server_gw,
        ingress=ingress,
        egress=egress,
        mb1=mb1,
        mb2=mb2,
        client_prefix=client_prefix,
        server_prefix=server_prefix,
    )
    if install_default_route:
        default = FlowPattern(nw_dst=server_prefix)
        scenario.route_via(mb1, default)
        sim.run(until=sim.now + 0.05)  # let the initial rules install before traffic starts
    return scenario


@dataclass
class REMigrationScenario(ScenarioBase):
    """The live-migration topology: remote encoder, WAN, and two data centers."""

    remote_gw: Host = None  # type: ignore[assignment]
    encoder: REEncoder = None  # type: ignore[assignment]
    remote_switch: Switch = None  # type: ignore[assignment]
    wan: Switch = None  # type: ignore[assignment]
    decoder_a: REDecoder = None  # type: ignore[assignment]
    decoder_b: REDecoder = None  # type: ignore[assignment]
    dc_a_switch: Switch = None  # type: ignore[assignment]
    dc_b_switch: Switch = None  # type: ignore[assignment]
    dc_a_host: Host = None  # type: ignore[assignment]
    dc_b_host: Host = None  # type: ignore[assignment]
    dc_a_prefix: str = "1.1.1.0/24"
    dc_b_prefix: str = "1.1.2.0/24"
    app_prefix: str = "1.1.0.0/16"
    routes: List[RouteHandle] = field(default_factory=list)

    def install_initial_routes(self) -> Future:
        """Route all application traffic through the encoder and decoder A."""
        pattern = FlowPattern(nw_dst=self.app_prefix)
        handle = self.sdn.install_route(
            pattern,
            [
                self.remote_gw,
                self.remote_switch,
                self.encoder,
                self.wan,
                self.decoder_a,
                self.dc_a_switch,
                self.dc_a_host,
            ],
            priority=self.next_priority(),
        )
        self.routes.append(handle)
        return handle.installed

    def reroute_dc_b(self) -> Future:
        """Route the migrated subnet (DC B's prefix) to the new decoder in DC B."""
        pattern = FlowPattern(nw_dst=self.dc_b_prefix)
        handle = self.sdn.install_route(
            pattern,
            [
                self.remote_gw,
                self.remote_switch,
                self.encoder,
                self.wan,
                self.decoder_b,
                self.dc_b_switch,
                self.dc_b_host,
            ],
            priority=self.next_priority(),
        )
        self.routes.append(handle)
        return handle.installed

    def inject(self, trace: Trace, *, speedup: float = 1.0, start_at: Optional[float] = None) -> TraceReplayer:
        """Replay a trace from the remote site toward the data centers."""
        if start_at is None:
            start_at = self.sim.now
        replayer = TraceReplayer.via_host(self.sim, trace, self.remote_gw, speedup=speedup, start_at=start_at)
        replayer.schedule()
        return replayer


def build_re_migration_scenario(
    *,
    sim: Optional[Simulator] = None,
    cache_capacity: int = 256 * 1024,
    dc_a_prefix: str = "1.1.1.0/24",
    dc_b_prefix: str = "1.1.2.0/24",
    quiescence_timeout: float = 0.5,
    controller_config: Optional[ControllerConfig] = None,
) -> REMigrationScenario:
    """Build the RE live-migration topology of Figure 6(a)."""
    sim = sim or Simulator()
    topology = Topology(sim)
    remote_gw = topology.add_host("remote-gw", "10.3.0.254")
    dc_a_host = topology.add_host("dc-a-apps", "1.1.1.254")
    dc_b_host = topology.add_host("dc-b-apps", "1.1.2.254")
    remote_switch = Switch(sim, "s-remote")
    wan = Switch(sim, "s-wan")
    dc_a_switch = Switch(sim, "s-dc-a")
    dc_b_switch = Switch(sim, "s-dc-b")
    encoder = REEncoder(sim, "re-encoder", cache_capacity=cache_capacity)
    decoder_a = REDecoder(sim, "re-decoder-a", cache_capacity=cache_capacity)
    decoder_b = REDecoder(sim, "re-decoder-b", cache_capacity=cache_capacity)
    for node in (remote_switch, wan, dc_a_switch, dc_b_switch, encoder, decoder_a, decoder_b):
        topology.add_node(node)
    topology.connect(remote_gw, remote_switch)
    topology.connect(remote_switch, encoder)
    topology.connect(encoder, wan, latency=5e-3)  # the WAN link has higher latency
    topology.connect(wan, decoder_a)
    topology.connect(wan, decoder_b)
    topology.connect(decoder_a, dc_a_switch)
    topology.connect(decoder_b, dc_b_switch)
    topology.connect(dc_a_switch, dc_a_host)
    topology.connect(dc_b_switch, dc_b_host)
    sdn = SDNController(sim, topology)
    config = controller_config or ControllerConfig(quiescence_timeout=quiescence_timeout)
    controller = MBController(sim, config)
    for middlebox in (encoder, decoder_a, decoder_b):
        controller.register(middlebox)
    northbound = NorthboundAPI(controller)
    scenario = REMigrationScenario(
        sim=sim,
        topology=topology,
        sdn=sdn,
        controller=controller,
        northbound=northbound,
        remote_gw=remote_gw,
        encoder=encoder,
        remote_switch=remote_switch,
        wan=wan,
        decoder_a=decoder_a,
        decoder_b=decoder_b,
        dc_a_switch=dc_a_switch,
        dc_b_switch=dc_b_switch,
        dc_a_host=dc_a_host,
        dc_b_host=dc_b_host,
        dc_a_prefix=dc_a_prefix,
        dc_b_prefix=dc_b_prefix,
    )
    scenario.install_initial_routes()
    sim.run(until=sim.now + 0.05)
    return scenario


# =====================================================================================
# Transfer-guarantee scenarios
# =====================================================================================

#: Named TransferSpec configurations exercised by tests, examples, and the
#: guarantee benchmark — one per guarantee plus one per pipeline optimization.
GUARANTEE_SCENARIOS: Dict[str, TransferSpec] = {
    "no_guarantee": TransferSpec(guarantee=TransferGuarantee.NO_GUARANTEE),
    "loss_free": TransferSpec.default(),
    "order_preserving": TransferSpec(guarantee=TransferGuarantee.ORDER_PRESERVING),
    "loss_free_sequential": TransferSpec.sequential(),
    "loss_free_parallel": TransferSpec.parallel(window=8),
    "loss_free_batched": TransferSpec.batched(32),
    "loss_free_precopy": TransferSpec.precopy(),
    "no_guarantee_batched_early": TransferSpec(
        guarantee=TransferGuarantee.NO_GUARANTEE, batch_size=32, early_release=True
    ),
}


@dataclass
class GuaranteeScenarioResult:
    """Outcome of one :func:`run_guarantee_scenario` run."""

    scenario: TwoInstanceScenario
    record: OperationRecord
    spec: TransferSpec
    #: Packet updates recorded at the source before the move started.
    packets_before: int
    #: Packets injected at the source while the move was in flight.
    packets_during: int
    #: Packet updates recorded at the destination (plus any source leftovers)
    #: after the move finalized.
    packets_after: int
    #: Packets the destination queued behind an order-preserving hold.
    packets_held: int = 0
    #: Packets injected directly at the destination (``feed_destination`` runs).
    packets_at_destination: int = 0

    @property
    def updates_lost(self) -> int:
        """Per-flow packet counts that did not survive the transfer.

        Only meaningful for source-fed runs (``feed_destination=False``): a
        destination-fed packet that lands before the flow's state is installed
        is legitimately overwritten by the arriving chunk, so conservation is
        not expected to hold in that configuration — use ``packets_held`` and
        the middlebox counters instead.
        """
        return self.packets_before + self.packets_during - self.packets_after


def run_guarantee_scenario(
    spec: "TransferSpec | str | None" = "loss_free",
    *,
    flows: int = 20,
    packets_during_move: int = 40,
    packet_spacing: float = 0.001,
    quiescence_timeout: float = 0.2,
    feed_destination: bool = False,
) -> GuaranteeScenarioResult:
    """Move a populated monitor's state to a replica under one transfer spec.

    Builds the two-instance topology with passive monitors, warms instance 1
    with *flows* flows, starts ``moveInternal`` under *spec* (a
    :class:`TransferSpec` or a :data:`GUARANTEE_SCENARIOS` name), keeps
    traffic for the moved flows arriving at the source while the transfer is
    in flight, and accounts for every per-flow packet update afterwards.
    With ``feed_destination`` live packets also arrive at the destination
    during the move, exercising the order-preserving per-flow hold.

    The returned :class:`GuaranteeScenarioResult` makes the guarantee
    semantics observable: ``updates_lost`` is 0 under loss-free and
    order-preserving specs and typically positive under no-guarantee specs.
    """
    from ..net.packet import tcp_packet

    if isinstance(spec, str) and spec in GUARANTEE_SCENARIOS:
        resolved = GUARANTEE_SCENARIOS[spec]
    else:
        resolved = TransferSpec.parse(spec)
    scenario = build_two_instance_scenario(
        mb_factory=lambda sim, name: PassiveMonitor(sim, name),
        mb_names=("gmon-src", "gmon-dst"),
        quiescence_timeout=quiescence_timeout,
        install_default_route=False,
    )
    sim = scenario.sim
    src, dst = scenario.mb1, scenario.mb2

    def packet_for(index: int):
        return tcp_packet(
            f"10.0.{index % 3}.{index % 200 + 1}", "192.0.2.10", 1000 + index % flows, 80, b"payload"
        )

    for index in range(flows):
        sim.schedule(0.0005 * index, src.receive, packet_for(index), 1)
    sim.run(until=sim.now + 0.0005 * flows + 0.05)
    packets_before = sum(rec.packets for _, rec in src.report_store.items())

    handle = scenario.northbound.move_internal(src.name, dst.name, None, spec=resolved)
    # Keep traffic arriving for the *moved* flows while the transfer runs, so
    # the source raises re-process events the guarantee policy must handle.
    for index in range(packets_during_move):
        sim.schedule(packet_spacing * index, src.receive, packet_for(index % flows), 1)
        if feed_destination:
            # Feed every moved flow at quarter-spacing so each flow's
            # install→release hold window (which opens at a chunk-order- and
            # store-layout-dependent instant) deterministically sees at least
            # one destination packet, whatever order the chunks stream in.
            for quarter in range(4):
                offset = packet_spacing * index + quarter * packet_spacing / 4
                for flow in range(flows):
                    sim.schedule(offset + flow * 1e-6, dst.receive, packet_for(flow), 1)
    sim.run_until(handle.finalized, limit=1000)
    sim.run(until=sim.now + 2 * quiescence_timeout + 0.5)

    packets_after = sum(rec.packets for _, rec in dst.report_store.items())
    packets_after += sum(rec.packets for _, rec in src.report_store.items())
    return GuaranteeScenarioResult(
        scenario=scenario,
        record=handle.record,
        spec=resolved,
        packets_before=packets_before,
        packets_during=packets_during_move,
        packets_after=packets_after,
        packets_held=dst.counters.packets_held,
        packets_at_destination=packets_during_move if feed_destination else 0,
    )
