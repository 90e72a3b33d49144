"""Deterministic seeded chaos harness for the OpenMB control plane.

The paper's guarantees — loss-free and order-preserving state transfers — are
only meaningful if they hold when the control channel and the instances
misbehave.  This module holds **one** scenario program (:class:`_Scenario`: a
complete move-under-load — source/destination middleboxes, live traffic) that
runs on a *topology* — one controller owning every instance
(:func:`run_chaos`), or three gossiping domains one of which dies
(:func:`run_federated_chaos`) — and wraps it with:

* **fault injection** — per-channel seeded
  :class:`~repro.core.channel.FaultPlan` (drops, duplicates, latency jitter,
  reordering) with the reliable delivery layer enabled;
* **scripted crashes** — kill the source or destination at a simulated time
  or once a given pre-copy round has finished, discovered either by immediate
  declaration or the controller's heartbeat liveness sweep; optionally retry
  the move against a registered standby;
* **invariant checking** — after the run, four global invariants are
  evaluated by the auditor (:func:`audit_journals`, :func:`audit_conservation`,
  :func:`audit_source_retention`: pure functions of what was sent and what the
  instances hold, usable by any scenario) and any violation is reported:

  1. **termination** — every operation reaches a terminal state (completed or
     cleanly failed, with its ``finalized`` future resolved) within the
     simulated time limit;
  2. **no lost updates** — under ``loss_free`` (and ``order_preserving``) the
     surviving owner of the state holds *every* sequence number the traffic
     driver delivered, exactly once (exactly-once also covers retransmitted
     puts and replays: the reliable layer must dedup them);
  3. **no reordering** — under ``order_preserving`` each flow's observed
     sequence numbers are strictly increasing at the destination, even though
     traffic is re-routed to it mid-transfer;
  4. **state conservation** — no instance leaks packet holds, queued packets,
     armed dirty tracking, or orphaned ``(op_id, round)`` install tags, and a
     failed move leaves the source holding all of its state.

Everything is driven by **one** ``random.Random(seed)``: channel fault seeds
are derived from it, the traffic schedule is fixed, and the simulator is
deterministic, so a scenario reproduces bit for bit from its
:class:`ChaosSpec` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..core import ControllerConfig, MBController, NorthboundAPI
from ..core.channel import ControlChannel, FaultPlan
from ..core.events import EventCode
from ..core.flowspace import FlowKey, FlowPattern
from ..core.transfer import TransferGuarantee, TransferMode, TransferSpec
from ..federation import Federation, FederationConfig, GossipConfig
from ..middleboxes.base import ProcessResult, Verdict
from ..middleboxes.dummy import DummyMiddlebox
from ..net.flowtable import Action, FlowRule
from ..net.links import LinkFaultPlan
from ..net.packet import tcp_packet
from ..net.protection import ProtectionConfig
from ..net.simulator import Simulator
from ..net.switch import Switch
from ..net.topology import Topology

#: Named fault profiles for the chaos matrix.  ``lossy`` is the acceptance
#: profile from the issue: 1 % control-message drop plus up-to-2x latency
#: jitter; ``chaotic`` adds duplicates and reordering on top.
FAULT_PROFILES: Dict[str, Optional[Dict[str, float]]] = {
    "clean": None,
    "lossy": {"drop": 0.01, "jitter": 2.0},
    "jittery": {"jitter": 4.0, "reorder": 0.05},
    "chaotic": {"drop": 0.02, "duplicate": 0.02, "jitter": 2.0, "reorder": 0.02},
}

#: Named *data-plane* fault profiles: loss/corruption/reordering applied to
#: the switch-to-switch hop live traffic crosses on its way to an instance
#: (the path is protected LinkGuardian-style, so the transfer above must see
#: none of it).  Rates are per frame on that hop.
DATA_PROFILES: Dict[str, Optional[Dict[str, float]]] = {
    "clean": None,
    "lossy-data-plane": {"loss": 0.02, "corruption": 0.01, "reorder": 0.03},
    "reordering-data-plane": {"corruption": 1e-3, "reorder": 0.1},
}

SRC = "chaos-src"
DST = "chaos-dst"
STANDBY = "chaos-standby"
#: The victim domain's orphan instance in federated scenarios (its home
#: controller dies; the gossip-elected survivor must adopt it intact).
FED_AUX = "chaos-fed-aux"
#: Domain names of the federated chaos topology (the workload runs in dc0;
#: dc2 is the domain whose controller the scenario kills).
FED_DOMAINS = ("chaos-dc0", "chaos-dc1", "chaos-dc2")
#: When the move is issued (leaves room for pre-move traffic).
MOVE_AT = 1e-3
#: Silence window the traffic driver observes around a routing flip or an
#: instance death (sender back-off while the network reconverges).
SWITCH_GAP = 8e-3


@dataclass
class ChaosSpec:
    """One fully determined chaos scenario (a point of the chaos matrix); every
    field means the same on both topologies — the entry point picks the topology."""

    seed: int = 0
    #: Transfer guarantee: ``no_guarantee`` / ``loss_free`` / ``order_preserving``.
    guarantee: str = "loss_free"
    #: Copy discipline: ``snapshot`` or ``precopy``.
    mode: str = "snapshot"
    #: Controller shards (1 = the seed's single event loop).
    shards: int = 1
    #: Fault profile name from :data:`FAULT_PROFILES`.
    profile: str = "clean"
    #: Pipeline knobs threaded into the :class:`TransferSpec`.
    batch_size: int = 1
    parallelism: int = 0
    #: Workload: per-flow state entries at the source and live packets driven
    #: through the data plane while the move runs.
    flows: int = 10
    packets: int = 40
    interval: float = 2e-4
    #: Scripted crash: which instance dies ("src" / "dst" / None), when
    #: (a simulated time, or "after N pre-copy rounds finished"), and how the
    #: controller finds out ("declare" = immediately, "liveness" = via the
    #: heartbeat sweep).  ``kill_time`` has two readings: the instance's kill
    #: time (default 2 ms, when ``kill`` is set and ``kill_at_round`` is not)
    #: and, on the three-domain topology, also the moment the victim domain's
    #: controller is crashed (default 4 ms).
    kill: Optional[str] = None
    kill_time: Optional[float] = None
    kill_at_round: Optional[int] = None
    detect: str = "declare"
    #: Register a standby destination and retry the move onto it on dst death.
    standby: bool = False
    #: Re-route live traffic to the destination once state is installed.
    #: Defaults to True for order-preserving scenarios (exercising the packet
    #: holds), False otherwise (None = that default).
    reroute: Optional[bool] = None
    quiescence: float = 0.02
    #: Hard simulated-time budget; blowing it is a termination violation.
    limit: float = 30.0
    #: Data-plane fault profile from :data:`DATA_PROFILES`.  When set (and
    #: not "clean"), live traffic reaches each instance over a real simulated
    #: path — host → switch ==(faulted, protected)== switch → instance —
    #: instead of being delivered synchronously, so the transfer invariants
    #: are exercised against a data plane that drops, corrupts, and reorders.
    #: Meant for non-kill scenarios: a crashed instance leaves an in-flight
    #: window the sent-journal bookkeeping deliberately does not model.
    data_profile: Optional[str] = None
    #: strict_order knob of the data path's link-local protection.
    data_strict_order: bool = True

    @property
    def reroute_enabled(self) -> bool:
        """Whether live traffic flips to the destination mid-transfer."""
        if self.reroute is not None:
            return self.reroute
        return self.guarantee == "order_preserving"

    def transfer_spec(self) -> TransferSpec:
        """The :class:`TransferSpec` this scenario's move runs under."""
        return TransferSpec(
            guarantee=TransferGuarantee(self.guarantee),
            mode=TransferMode(self.mode),
            max_rounds=2,
            dirty_threshold=2,
            batch_size=self.batch_size,
            parallelism=self.parallelism,
        )


@dataclass
class InvariantViolation:
    """One observed violation of a chaos invariant."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.invariant}] {self.detail}"


@dataclass
class ChaosResult:
    """Everything a chaos run produced: outcome, violations, counters."""

    spec: ChaosSpec
    violations: List[InvariantViolation] = field(default_factory=list)
    #: Operation outcome: "completed", "failed", or "stuck".
    outcome: str = "stuck"
    error: Optional[str] = None
    #: Packets the traffic driver actually delivered (per canonical flow).
    delivered: int = 0
    #: Sequence numbers lost (only legitimate under no_guarantee).
    lost_updates: int = 0
    #: Channel-level fault/recovery counters summed across all channels.
    messages: int = 0
    drops: int = 0
    retransmits: int = 0
    dedup_discards: int = 0
    duplicates: int = 0
    #: The move retried onto the standby destination.
    retried_on_standby: bool = False
    #: Completed runs: the workload move's duration and freeze (event
    #: buffering) window in simulated seconds — benchmark reporting material.
    move_duration: Optional[float] = None
    freeze_window: Optional[float] = None
    #: Simulated time when the run settled.
    settled_at: float = 0.0
    #: Simulator callbacks executed (bit-for-bit reproducibility fingerprint).
    executed_events: int = 0
    #: Federated scenarios only: the domain elected to adopt the dead one.
    takeover_by: Optional[str] = None
    #: Federated scenarios only: surviving domains' gossip views converged.
    federation_converged: bool = False
    #: Federated scenarios only: gossip rounds the survivors ran in total.
    gossip_rounds: int = 0
    #: Data-path scenarios only: physical frames sent on the protected hops,
    #: frames the wire lost (drops + corruption), link-local retransmissions,
    #: wire-level reorder events, and frames the protection gave up on.
    data_frames: int = 0
    data_wire_losses: int = 0
    data_retransmits: int = 0
    data_reordered: int = 0
    data_abandoned: int = 0
    #: Final per-middlebox state maps: instance name -> stringified flow key
    #: -> the flow's observed seq journal.  The differential equivalence
    #: harness compares these across runtimes.
    final_state: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)

    def assert_ok(self) -> None:
        """Raise AssertionError listing every violation (for pytest use)."""
        if self.violations:
            lines = "\n".join(f"  - {violation}" for violation in self.violations)
            raise AssertionError(f"chaos invariants violated for {self.spec}:\n{lines}")


class ChaosMiddlebox(DummyMiddlebox):
    """A dummy middlebox whose per-flow state records observed packet seqs.

    Every processed packet (live or replayed) appends its ``seq`` to the
    flow's supporting state, so after a transfer the harness can check the
    chaos invariants by inspecting state alone: lost updates are missing
    seqs, double-applies are repeated seqs, reordering is a non-monotonic
    seq list.  The seq journal travels inside the transferred chunk like any
    other per-flow state.
    """

    def __init__(self, sim: Simulator, name: str, *, flows: int = 0, subnet: str = "10.7", costs=None) -> None:
        super().__init__(sim, name, chunk_count=0, subnet=subnet, costs=costs)
        if flows:
            self.populate(flows)

    def populate(self, count: int) -> None:
        """Create *count* per-flow supporting entries with empty seq journals."""
        for index in range(count):
            self.support_store.put(self.flow_key_for(index), {"index": index, "seqs": []})

    def process_packet(self, packet) -> ProcessResult:
        """Append the packet's seq to its flow's journal (live and replayed)."""
        key = packet.flow_key()
        record = self.support_store.get_or_create(key, lambda: {"index": -1, "seqs": []})
        if packet.seq:
            record.setdefault("seqs", []).append(packet.seq)
        return ProcessResult(verdict=Verdict.FORWARD, updated_flows=[key])

    def flow_seqs(self) -> Dict[FlowKey, List[int]]:
        """Snapshot of every flow's observed sequence journal."""
        return {key: list(record.get("seqs", [])) for key, record in self.support_store.items()}


class _DataPath:
    """One instance's ingress path over a faulted, protected link.

    ``gen host → ingress switch ==(LinkFaultPlan, LinkGuardian)== egress
    switch → middlebox``: the middle hop carries the scenario's data-plane
    faults and runs link-local protection, the edge links are clean.  The
    traffic driver injects through :attr:`host`, so every live packet crosses
    a data plane that genuinely drops, corrupts, and reorders.
    """

    def __init__(
        self,
        sim: Simulator,
        topo: Topology,
        name: str,
        middlebox: ChaosMiddlebox,
        plan: LinkFaultPlan,
        *,
        strict_order: bool,
        index: int,
    ) -> None:
        self.host = topo.add_host(f"{name}-gen", f"10.250.{index}.1")
        ingress = topo.add_node(Switch(sim, f"{name}-in"))
        egress = topo.add_node(Switch(sim, f"{name}-out"))
        topo.add_node(middlebox)
        topo.connect(self.host, ingress)
        self.link = topo.connect(ingress, egress, faults=plan)
        self.protection = self.link.enable_protection(ProtectionConfig(strict_order=strict_order))
        topo.connect(egress, middlebox)
        ingress.install_rule(FlowRule(FlowPattern.wildcard(), [Action.output(ingress.port_to(egress))]))
        egress.install_rule(FlowRule(FlowPattern.wildcard(), [Action.output(egress.port_to(middlebox))]))


def _build_data_paths(
    sim: Simulator, spec: ChaosSpec, mbs: Dict[str, ChaosMiddlebox], master: random.Random
) -> Optional[Dict[str, _DataPath]]:
    """Build one faulted, protected ingress path per instance (or None)."""
    data_profile = DATA_PROFILES[spec.data_profile] if spec.data_profile else None
    if data_profile is None:
        return None
    topo = Topology(sim)
    paths: Dict[str, _DataPath] = {}
    for index, (name, middlebox) in enumerate(mbs.items()):
        # One fault stream per path, all seeded from the single master
        # Random — the same reproducibility contract as the control channels.
        plan = LinkFaultPlan.symmetric(master.randrange(2**31), **data_profile)
        paths[name] = _DataPath(
            sim, topo, name, middlebox, plan, strict_order=spec.data_strict_order, index=index
        )
    return paths


class _TrafficDriver:
    """Deterministic per-scenario load generator with routing awareness.

    Packets carry a globally increasing ``seq`` and round-robin over the
    populated flows.  Each delivery is recorded per flow, so the invariant
    checks know exactly which updates must survive.  The driver follows the
    scenario's "routing": traffic goes to the source until the move's state
    is installed (then, for reroute scenarios, to the destination after a
    convergence gap), pauses around instance deaths, and skips deliveries to
    dead instances entirely (those packets are blackholed by the network, not
    lost by the transfer — they are excluded from the sent journal).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ChaosSpec,
        mbs: Dict[str, ChaosMiddlebox],
        paths: Optional[Dict[str, "_DataPath"]] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.mbs = mbs
        self.paths = paths
        self.target = SRC
        self.sent: Dict[FlowKey, List[int]] = {}
        self.delivered = 0
        self.blackholed = 0
        self._index = 0
        self._paused_until = 0.0
        self._dead: set = set()

    def start(self) -> None:
        """Schedule the first packet."""
        self.sim.schedule(self.spec.interval, self._tick)

    def pause(self, until: float) -> None:
        """Back off until *until* (routing reconvergence around a failure/flip)."""
        self._paused_until = max(self._paused_until, until)

    def mark_dead(self, name: str) -> None:
        """Stop delivering to a crashed instance and back off while routing reconverges."""
        self._dead.add(name)
        self.pause(self.sim.now + SWITCH_GAP)

    def on_state_installed(self, future) -> None:
        """Reroute scenarios: follow the state to the destination once it is installed."""
        if future.exception is None and DST not in self._dead:
            self.switch_to(DST)

    def switch_to(self, name: str) -> None:
        """Flip the traffic target (after the scenario's convergence gap)."""
        self.target = name
        self.pause(self.sim.now + SWITCH_GAP)

    def _tick(self) -> None:
        if self._index >= self.spec.packets:
            return
        if self.sim.now < self._paused_until:
            self.sim.schedule_at(self._paused_until, self._tick)
            return
        index = self._index
        self._index += 1
        flow = index % self.spec.flows
        seq = index + 1
        source_mb = self.mbs[SRC]
        key = source_mb.flow_key_for(flow)
        target = self.target
        if target in self._dead:
            self.blackholed += 1
        else:
            packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"c", seq=seq)
            canonical = key.bidirectional()
            self.sent.setdefault(canonical, []).append(seq)
            self.delivered += 1
            if self.paths is not None:
                # Through the real (faulted, protected) data path: delivery is
                # later and — with protection — guaranteed, so the seq still
                # belongs in the sent journal the invariants check against.
                self.paths[target].host.send(packet)
            else:
                self.mbs[target].receive(packet, 0)
        self.sim.schedule(self.spec.interval, self._tick)

    @property
    def finished(self) -> bool:
        """True once every packet was delivered (or blackholed)."""
        return self._index >= self.spec.packets


# -- the auditor: the four invariants as pure functions of any scenario's journals ------


def strictly_increasing(seqs: Sequence[int]) -> bool:
    """The one ordering predicate: every seq is greater than the one before it."""
    return all(earlier < later for earlier, later in zip(seqs, seqs[1:]))


def _missing(sent: Mapping, journals: Mapping) -> Iterator[Tuple[object, Set[int]]]:
    """``(key, seqs sent but absent from the key's journal)`` in key order."""
    for key, expected in sorted(sent.items()):
        yield key, set(expected) - set(journals.get(key, ()))


def lost_updates(sent: Mapping, journals: Mapping) -> int:
    """How many sent seqs the journals do not hold (legitimate only under ``no_guarantee``)."""
    return sum(len(missing) for _, missing in _missing(sent, journals))


def audit_journals(guarantee: str, sent: Mapping, journals: Mapping, *, owner: str = "owner") -> List[InvariantViolation]:
    """Invariants 2 + 3: the surviving owner's journals against what was sent.

    *sent* and *journals* map a flow (any sortable key) to the seqs delivered
    to it and the seqs *owner* holds for it.  Per flow, in this order: a
    double-applied seq and a fabricated one are violations under every
    guarantee; a missing one under ``loss_free`` and ``order_preserving``; a
    journal that is not strictly increasing under ``order_preserving``.
    """
    violations: List[InvariantViolation] = []
    for key, expected in sorted(sent.items()):
        seqs = journals.get(key, [])
        unique = set(seqs)
        if len(unique) != len(seqs):
            doubled = sorted({seq for seq in seqs if seqs.count(seq) > 1})
            violations.append(InvariantViolation("lost-updates", f"{owner} double-applied seqs {doubled} for {key}"))
        fabricated = unique - set(expected)
        if fabricated:
            violations.append(InvariantViolation("conservation", f"{owner} fabricated seqs {sorted(fabricated)} for {key}"))
        missing = set(expected) - unique
        if missing and guarantee in ("loss_free", "order_preserving"):
            violations.append(
                InvariantViolation("lost-updates", f"{owner} lost {len(missing)} update(s) for {key}: {sorted(missing)[:6]}")
            )
        if guarantee == "order_preserving" and not strictly_increasing(seqs):
            violations.append(InvariantViolation("reordering", f"{owner} applied {key} out of order: {seqs}"))
    return violations


def audit_source_retention(sent: Mapping, journals: Mapping) -> List[InvariantViolation]:
    """Invariant 4b: after a crash-aborted move the (alive) source retains every update."""
    return [
        InvariantViolation("conservation", f"aborted move lost {len(missing)} update(s) at the source for {key}")
        for key, missing in _missing(sent, journals)
        if missing
    ]


def audit_conservation(instances: Mapping[str, DummyMiddlebox], tag_suspects: Iterable[str] = ()) -> List[InvariantViolation]:
    """Invariant 4a: no instance leaks holds, queued packets, armed dirty
    tracking, or — for the instances named in *tag_suspects* (killed/orphaned
    ones and a failed move's destination) — ``(op_id, round)`` install tags."""
    violations: List[InvariantViolation] = []
    for name, middlebox in instances.items():
        if middlebox._held_flows or middlebox._held_packets:
            queued = sum(len(q) for q in middlebox._held_packets.values())
            violations.append(
                InvariantViolation("conservation", f"{name} leaked packet holds: flows={len(middlebox._held_flows)} queued={queued}")
            )
        for role, store in (("support", middlebox.support_store), ("report", middlebox.report_store)):
            if store.tracking_dirty:
                violations.append(InvariantViolation("conservation", f"{name}.{role} store left with dirty tracking armed"))
        if name in tag_suspects:
            tags = middlebox.support_store.install_round_count + middlebox.report_store.install_round_count
            if tags:
                violations.append(InvariantViolation("conservation", f"{name} holds {tags} orphaned (op_id, round) install tags"))
    return violations


# -- topologies: where the scenario's instances live ------------------------------------


class _OneController:
    """One controller owns every instance; nothing beyond the workload happens.

    A topology builds the control plane (its fault streams come off the master
    Random before any instance channel's), names the workload's ``controller``
    and how instances ``register``, and adds five hooks — all empty here.
    """

    def __init__(self, sim: Simulator, spec: ChaosSpec, config: ControllerConfig, master: random.Random) -> None:
        self.controller = MBController(sim, config)
        self.register = self.controller.register

    def add_instances(self, add: Callable, source: ChaosMiddlebox) -> None:
        """Extra instances (none)."""

    def script(self) -> None:
        """Extra scripted events (none)."""

    def settled(self) -> bool:
        """Extra settle condition (none)."""
        return True

    def drain(self) -> int:
        """Extra drain (none); returns the gossip rounds the topology ran."""
        return 0

    def audit(self, result: ChaosResult) -> None:
        """Extra invariants (none)."""


class _ThreeDomains:
    """Three gossiping domains over WAN links carrying the spec's fault profile.

    The workload runs entirely inside ``chaos-dc0`` — so the four classic
    invariants apply to it unchanged — while ``chaos-dc2``, home of the
    populated orphan-to-be :data:`FED_AUX`, has its controller crashed at
    ``spec.kill_time``.  The survivors must suspect the death, elect the
    unique rendezvous successor and adopt the orphan via the crash-safe purge
    path with its per-flow state intact, the ownership directory re-homed and
    their gossip views converged.
    """

    def __init__(self, sim: Simulator, spec: ChaosSpec, config: ControllerConfig, master: random.Random) -> None:
        self.sim, self.spec = sim, spec
        profile = FAULT_PROFILES[spec.profile]
        fed_config = FederationConfig(
            gossip=GossipConfig(fanout=2, interval=1e-3, ttl=0.25, seed=master.randrange(2**31)),
            # Above the worst single-retransmit stall of the reliable WAN channel
            # (a dropped digest head-of-line blocks in-order delivery for about a
            # retransmit timeout, ~15 ms at 2 ms base latency) so false suspicion
            # between survivors stays rare; the obituary-healing path in
            # FederatedDomain covers the residual double-drop cases.
            suspicion_timeout=2.5e-2,
        )
        self.federation = federation = Federation(sim, fed_config)
        for domain_name in FED_DOMAINS:
            federation.add_domain(domain_name, controller_config=config)
        for i, a in enumerate(FED_DOMAINS):
            for b in FED_DOMAINS[i + 1 :]:
                plan = FaultPlan.symmetric(master.randrange(2**31), **profile) if profile else None
                federation.connect(a, b, latency=2e-3, bandwidth=12.5e6, faults=plan)
        self.workload, self.victim = federation.domains[FED_DOMAINS[0]], federation.domains[FED_DOMAINS[2]]
        self.controller = self.workload.controller
        self.register = self.workload.register

    def add_instances(self, add: Callable, source: ChaosMiddlebox) -> None:
        """The victim domain's populated instance; both domains claim their flows."""
        self.aux = aux = add(FED_AUX, flows=self.spec.flows, subnet="10.9", register=self.victim.register)
        for domain, middlebox in ((self.workload, source), (self.victim, aux)):
            domain.claim_flows([middlebox.flow_key_for(i).bidirectional() for i in range(self.spec.flows)])
        self.aux_expected = set(aux.flow_seqs())

    def script(self) -> None:
        """Crash the victim domain's controller at ``kill_time`` (default 4 ms)."""
        crash_at = self.spec.kill_time if self.spec.kill_time is not None else 4e-3
        self.sim.schedule(crash_at, lambda: self.federation.crash_domain(self.victim.name))

    def settled(self) -> bool:
        """Some survivor adopted the dead domain and the gossip views agree."""
        return any(domain.takeovers for domain in self.federation.live_domains()) and self.federation.converged()

    def drain(self) -> int:
        """Wait out membership churn, then freeze the federation and count its rounds.

        A rare false suspicion between the survivors (a WAN retransmit stall)
        may churn the membership views during the drain; the healing path always
        re-converges them, and stop() at a diverged instant would fossilise it.
        """
        sim, federation = self.sim, self.federation
        while sim.now < self.spec.limit and not federation.converged() and sim.pending_events:
            sim.run(until=min(self.spec.limit, sim.now + 0.01))
        federation.stop()
        sim.run(until=sim.now + 0.05)
        return sum(domain.gossip_rounds for domain in federation.live_domains())

    def audit(self, result: ChaosResult) -> None:
        """Exactly one elected adopter, the orphan re-homed intact, views converged."""
        federation, victim = self.federation, self.victim.name

        def violated(invariant: str, detail: str) -> None:
            result.violations.append(InvariantViolation(invariant, detail))

        adopters = sorted(domain.name for domain in federation.live_domains() if victim in domain.takeovers)
        if len(adopters) != 1:
            violated("takeover", f"expected exactly one elected adopter of {victim}, got {adopters}")
        else:
            result.takeover_by = adopters[0]
            adopter = federation.domains[adopters[0]]
            if not adopter.controller.is_registered(FED_AUX):
                violated("takeover", f"{adopters[0]} elected but never re-homed {FED_AUX}")
            orphan_tokens = adopter.directory.tokens_owned_by(victim)
            if orphan_tokens:
                violated("takeover", f"{len(orphan_tokens)} ownership entries still homed in dead {victim}")
        result.federation_converged = federation.converged()
        if not result.federation_converged:
            violated("takeover", "surviving domains' gossip views never converged")
        missing = self.aux_expected - set(self.aux.flow_seqs())
        if missing:
            violated("lost-updates", f"{FED_AUX} lost {len(missing)} per-flow entries in the takeover")


# -- the scenario program ---------------------------------------------------------------


class _Scenario:
    """The one scenario program: build the world from the single master Random,
    load it, start the move, script the crash, drive to quiescence, capture, audit."""

    def __init__(self, spec: ChaosSpec, topology_class: type, runtime) -> None:
        self.spec = spec
        self.sim = sim = runtime if runtime is not None else Simulator()
        master = random.Random(spec.seed)
        self.liveness = spec.kill is not None and spec.detect == "liveness"
        config = ControllerConfig(
            quiescence_timeout=spec.quiescence,
            num_shards=spec.shards,
            heartbeat_interval=1e-3 if self.liveness else None,
            liveness_timeout=4e-3,
        )
        profile = FAULT_PROFILES[spec.profile]
        # Master Random draw order: the topology's streams, then one plan per
        # control channel in registration order, then one per data path.
        self.topology = topology = topology_class(sim, spec, config, master)
        self.controller = topology.controller
        self.mbs: Dict[str, ChaosMiddlebox] = {}
        self.channels: Dict[str, ControlChannel] = {}

        def add(name: str, *, flows: int = 0, subnet: str = "10.7", register: Callable = topology.register) -> ChaosMiddlebox:
            middlebox = ChaosMiddlebox(sim, name, flows=flows, subnet=subnet)
            channel = None
            if profile is not None:
                # Every channel gets its own fault stream, but all seeds derive
                # from the single master Random — the reproducibility contract.
                plan = FaultPlan.symmetric(master.randrange(2**31), **profile)
                channel = ControlChannel(sim, f"chan-{name}", faults=plan)
            # Keep our own reference: killed/unregistered instances disappear
            # from the controller, but their channels' fault counters must still
            # be part of the result's accounting.
            self.channels[name] = register(middlebox, channel=channel)
            self.mbs[name] = middlebox
            return middlebox

        source = add(SRC, flows=spec.flows)
        add(DST)
        if spec.standby:
            add(STANDBY)
        topology.add_instances(add, source)
        self.data_paths = _build_data_paths(sim, spec, self.mbs, master)
        self.driver = _TrafficDriver(sim, spec, self.mbs, paths=self.data_paths)
        self.handle = None
        self.killed: Optional[str] = None

    def run(self) -> ChaosResult:
        """Run the scenario to quiescence and evaluate the invariants."""
        sim, spec, driver = self.sim, self.spec, self.driver
        driver.start()
        self.controller.subscribe_events(self._on_introspection)
        sim.schedule(MOVE_AT, self._start_move)
        self._script_crash()
        self.topology.script()
        while sim.now < spec.limit and not self._settled() and (sim.pending_events or sim.now == 0.0):
            sim.run(until=min(spec.limit, sim.now + 0.01))
        # Let retransmission timers, releases, and late replays drain fully.
        sim.run(until=sim.now + 3 * spec.quiescence + 0.05)
        gossip_rounds = self.topology.drain()
        result = ChaosResult(spec, settled_at=sim.now, executed_events=sim.executed_events, gossip_rounds=gossip_rounds)
        result.delivered = driver.delivered
        result.final_state = {
            name: {str(key): list(seqs) for key, seqs in sorted(middlebox.flow_seqs().items(), key=lambda kv: str(kv[0]))}
            for name, middlebox in self.mbs.items()
        }
        self._audit(result)
        return result

    def _on_introspection(self, event) -> None:
        if event.code == EventCode.INSTANCE_DOWN:
            self.driver.mark_dead(event.mb_name)

    def _start_move(self) -> None:
        standby = STANDBY if self.spec.standby else None
        northbound = NorthboundAPI(self.controller)
        self.handle = northbound.move_internal(SRC, DST, FlowPattern.wildcard(), self.spec.transfer_spec(), standby=standby)
        if self.spec.reroute_enabled:
            self.handle.state_installed.add_done_callback(self.driver.on_state_installed)

    def _script_crash(self) -> None:
        """Kill ``spec.kill`` at ``kill_time``, or once ``kill_at_round`` pre-copy rounds finished."""
        sim, spec = self.sim, self.spec
        target = {"src": SRC, "dst": DST}.get(spec.kill or "", None)
        if target is None:
            return

        def do_kill() -> None:
            if self.killed is None:
                self.killed = target
                self.driver.mark_dead(target)
                self.controller.kill(target, declare=not self.liveness)

        def round_probe() -> None:
            handle = self.handle
            if self.killed is not None:
                return
            if handle is not None and handle.completed.done:
                return  # the move finished before the scripted round
            if handle is not None and len(handle.record.rounds) >= spec.kill_at_round:
                do_kill()
                return
            sim.schedule(2e-4, round_probe)

        if spec.kill_at_round is not None:
            sim.schedule(MOVE_AT, round_probe)
        else:
            sim.schedule(spec.kill_time if spec.kill_time is not None else 2e-3, do_kill)

    def _settled(self) -> bool:
        handle = self.handle
        terminal = handle is not None and handle.completed.done and handle.finalized.done
        return terminal and self.driver.finished and self.topology.settled()

    def _audit(self, result: ChaosResult) -> None:
        """Fill in outcome, counters and every invariant violation, in a fixed order."""
        handle, spec, mbs, violations = self.handle, self.spec, self.mbs, result.violations
        # -- invariant 1: termination ------------------------------------------------
        if handle is None or not handle.completed.done:
            violations.append(
                InvariantViolation("termination", f"operation did not reach a terminal state by t={self.sim.now:.3f}")
            )
            return
        if handle.completed.exception is None:
            result.outcome = "completed"
            result.move_duration = handle.record.duration
            result.freeze_window = handle.record.freeze_window
        else:
            result.outcome = "failed"
            result.error = str(handle.completed.exception)
        if not handle.finalized.done:
            violations.append(InvariantViolation("termination", "completed but never finalized (quiescence step stuck)"))
        result.retried_on_standby = self.controller.stats.standby_retries > 0
        self.topology.audit(result)
        _account_channels(result, self.channels)
        if self.data_paths is not None:
            _account_data_paths(result, self.data_paths)
        # -- invariant 4a: no leaked holds / tags / tracking ---------------------------
        violations += audit_conservation(mbs, tag_suspects={self.killed, DST if result.outcome == "failed" else None})
        # -- invariants 2 + 3: update fate ---------------------------------------------
        sent = self.driver.sent
        if result.outcome == "completed":
            owner = STANDBY if result.retried_on_standby else DST
            journals = mbs[owner].flow_seqs()
            violations += audit_journals(spec.guarantee, sent, journals, owner=owner)
            result.lost_updates = lost_updates(sent, journals)
            if spec.guarantee in ("loss_free", "order_preserving") and handle.finalized.exception is None:
                # The move finalised: the source must have handed everything off.
                leftovers = sum(len(seqs) for seqs in mbs[SRC].flow_seqs().values())
                if leftovers:
                    violations.append(InvariantViolation("conservation", f"source retained {leftovers} seqs after finalize"))
        elif self.killed != SRC:
            # A failed (crash-aborted) move must leave the source authoritative:
            # every update delivered to a then-alive source survives there.
            journals = mbs[SRC].flow_seqs()
            violations += audit_source_retention(sent, journals)
            result.lost_updates = lost_updates(sent, journals)


def run_chaos(spec: ChaosSpec, *, runtime=None) -> ChaosResult:
    """Run one chaos scenario under a single controller and evaluate the four invariants.

    Args:
        spec: the scenario.
        runtime: scheduler to run on — the simulator or its wall-clock
            subclass.  ``None`` (the default) builds a fresh
            deterministic :class:`Simulator`, preserving the chaos matrix's
            bit-for-bit reproducibility.  Passing a
            :class:`~repro.runtime.RealtimeRuntime` runs the same scenario on
            the wall clock (the caller owns its lifecycle, i.e. ``close()``).
    """
    return _Scenario(spec, _OneController, runtime).run()


def run_federated_chaos(spec: ChaosSpec, *, runtime=None) -> ChaosResult:
    """Run the same scenario inside a three-domain federation one domain of which dies.

    Same program, *spec* fields and *runtime* argument as :func:`run_chaos`; the
    topology (:class:`_ThreeDomains`) adds the lossy inter-domain WAN, the orphan
    :data:`FED_AUX`, the domain crash at ``spec.kill_time`` and the takeover invariants.
    """
    return _Scenario(spec, _ThreeDomains, runtime).run()


def _account_channels(result: ChaosResult, channels: Dict[str, ControlChannel]) -> None:
    """Fold every control channel's fault/recovery counters into the result."""
    for channel in channels.values():
        both = channel.to_mb.merge(channel.to_controller)
        result.messages += both.messages
        result.drops += both.dropped
        result.retransmits += both.retransmits
        result.dedup_discards += both.dedup_discards
        result.duplicates += both.duplicated


def _account_data_paths(result: ChaosResult, paths: Dict[str, _DataPath]) -> None:
    """Fold the protected hops' wire/recovery counters into the result."""
    from ..net.protection import summarize

    for path in paths.values():
        summary = summarize(path.link)
        result.data_frames += summary.sent
        result.data_wire_losses += summary.lost_on_wire
        result.data_retransmits += summary.retransmits
        result.data_abandoned += summary.abandoned
        result.data_reordered += path.link.stats_a_to_b.reordered + path.link.stats_b_to_a.reordered
