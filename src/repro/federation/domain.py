"""Federated controller domains: gossiping peers, takeover, cross-domain moves.

A :class:`FederatedDomain` wraps one :class:`~repro.core.controller.MBController`
(one rack / one datacenter) and peers with other domains over ordinary
:class:`~repro.core.channel.ControlChannel` objects — the same latency /
bandwidth / FaultPlan model the southbound uses, so the inter-domain WAN can
be made slow, jittery, and lossy with the existing machinery.  On top of the
gossip layer (:mod:`repro.federation.gossip`) the domain implements:

* **liveness dissemination** — every domain authors versioned liveness facts
  for its own instances (built from the controller's PR 5 heartbeat state via
  the ``INSTANCE_DOWN`` introspection event) and a membership fact for
  itself; gossip spreads both federation-wide;
* **gossip-elected takeover** — a domain whose link brought no new frame for
  longer than the suspicion timeout is declared dead; every survivor runs the
  deterministic rendezvous election (:mod:`repro.federation.election`) over
  its converged membership view, and the unique winner adopts the orphans:
  each instance is purged of in-flight transfer involvement (the
  crash-safe purge path) and re-registered with the winner's controller,
  and the ownership directory is re-homed;
* **WAN-aware cross-domain moves** — ``move_to`` borrows the destination
  instance from its home domain (FED_MOVE_REQUEST/GRANT), registers it over a
  dedicated WAN channel carrying the caller's (possibly asymmetric)
  FaultPlan, and runs an iterative precopy whose inter-round pacing gain is
  derived from the gossip layer's smoothed one-way delay and jitter estimate
  of the peer link (the ``wan_pacing`` :class:`~repro.core.transfer.TransferSpec`
  knob).  On completion the moved flows are claimed for the destination
  domain in the directory and the instance returns home (FED_MOVE_DONE).

A federation of **one** domain arms no timers and sends no messages: every
federation code path is gated on having peers, so ``num_domains=1`` is
bit-for-bit identical to driving the wrapped controller directly (the golden
equivalence test mirrors ``tests/test_sharding.py``'s N=1 pattern).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from ..core import messages
from ..core.channel import ControlChannel, FaultPlan
from ..core.controller import ControllerConfig, MBController
from ..core.errors import ProtocolError
from ..core.events import EventCode
from ..core.messages import Message, MessageType
from ..core.northbound import NorthboundAPI
from ..core.transfer import TransferMode, TransferSpec
from ..net.simulator import Future, Simulator
from ..obs import Counters
from .directory import OwnershipDirectory
from .election import elect_successor
from .gossip import GossipConfig, GossipState, choose_peers

#: The digest sections of a ``fed_gossip`` frame, in summary order, and the
#: most entries a frame carries per section (the rest follows next round):
#: ~17 kB, so a bulk re-homing holds the heartbeat up for a round or two at most.
SECTIONS = ("membership", "liveness", "ownership")
MAX_SECTION_ENTRIES = 128

#: WAN pacing: one-way delays at or below this look like a LAN and get no
#: pacing; the pacing gain grows with the measured excess over it.
LAN_DELAY_REFERENCE = 1e-3


@dataclass(frozen=True)
class FederationConfig:
    """Federation-level tunables layered on top of :class:`GossipConfig`."""

    gossip: GossipConfig = dataclass_field(default_factory=GossipConfig)
    #: A direct peer whose link brought no new frame (one held above a gap
    #: counts) for longer than this is declared dead and the takeover election
    #: runs.  Should cover several gossip intervals so drops do not look like a death.
    suspicion_timeout: float = 2e-2
    #: Upper bound on the adaptive ``wan_pacing`` gain.
    max_pacing_gain: float = 4.0


class PeerLink:
    """One inter-domain channel endpoint plus its WAN quality estimate.

    The two ends of a :class:`ControlChannel` are asymmetric (``side`` "a" is
    the "controller" end, "b" the "middlebox" end), so :meth:`send` and
    :meth:`close` pick by ``side``.  Every received gossip
    digest carries the sender's simulated send time, and :meth:`observe`
    folds the resulting one-way delay sample into RFC 6298-style smoothed
    delay (``srtt``) and jitter estimates — the measurement the cross-domain
    precopy pacing adapts to — and the link holds what the peer is believed to know.
    """

    def __init__(self, peer: str, channel: ControlChannel, side: str, *, latency: float, bandwidth: float) -> None:
        self.peer = peer
        self.channel = channel
        self.side = side
        #: Configured base characteristics, reused for dedicated move channels.
        self.latency = latency
        self.bandwidth = bandwidth
        #: Measured one-way delay estimate (None until the first sample).
        self.srtt: Optional[float] = None
        self.jitter: float = 0.0
        self.samples = 0
        #: Section -> revision of this domain's map the peer was sent up to
        #: (absent: nothing yet, or forgotten after a summary mismatch).
        self.sent: Dict[str, int] = {}
        #: When the peer was last sent entries; the latest ``sent_at`` merged
        #: from it (echoed as ``heard``); whether to ask it to forget its marks.
        self.told_at, self.heard, self.ask = 0.0, 0.0, False

    def send(self, message: Message) -> None:
        """Transmit *message* towards the peer over this link's direction."""
        if self.side == "a":
            self.channel.send_to_middlebox(message)
        else:
            self.channel.send_to_controller(message)

    def observe(self, sample: float) -> None:
        """Fold one one-way delay sample into the smoothed delay/jitter."""
        if sample < 0:
            return
        self.samples += 1
        if self.srtt is None:
            self.srtt = sample
            self.jitter = sample / 2.0
        else:
            self.jitter = 0.75 * self.jitter + 0.25 * abs(sample - self.srtt)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    def close(self) -> None:
        """This domain died: close its end of the link."""
        self.channel.close("controller" if self.side == "a" else "middlebox")


class FederatedDomain:
    """One controller domain participating in the gossip federation."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        controller: Optional[MBController] = None,
        controller_config: Optional[ControllerConfig] = None,
        config: Optional[FederationConfig] = None,
        federation: Optional["Federation"] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config or FederationConfig()
        self.controller = controller or MBController(sim, controller_config)
        self.federation = federation
        #: Injected RNG (determinism policy): seeded from the gossip seed and
        #: the domain name, so every domain draws an independent stream.
        self.rng = random.Random(f"{self.config.gossip.seed}|{name}")
        self.gossip = GossipState()
        self.directory = OwnershipDirectory()
        self._peers: Dict[str, PeerLink] = {}
        #: Middlebox objects ever registered here (incl. currently-lent ones);
        #: the takeover path resolves orphans through the federation registry.
        self._instances: Dict[str, Any] = {}
        #: Instances lent out as cross-domain move destinations: name -> borrower.
        self._lent: Dict[str, str] = {}
        #: Outbound cross-domain moves keyed by FED_MOVE_REQUEST xid.
        self._outbound: Dict[int, Dict[str, Any]] = {}
        self._xids = itertools.count(1)  # numbers every frame this domain sends
        self._running = True
        self._crashed = False
        self._gossip_armed = False
        self.gossip_rounds = 0
        self.digests_received = 0
        self.frames_refused = 0  # inter-domain frames ``messages.parse`` refused
        self.false_suspicions = 0  # obituaries of a peer healed by hearing from it
        #: (name, map, tombstone TTL — None where nothing is garbage collected) per section.
        maps = (self.gossip.membership, self.gossip.liveness, self.directory.map)
        self._sections = tuple(zip(SECTIONS, maps, (None, self.config.gossip.ttl, None)))
        #: Dead domains this domain adopted (takeover audit trail).
        self.takeovers: List[str] = []
        #: Undo log per takeover: dead domain -> (instances adopted here,
        #: ownership tokens re-homed).  Consumed by :meth:`_revert_takeover`
        #: when an obituary turns out to have been a false suspicion.
        self._takeover_log: Dict[str, Tuple[List[str], List[str]]] = {}
        self.gossip.membership.put(name, name, {"alive": True}, sim.now)
        self.controller.subscribe_events(self._on_introspection)

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """False once :meth:`crash` ran (the controller process is gone).

        A :meth:`stop`-ped domain is still alive — it merely quit gossiping
        (clean test teardown), which is a different thing from dying.
        """
        return not self._crashed

    def crash(self) -> None:
        """Kill this domain's controller process (the chaos domain-death).

        No cleanup messages are sent — that is the point.  The controller and
        every peer link close this domain's channel ends, as if the process
        died; recovery is entirely the peers' job (suspicion, election,
        adoption with the crash-safe purge path).
        """
        if self._crashed:
            return
        self._crashed = True
        self._running = False
        self.controller.crash()
        for link in self._peers.values():
            link.close()
        self.gossip.membership.put(self.name, self.name, {"alive": False}, self.sim.now)

    def stop(self) -> None:
        """Stop gossiping (clean shutdown for tests; channels stay up)."""
        self._running = False

    # -- registration ------------------------------------------------------------------

    def register(self, middlebox: Any, *, channel: Optional[ControlChannel] = None) -> ControlChannel:
        """Register *middlebox* with this domain's controller and author its
        liveness fact (gossip spreads it to the other domains)."""
        bound = self.controller.register(middlebox, channel=channel)
        self._instances[middlebox.name] = middlebox
        self.gossip.liveness.put(middlebox.name, self.name, {"domain": self.name, "alive": True}, self.sim.now)
        return bound

    def claim_flows(self, keys) -> List[str]:
        """Claim ownership of *keys* for this domain."""
        return self.directory.claim_flows(keys, self.name, self.sim.now)

    def _on_introspection(self, event) -> None:
        """PR 5 liveness feed: declared-dead instances become tombstones."""
        if event.code == EventCode.INSTANCE_DOWN and event.mb_name in self._instances:
            self.gossip.liveness.put(
                event.mb_name, self.name, {"domain": self.name, "alive": False}, self.sim.now
            )

    # -- peering + gossip --------------------------------------------------------------

    def add_peer(self, link: PeerLink) -> None:
        """Attach an inter-domain link (built by :meth:`Federation.connect`)."""
        self._peers[link.peer] = link
        self.gossip.membership.put(link.peer, self.name, {"alive": True}, self.sim.now)
        self._arm_gossip()

    def _send(self, link: PeerLink, message: Message) -> Message:
        """Number *message* as this domain's next frame and send it over *link*."""
        message.xid = next(self._xids)
        link.send(message)
        return message

    def peer_link(self, peer: str) -> PeerLink:
        """The link object for *peer* (KeyError when not connected)."""
        return self._peers[peer]

    def _live_peers(self) -> List[str]:
        """Directly-connected peers the membership view believes alive."""
        return [
            peer
            for peer in sorted(self._peers)
            if (self.gossip.membership.value_of(peer) or {}).get("alive", True)
        ]

    def _arm_gossip(self) -> None:
        """Schedule the next gossip round (only while peers exist — a lone
        domain must add zero simulator events)."""
        if self._gossip_armed or not self._running or not self._peers:
            return
        self._gossip_armed = True
        self.sim.schedule(self.config.gossip.interval, self._gossip_tick)

    def _gossip_tick(self) -> None:
        """One gossip round: expire, suspect, elect, push digests, re-arm."""
        self._gossip_armed = False
        if not self._running:
            return
        self._check_suspicions(self.sim.now)
        # Target selection deliberately ignores the membership view for
        # directly-connected peers: a digest to a truly crashed peer is
        # discarded at its closed channel end, while one to a falsely-suspected
        # peer reaches it and triggers the obituary-healing path.  Gating on
        # liveness here deadlocks when two survivors suspect each other in the
        # same window (neither sends, so neither can ever heal).
        targets = choose_peers(self.rng, sorted(self._peers), self.config.gossip.fanout)
        for peer in targets:
            self._send_digest(peer)
        self.gossip_rounds += 1
        # The round timer stays armed while any peer link exists; stop() (or
        # crash()) disarms it, so a quiesced federation drains the queue.
        if self._peers:
            self._arm_gossip()

    def summaries(self) -> List[str]:
        """Each section's constant-size summary as of now (due tombstones dropped first)."""
        self.gossip.liveness.expire(self.sim.now, self.config.gossip.ttl)
        return [versioned.summary for _, versioned, _ in self._sections]

    def _send_digest(self, peer: str) -> None:
        """One frame to *peer*: every section's summary and the entries installed since
        its mark that it did not send itself — oldest first, up to the frame cap."""
        link, now = self._peers[peer], self.sim.now
        summary, sections = self.summaries(), {}
        for name, versioned, _ in self._sections:
            newer = list(versioned.newer(link.sent.get(name, 0), peer))
            entries = newer[-MAX_SECTION_ENTRIES:]
            link.sent[name] = entries[0].rev if len(newer) > len(entries) else versioned.revision
            sections[name] = [entry.as_wire() for entry in entries]
            if entries:
                link.told_at = now
        self._send(link, messages.fed_gossip(peer, now, heard=link.heard, summary=summary, resync=link.ask, **sections))
        link.ask = False

    def _check_suspicions(self, now: float) -> None:
        """Declare dead every direct peer whose link brought no new frame for too long; run the takeover election."""
        for peer, link in sorted(self._peers.items()):
            entry = self.gossip.membership.value_of(peer)
            if entry is not None and not entry.get("alive"):
                continue
            if now - link.channel.heard_at["to_controller" if link.side == "a" else "to_mb"] <= self.config.suspicion_timeout:
                continue
            self.gossip.membership.put(peer, self.name, {"alive": False}, now)
            self._run_election(peer)

    def _run_election(self, dead_domain: str) -> None:
        """Deterministic rendezvous election; the winner adopts the orphans.

        Runs both when this domain locally suspects the death and when the
        obituary arrives by gossip — whichever happens first — so the winner
        acts no matter who detected the silence.  Adoption is idempotent
        (``_take_over`` skips domains already adopted).
        """
        if dead_domain in self.takeovers:
            return
        winner = elect_successor(dead_domain, self.gossip.live_domains())
        if winner == self.name:
            self._take_over(dead_domain)

    def _take_over(self, dead_domain: str) -> None:
        """Adopt a dead domain: purge + re-register its instances, re-home its
        flow ownership, and push the news to every live peer immediately."""
        self.takeovers.append(dead_domain)
        now = self.sim.now
        adopted: List[str] = []
        for instance in self.gossip.instances_of(dead_domain):
            obj = self._resolve_instance(instance)
            if obj is None or self.controller.is_registered(instance):
                continue
            # PR 5 crash-safe purge path: the dead controller's in-flight
            # operations can never deliver the releases/TRANSFER_ENDs they owe
            # this instance, so the orphan drops every trace of transfer
            # involvement locally before joining the new controller.
            obj.purge_transfer_state()
            self.register(obj)
            adopted.append(instance)
        tokens = self.directory.reassign(dead_domain, self.name, now)
        self._takeover_log[dead_domain] = (adopted, tokens)
        for peer in self._live_peers():
            self._send_digest(peer)

    def _revert_takeover(self, peer: str) -> None:
        """Undo the takeover of a falsely-suspected (actually alive) domain.

        Hearing from *peer* proves the obituary wrong — a genuinely crashed
        domain closed its end of the link, so nothing it "sends" can arrive.
        Every effect of the adoption is handed back: the instances we
        registered are unregistered here (their home registrations were never
        dropped — the domain was alive the whole time), their event feeds are
        re-pointed at the home agents (registration is what re-aimed the
        singleton sink at us), the re-homed ownership tokens are re-authored
        for *peer*, and the corrected facts are pushed immediately so the
        split heals in one digest exchange instead of a full anti-entropy
        cycle.
        """
        self.takeovers.remove(peer)
        adopted, tokens = self._takeover_log.pop(peer, ([], []))
        now = self.sim.now
        home = self.federation.domains.get(peer) if self.federation is not None else None
        for name in adopted:
            obj = self._resolve_instance(name)
            if self.controller.is_registered(name):
                self.controller.unregister(name)
            self._instances.pop(name, None)
            if obj is not None and home is not None:
                registration = home.controller._registrations.get(name)
                if registration is not None:
                    obj.set_event_sink(registration.agent.send_event)
            self.gossip.liveness.put(name, self.name, {"domain": peer, "alive": True}, now)
        for token in tokens:
            self.directory.map.put(token, peer, {"domain": peer}, now)
        for other in self._live_peers():
            self._send_digest(other)

    def _resolve_instance(self, name: str) -> Optional[Any]:
        if name in self._instances:
            return self._instances[name]
        if self.federation is not None:
            return self.federation.middlebox_object(name)
        return None

    # -- inbound federation messages ---------------------------------------------------

    def _on_peer_message(self, peer: str, message: Message) -> None:
        """Dispatch one message arriving on an inter-domain channel."""
        if self._crashed:
            return
        entry = self.gossip.membership.value_of(peer)
        if entry is not None and not entry.get("alive"):
            # Hearing from a peer we had declared dead disproves the obituary
            # (a crashed domain closed its end of the link and sends nothing
            # more, so only jitter or a false suspicion can produce this).  Re-author the entry and
            # revive the gossip timer, which stops when no live peer remains.
            self.gossip.membership.put(peer, self.name, {"alive": True}, self.sim.now)
            self.false_suspicions += 1
            if peer in self.takeovers:
                self._revert_takeover(peer)
            self._arm_gossip()
        try:
            fields = messages.parse(message)
        except ProtocolError:
            self.frames_refused += 1
            return  # a malformed federation message is dropped, and counted
        if message.type == MessageType.FED_GOSSIP:
            self._absorb_digest(self._peers[peer], **fields)
        elif message.type == MessageType.FED_MOVE_REQUEST:
            self._on_move_request(peer, message, **fields)
        elif message.type == MessageType.FED_MOVE_GRANT:
            self._on_move_grant(peer, message, **fields)
        elif message.type == MessageType.FED_MOVE_DONE:
            self._on_move_done(fields["instance"])

    def _absorb_digest(self, link: PeerLink, sent_at: float, heard: float, summary: list, resync: bool, **sections: list) -> None:
        now = self.sim.now
        self.digests_received += 1
        link.observe(now - sent_at)
        link.heard = max(link.heard, sent_at)
        changes = [versioned.merge(sections[name], now, ttl=ttl, source=link.peer) for name, versioned, ttl in self._sections]
        for changed in changes[0]:  # membership
            value = self.gossip.membership.value_of(changed) or {}
            if changed != self.name and not value.get("alive"):
                # An obituary arrived by gossip before our own suspicion
                # fired: run the election now (the winner may be us).
                self._run_election(changed)
        own = self.gossip.membership.value_of(self.name)
        if own is not None and not own.get("alive"):
            # A peer suspected us while we were merely slow; re-assert life
            # with a higher version so the false obituary cannot win.
            self.gossip.membership.put(self.name, self.name, {"alive": True}, now)
        # A section filled to the cap has more to follow: not yet comparable.  An
        # ask is honoured all the same — it rides on the first frame of the peer's
        # own resend, which is full whenever its map needs more than one.
        if resync or all(len(entries) < MAX_SECTION_ENTRIES for entries in sections.values()):
            self._reconcile(link, sent_at, heard, summary, resync)

    def _reconcile(self, link: PeerLink, sent_at: float, heard: float, summary: list, resync: bool) -> None:
        """Detect a delta that never arrived: the peer's summaries against ours.

        A difference means nothing while it can be news on its way: ours (the
        peer had not *heard* our last entries when it sent, or entries wait for
        its next digest) or a tombstone deadline between its sending and now.
        Otherwise a delta was lost, whatever the channel promised: forget what
        the peer was believed to know (the differing maps go out again) and ask
        it to do the same; asked, forget even with entries pending.
        """
        differing = [name for name, ours, theirs in zip(SECTIONS, self.summaries(), summary) if ours != theirs]
        if not differing or heard < link.told_at or sent_at <= self.gossip.liveness.expired_to:
            return
        if resync or not any(
            next(versioned.newer(link.sent.get(name, 0), link.peer), None) for name, versioned, _ in self._sections
        ):
            for name in differing:
                link.sent.pop(name, None)
            link.ask = not resync

    # -- cross-domain moves ------------------------------------------------------------

    def wan_pacing_for(self, peer: str) -> float:
        """The adaptive precopy pacing gain for moves towards *peer*.

        Derived from the gossip layer's measured one-way delay and jitter:
        ``(srtt + 4*jitter)`` at or below the LAN reference yields 0 (no
        pacing, LAN behaviour preserved); beyond it the gain grows with the
        measured excess, capped at ``max_pacing_gain``.
        """
        link = self._peers.get(peer)
        if link is None or link.srtt is None:
            return 0.0
        effective = link.srtt + 4.0 * link.jitter
        gain = effective / LAN_DELAY_REFERENCE - 1.0
        return max(0.0, min(self.config.max_pacing_gain, gain))

    def move_to(
        self,
        peer: str,
        src: str,
        dst_instance: str,
        pattern,
        spec: Optional[TransferSpec] = None,
        *,
        faults: Optional[FaultPlan] = None,
    ) -> Future:
        """Move state from local *src* to *dst_instance* homed in *peer*.

        The peer lends the destination instance (FED_MOVE_REQUEST/GRANT);
        this domain registers it over a dedicated WAN channel inheriting the
        peer link's latency/bandwidth plus the caller's *faults* plan, runs
        the precopy with the adaptive ``wan_pacing`` gain, claims the moved
        flows for *peer* in the ownership directory, and returns the instance
        (FED_MOVE_DONE).  The returned future yields the OperationHandle's
        record on success.
        """
        future = self.sim.event(name=f"fed-move-{src}->{peer}/{dst_instance}")
        link = self._peers.get(peer)
        if link is None:
            future.fail(ValueError(f"domain {self.name!r} has no peer {peer!r}"))
            return future
        request = self._send(link, messages.fed_move_request(peer, dst_instance))
        self._outbound[request.xid] = {
            "future": future,
            "peer": peer,
            "src": src,
            "dst": dst_instance,
            "pattern": pattern,
            "spec": spec,
            "faults": faults,
        }
        return future

    def _on_move_request(self, peer: str, message: Message, instance: str) -> None:
        """Home-domain side: lend the requested instance (or refuse)."""
        link = self._peers[peer]
        if not self.controller.is_registered(instance) or instance in self._lent:
            self._send(link, messages.fed_move_grant(message, peer, granted=False, reason=f"{instance!r} unavailable"))
            return
        # Clean unregister: the instance leaves this controller for the
        # duration of the move (its object stays in ``_instances`` so it can
        # come home on FED_MOVE_DONE).
        self.controller.unregister(instance)
        self._lent[instance] = peer
        self._send(link, messages.fed_move_grant(message, peer, granted=True))

    def _on_move_grant(self, peer: str, message: Message, granted: bool, reason: str) -> None:
        """Borrowing side: run the WAN move once the lend is granted."""
        pending = self._outbound.pop(message.reply_to or -1, None)
        if pending is None:
            return
        future: Future = pending["future"]
        if not granted:
            future.fail(RuntimeError(f"cross-domain move refused: {reason}"))
            return
        dst = pending["dst"]
        obj = self._resolve_instance(dst)
        if obj is None:
            future.fail(RuntimeError(f"no object for lent instance {dst!r}"))
            return
        link = self._peers[peer]
        wan_channel = ControlChannel(
            self.sim,
            name=f"wan-{self.name}-{dst}",
            latency=link.latency,
            bandwidth=link.bandwidth,
            faults=pending["faults"],
        )
        self.controller.register(obj, channel=wan_channel)
        spec = self._wan_spec(pending["spec"], peer)
        handle = NorthboundAPI(self.controller).move_internal(pending["src"], dst, pending["pattern"], spec)
        handle.finalized.add_done_callback(
            lambda done: self._finish_cross_move(peer, dst, handle, future, done)
        )

    def _wan_spec(self, spec: Optional[TransferSpec], peer: str) -> TransferSpec:
        """Resolve the caller's spec and inject the measured pacing gain."""
        base = TransferSpec.parse(spec) if spec is not None else TransferSpec.precopy()
        if base.mode is TransferMode.PRECOPY and base.wan_pacing == 0.0:
            gain = self.wan_pacing_for(peer)
            if gain > 0.0:
                base = dataclasses.replace(base, wan_pacing=gain)
        return base

    def _finish_cross_move(self, peer: str, dst: str, handle, future: Future, done: Future) -> None:
        """Borrowing side epilogue: claim ownership, return the instance."""
        ok = done.exception is None
        if ok:
            moved = sorted(handle._operation.flows)
            self.directory.claim_flows(moved, peer, self.sim.now)
        if self.controller.is_registered(dst):
            self.controller.unregister(dst)
        link = self._peers.get(peer)
        if link is not None:
            self._send(link, messages.fed_move_done(peer, dst))
        if ok:
            future.succeed(handle.record)
        else:
            future.fail(done.exception)

    def _on_move_done(self, instance: str) -> None:
        """Home-domain side: the lent instance comes back, state and all."""
        self._lent.pop(instance, None)
        obj = self._instances.get(instance)
        if obj is not None and not self.controller.is_registered(instance):
            self.register(obj)


class Federation:
    """A set of federated domains plus the inter-domain wiring between them."""

    def __init__(self, sim: Simulator, config: Optional[FederationConfig] = None) -> None:
        self.sim = sim
        self.config = config or FederationConfig()
        self.domains: Dict[str, FederatedDomain] = {}

    def add_domain(
        self,
        name: str,
        *,
        controller: Optional[MBController] = None,
        controller_config: Optional[ControllerConfig] = None,
    ) -> FederatedDomain:
        """Create (and index) one federated domain."""
        if name in self.domains:
            raise ValueError(f"domain {name!r} already exists")
        domain = FederatedDomain(
            self.sim,
            name,
            controller=controller,
            controller_config=controller_config,
            config=self.config,
            federation=self,
        )
        self.domains[name] = domain
        return domain

    def connect(
        self,
        a: str,
        b: str,
        *,
        latency: float = 2e-3,
        bandwidth: float = 12.5e6,
        faults: Optional[FaultPlan] = None,
    ) -> ControlChannel:
        """Wire two domains with an inter-domain channel (WAN by default:
        2 ms one-way, 100 Mbit/s — an order of magnitude worse than the
        intra-domain control channel).  A FaultPlan makes the link lossy and
        enables the reliable delivery layer underneath the gossip."""
        domain_a, domain_b = self.domains[a], self.domains[b]
        channel = ControlChannel(self.sim, name=f"wan-{a}-{b}", latency=latency, bandwidth=bandwidth, faults=faults)
        channel.bind_controller(lambda message, _d=domain_a, _p=b: _d._on_peer_message(_p, message))
        channel.bind_middlebox(lambda message, _d=domain_b, _p=a: _d._on_peer_message(_p, message))
        domain_a.add_peer(PeerLink(b, channel, "a", latency=latency, bandwidth=bandwidth))
        domain_b.add_peer(PeerLink(a, channel, "b", latency=latency, bandwidth=bandwidth))
        return channel

    def connect_all(self, **channel_kwargs) -> List[ControlChannel]:
        """Full-mesh wiring between every pair of domains."""
        names = sorted(self.domains)
        return [
            self.connect(names[i], names[j], **channel_kwargs)
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]

    def middlebox_object(self, name: str) -> Optional[Any]:
        """Resolve a middlebox object by name across every domain."""
        for domain in self.domains.values():
            if name in domain._instances:
                return domain._instances[name]
        return None

    def live_domains(self) -> List[FederatedDomain]:
        """Domains whose controller process is still up."""
        return [domain for domain in self.domains.values() if domain.alive]

    def crash_domain(self, name: str) -> None:
        """Kill one domain's controller (see :meth:`FederatedDomain.crash`)."""
        self.domains[name].crash()

    def stop(self) -> None:
        """Stop every domain's gossip (clean teardown for tests)."""
        for domain in self.domains.values():
            domain.stop()

    def snapshot(self) -> Dict[str, object]:
        """Everything the federation counts, as one JSON-serialisable document.

        ``domains``: each domain controller's
        :meth:`~repro.core.controller.MBController.snapshot`; ``fleet``: their
        ``controller`` sections summed counter by counter; ``gossip``: per
        inter-domain channel, its two directions' counters.
        """
        domains = {name: domain.controller.snapshot() for name, domain in self.domains.items()}
        fleet = Counters().merge(*(Counters(**snapshot["controller"]) for snapshot in domains.values()))
        gossip = {}
        for domain in self.domains.values():
            for link in domain._peers.values():
                channel = link.channel
                gossip[channel.name] = {"to_mb": channel.to_mb.as_dict(), "to_controller": channel.to_controller.as_dict()}
        return {"domains": domains, "fleet": fleet.as_dict(), "gossip": gossip}

    def converged(self) -> bool:
        """True when every live domain agrees on membership, liveness, and ownership:
        equal summaries (count + checksum of every entry) — O(1) per domain."""
        views = [domain.summaries() for domain in self.live_domains()]
        return all(view == views[0] for view in views[1:])

    def run_until_converged(self, *, max_rounds: int = 200) -> int:
        """Drive the simulator one gossip interval at a time until every live
        domain converged; returns the number of intervals consumed.  Raises
        RuntimeError after *max_rounds* (a convergence-bound violation)."""
        interval = self.config.gossip.interval
        for rounds in range(max_rounds + 1):
            if self.converged():
                return rounds
            self.sim.run(until=self.sim.now + interval)
        raise RuntimeError(f"federation failed to converge within {max_rounds} gossip intervals")
