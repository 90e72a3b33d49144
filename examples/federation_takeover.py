#!/usr/bin/env python
"""Three-domain federation: gossip convergence, domain death, elected takeover.

Three controller domains (per-DC) peer over lossy WAN channels.  Each domain
runs its own :class:`~repro.core.controller.MBController` and gossips two
facts to the others (anti-entropy, tunable fanout/interval/TTL):

* **instance liveness** — built from each controller's heartbeat state;
* **flow ownership** — a versioned directory mapping canonical flow tokens
  to the owning domain.

When one domain's controller dies, the survivors detect the silence, agree on
a successor via rendezvous election (no extra messages — converged views elect
the same winner), and the winner adopts the dead domain's instances and flow
ownership.  The orphaned middlebox keeps its per-flow state throughout: zero
updates are lost across the takeover.

A suspicion can be false.  A peer is alive while its frames arrive (one held
above a retransmission gap counts), so only an outage longer than the
suspicion timeout fools a survivor: the example then cuts dc-west's frames to
dc-east for 50 ms.  dc-east suspects the live dc-west and adopts its instance;
the first frame after the outage disproves the obituary, the adoption is
handed back, and ``false_suspicions`` counts the healed obituary.

Run it with::

    PYTHONPATH=src python examples/federation_takeover.py
"""

from __future__ import annotations

from repro.apps import FederationOverseerApp
from repro.core import ControllerConfig
from repro.core.channel import FaultPlan, FaultProfile
from repro.federation import Federation, FederationConfig, GossipConfig
from repro.net import Simulator, tcp_packet
from repro.testing import ChaosMiddlebox

#: One subnet per domain so flow keys never collide across the federation.
DOMAINS = {"dc-east": "10.21", "dc-west": "10.22", "dc-core": "10.23"}


def main() -> None:
    sim = Simulator()
    federation = Federation(
        sim,
        FederationConfig(
            gossip=GossipConfig(fanout=2, interval=1e-3, ttl=0.5, seed=42),
            suspicion_timeout=2.5e-2,
        ),
    )
    for name in DOMAINS:
        federation.add_domain(name, controller_config=ControllerConfig(quiescence_timeout=0.02))
    # Lossy WAN mesh: 2 ms one-way, 100 Mbit/s, 1% drop with 2x jitter.
    federation.connect_all(latency=2e-3, bandwidth=12.5e6, faults=FaultPlan.symmetric(7, drop=0.01, jitter=2.0))

    # One instance per domain; each domain claims its instance's flows.
    for index, (name, subnet) in enumerate(DOMAINS.items()):
        instance = ChaosMiddlebox(sim, f"mb-{name}", flows=8, subnet=subnet)
        federation.domains[name].register(instance)
        federation.domains[name].claim_flows([instance.flow_key_for(i) for i in range(8)])

    rounds = federation.run_until_converged()
    print(f"3 domains converged on membership + liveness + ownership in {rounds} gossip intervals")

    # Live traffic journals sequence numbers into dc-core's per-flow state.
    victim_mb = federation.middlebox_object("mb-dc-core")
    for seq in range(1, 17):
        key = victim_mb.flow_key_for(seq % 8)
        sim.schedule(2e-4 * seq, victim_mb.receive, tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"w", seq=seq), 0)
    sim.run(until=sim.now + 0.01)
    journal_before = sum(len(seqs) for seqs in victim_mb.flow_seqs().values())

    print("dc-core's controller crashes ...")
    federation.crash_domain("dc-core")
    sim.run(until=sim.now + 0.15)  # suspicion -> obituary gossip -> election -> adoption

    overseer = FederationOverseerApp(sim, federation)
    report = overseer.run(limit=1.0)
    details = report.details
    print(f"survivors: {details['live_domains']}; views converged: {details['converged']}")
    for dead, adopter in details["takeovers"].items():
        print(f"takeover: '{adopter}' adopted domain '{dead}' and its instances")
    for domain, roster in details["instances"].items():
        print(f"  {domain}: {roster}")
    print(f"flow ownership after re-homing: {details['ownership']}")

    journal_after = sum(len(seqs) for seqs in victim_mb.flow_seqs().values())
    print(f"per-flow update journal: {journal_before} entries before the crash, {journal_after} after "
          f"({'zero lost updates' if journal_after >= journal_before else 'UPDATES LOST'})")
    # A one-way WAN outage between the survivors, longer than the suspicion
    # timeout: dc-west -> dc-east is the to_controller direction of their link.
    east, west = federation.domains["dc-east"], federation.domains["dc-west"]
    channel = east.peer_link("dc-west").channel
    wan_faults, channel.faults = channel.faults, FaultPlan(1, to_controller=FaultProfile(drop=1.0))
    sim.run(until=sim.now + 0.05)
    print(f"one-way outage dc-west -> dc-east: dc-east suspects dc-west and adopted "
          f"{sorted(set(east.controller.middlebox_names()) & set(west.controller.middlebox_names()))}")
    channel.faults = wan_faults
    details = FederationOverseerApp(sim, federation).run(limit=sim.now + 1.0).details
    print(f"outage over: {east.false_suspicions} false suspicion healed; dc-east: {details['instances']['dc-east']}, "
          f"dc-west: {details['instances']['dc-west']}; takeovers {details['takeovers']}, views converged: {details['converged']}")
    fleet = details["fleet"]
    gossip_rounds = sum(domain.gossip_rounds for domain in federation.domains.values())
    digests = sum(domain.digests_received for domain in federation.domains.values())
    print(f"gossip cost: {gossip_rounds} rounds, {digests} digests absorbed; fleet controller counters "
          f"(merged across domains): {fleet['operations_completed']} operations, "
          f"{fleet['messages_sent']} southbound messages")
    federation.stop()


if __name__ == "__main__":
    main()
