"""Multi-controller federation: gossip, election, directory, WAN moves.

Covers the federation tentpole end to end with fixed seeds throughout:

* gossip primitives — digest merge idempotence/commutativity, deterministic
  tie-breaking, TTL tombstone expiry, fanout bounds;
* the rendezvous takeover election (pure function of the membership view);
* the versioned flow-ownership directory (canonical bidirectional tokens);
* 3-domain convergence within a deterministic round bound;
* domain death -> gossip-elected takeover with zero lost per-flow state;
* cross-domain moves over an asymmetric FaultPlan with adaptive WAN pacing;
* ``ControllerStats.merge`` algebra;
* the ``num_domains=1`` golden equivalence: one federated domain reproduces
  the pre-federation controller bit for bit (same pattern as
  ``tests/test_sharding.py``'s single-shard golden numbers).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI, messages
from repro.core.channel import FaultPlan, FaultProfile
from repro.core.errors import ProtocolError
from repro.core.messages import Message
from repro.core.southbound import ProcessingCosts
from repro.core.stats import ControllerStats
from repro.core.transfer import TransferSpec
from repro.federation import (
    Federation,
    FederationConfig,
    GossipConfig,
    OwnershipDirectory,
    VersionedMap,
    choose_peers,
    elect_successor,
    takeover_score,
)
from repro.federation import domain as domain_module
from repro.federation.domain import MAX_SECTION_ENTRIES, SECTIONS
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator, tcp_packet
from repro.testing import ChaosMiddlebox


# =========================================================================================
# Gossip primitives
# =========================================================================================


def fingerprint(versioned: VersionedMap):
    """The structural view a summary stands for: every entry's identity and payload, key-sorted."""
    return tuple(
        (key, entry.version, entry.origin, json.dumps(entry.value, sort_keys=True)) for key, entry in versioned.items()
    )


class TestVersionedMap:
    def _digest_of(self, *entries, at=0.0):
        return [{"key": k, "origin": o, "version": v, "value": dict(val), "at": at} for k, o, v, val in entries]

    def test_merge_is_idempotent(self):
        target = VersionedMap()
        digest = self._digest_of(("a", "dc0", 2, {"alive": True}), ("b", "dc1", 1, {"alive": False}))
        assert sorted(target.merge(digest, now=1.0)) == ["a", "b"]
        before = fingerprint(target)
        assert target.merge(digest, now=2.0) == []  # re-merge: no winners change
        assert fingerprint(target) == before
        assert target.summary == "00000002" + target.summary[8:]  # two entries, counted once each

    def test_merge_is_commutative(self):
        d1 = self._digest_of(("a", "dc0", 2, {"alive": True}), ("b", "dc2", 5, {"alive": True}))
        d2 = self._digest_of(("a", "dc1", 3, {"alive": False}), ("b", "dc1", 5, {"alive": False}))
        forward, backward = VersionedMap(), VersionedMap()
        forward.merge(d1, 1.0)
        forward.merge(d2, 2.0)
        backward.merge(d2, 1.0)
        backward.merge(d1, 2.0)
        assert fingerprint(forward) == fingerprint(backward)
        assert forward.summary == backward.summary

    def test_equal_versions_break_ties_towards_the_smaller_origin(self):
        left, right = VersionedMap(), VersionedMap()
        entry_a = self._digest_of(("k", "dc0", 7, {"alive": True}))
        entry_b = self._digest_of(("k", "dc1", 7, {"alive": False}))
        left.merge(entry_a, 1.0)
        left.merge(entry_b, 2.0)
        right.merge(entry_b, 1.0)
        right.merge(entry_a, 2.0)
        assert fingerprint(left) == fingerprint(right)
        assert dict(left.items())["k"].origin == "dc0"  # smaller origin wins the tie

    def test_put_bumps_the_version_monotonically(self):
        versioned = VersionedMap()
        assert versioned.put("k", "dc0", {"alive": True}, 0.0).version == 1
        assert versioned.put("k", "dc1", {"alive": False}, 1.0).version == 2

    def test_ttl_expires_only_unrefreshed_tombstones(self):
        versioned = VersionedMap()
        versioned.put("live", "dc0", {"alive": True}, 0.0)
        versioned.put("dead", "dc0", {"alive": False}, 0.0)
        assert versioned.expire(now=0.1, ttl=0.25) == []
        assert versioned.expire(now=0.3, ttl=0.25) == ["dead"]
        assert [key for key, _ in versioned.items()] == ["live"]

    def test_exact_re_receipt_does_not_refresh_a_tombstone(self):
        """The TTL runs from the authoring time in the entry; hearing the fact again is not news."""
        versioned = VersionedMap()
        versioned.put("dead", "dc0", {"alive": False}, 0.0)
        before = versioned.summary
        assert versioned.merge(versioned.digest(), now=0.2) == []  # same (version, origin)
        assert versioned.summary == before and dict(versioned.items())["dead"].at == 0.0
        assert versioned.expire(now=0.25, ttl=0.25) == []  # the deadline itself is not past it
        assert versioned.expire(now=0.3, ttl=0.25) == ["dead"]
        assert versioned.summary == VersionedMap().summary and versioned.expired_to == 0.25

    def test_a_tombstone_arriving_past_its_ttl_is_applied_and_never_installed(self):
        versioned, late = VersionedMap(), VersionedMap()
        versioned.put("mb", "dc0", {"alive": True}, 0.0)
        late.merge(versioned.digest(), now=0.0)
        versioned.put("mb", "dc0", {"alive": False}, 0.1)
        tombstone = versioned.digest()
        assert late.merge(tombstone, now=0.5, ttl=0.25) == ["mb"]  # what it beats goes...
        assert late.value_of("mb") is None and late.summary == VersionedMap().summary  # ...and it is not kept
        assert late.merge(tombstone, now=0.5, ttl=0.25) == []
        assert VersionedMap().merge(tombstone, now=0.2, ttl=0.25) == ["mb"]  # still inside its TTL: installed

    def test_newer_walks_back_from_the_newest_install_to_the_mark(self):
        versioned = VersionedMap()
        for index in range(5):
            versioned.put(f"k{index}", "dc0", {"alive": True}, 0.0)
        mark = versioned.revision
        assert list(versioned.newer(mark)) == []
        versioned.put("k1", "dc0", {"alive": True}, 1.0)
        versioned.merge(self._digest_of(("k9", "dc1", 1, {"alive": True})), 1.0, source="dc1")
        assert [entry.key for entry in versioned.newer(mark)] == ["k9", "k1"]  # newest first
        assert [entry.key for entry in versioned.newer(mark, "dc1")] == ["k1"]  # never echoed to its source
        assert len(list(versioned.newer(0))) == len(versioned.digest()) == 6

    def test_the_summary_is_constant_size_and_order_independent(self):
        forward, backward = VersionedMap(), VersionedMap()
        facts = [(f"flow-{index}", "dc0", index % 3 + 1, {"domain": "dc0"}) for index in range(200)]
        forward.merge(self._digest_of(*facts), 0.0)
        backward.merge(self._digest_of(*reversed(facts)), 0.0)
        assert forward.summary == backward.summary and len(forward.summary) == len(VersionedMap().summary) == 24
        # The pair a XOR of per-entry CRCs cannot tell apart: two keys swapping versions.
        swapped = VersionedMap()
        swapped.merge(self._digest_of(("a", "dc0", 1, {}), ("b", "dc0", 2, {})), 0.0)
        straight = VersionedMap()
        straight.merge(self._digest_of(("a", "dc0", 2, {}), ("b", "dc0", 1, {})), 0.0)
        assert swapped.summary != straight.summary


class TestChoosePeers:
    def test_respects_the_fanout_bound(self):
        rng = random.Random(7)
        peers = [f"dc{i}" for i in range(8)]
        for _ in range(50):
            chosen = choose_peers(rng, peers, fanout=3)
            assert len(chosen) == 3
            assert set(chosen) <= set(peers)

    def test_returns_everyone_when_fanout_covers_the_peer_set(self):
        assert choose_peers(random.Random(1), ["b", "a"], fanout=5) == ["a", "b"]

    def test_draws_are_deterministic_for_a_fixed_seed(self):
        peers = [f"dc{i}" for i in range(6)]
        first = [choose_peers(random.Random(42), peers, 2) for _ in range(1)]
        second = [choose_peers(random.Random(42), peers, 2) for _ in range(1)]
        assert first == second

    def test_gossip_config_validates_its_tunables(self):
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)
        with pytest.raises(ValueError):
            GossipConfig(interval=0.0)
        with pytest.raises(ValueError):
            GossipConfig(ttl=-1.0)


# =========================================================================================
# Rendezvous election
# =========================================================================================


class TestElection:
    def test_every_converged_view_elects_the_same_unique_winner(self):
        candidates = ["dc0", "dc1", "dc3"]
        winner = elect_successor("dc2", candidates)
        assert winner in candidates
        assert takeover_score("dc2", winner) == min(takeover_score("dc2", d) for d in candidates)
        for shuffled in itertools.permutations(candidates):
            assert elect_successor("dc2", list(shuffled)) == winner

    def test_the_dead_domain_never_elects_itself(self):
        assert elect_successor("dc2", ["dc2"]) is None
        assert elect_successor("dc2", []) is None
        assert elect_successor("dc2", ["dc2", "dc0"]) == "dc0"


# =========================================================================================
# Ownership directory
# =========================================================================================


class TestOwnershipDirectory:
    def test_both_packet_directions_resolve_to_one_owner(self):
        directory = OwnershipDirectory()
        mb = DummyMiddlebox(Simulator(), "mb")
        key = mb.flow_key_for(3)
        directory.claim(key, "dc1", now=1.0)
        assert directory.owner_of(key) == "dc1"
        assert directory.owner_of(key.reversed()) == "dc1"
        assert directory.token_of(key) == directory.token_of(key.reversed())

    def test_reassign_re_homes_every_token_and_wins_the_merge(self):
        sim = Simulator()
        mb = DummyMiddlebox(sim, "mb")
        authoritative, replica = OwnershipDirectory(), OwnershipDirectory()
        keys = [mb.flow_key_for(i) for i in range(5)]
        authoritative.claim_flows(keys, "dc2", now=0.0)
        replica.map.merge(authoritative.map.digest(), 0.0)
        moved = authoritative.reassign("dc2", "dc0", now=1.0)
        assert len(moved) == 5
        assert authoritative.tokens_owned_by("dc2") == []
        replica.map.merge(authoritative.map.digest(), 2.0)  # higher versions win
        assert fingerprint(replica.map) == fingerprint(authoritative.map)
        assert replica.tokens_owned_by("dc0") == moved


# =========================================================================================
# Federated domains: convergence, takeover, WAN moves
# =========================================================================================

FAST = ControllerConfig(quiescence_timeout=0.02)


def build_federation(num_domains=3, *, seed=11, faults=None, suspicion=2e-2):
    """A full-mesh federation of *num_domains* fast-quiescence domains."""
    sim = Simulator()
    config = FederationConfig(
        gossip=GossipConfig(fanout=2, interval=2e-3, ttl=0.5, seed=seed),
        suspicion_timeout=suspicion,
    )
    federation = Federation(sim, config)
    for index in range(num_domains):
        federation.add_domain(f"dc{index}", controller_config=FAST)
    federation.connect_all(latency=2e-3, bandwidth=12.5e6, faults=faults)
    return sim, federation


class TestConvergence:
    def test_three_domains_converge_within_the_round_bound(self):
        sim, federation = build_federation()
        for index, (name, domain) in enumerate(sorted(federation.domains.items())):
            mb = DummyMiddlebox(sim, f"mb-{name}", chunk_count=4, subnet=f"10.{index + 20}")
            domain.register(mb)
            domain.claim_flows([mb.flow_key_for(i) for i in range(4)])
        rounds = federation.run_until_converged(max_rounds=20)
        assert rounds <= 6
        # Every domain now resolves every flow's owner identically.
        probe = federation.middlebox_object("mb-dc1").flow_key_for(0)
        owners = {d.directory.owner_of(probe) for d in federation.live_domains()}
        assert owners == {"dc1"}

    def test_convergence_rounds_are_seed_deterministic(self):
        observed = set()
        for _ in range(2):
            sim, federation = build_federation(seed=23)
            for name, domain in federation.domains.items():
                domain.register(DummyMiddlebox(sim, f"mb-{name}", chunk_count=2))
            observed.add(federation.run_until_converged(max_rounds=20))
        assert len(observed) == 1

    def test_a_lossy_mesh_still_converges(self):
        plan = FaultPlan.symmetric(5, drop=0.05, jitter=1.0)
        sim, federation = build_federation(faults=plan)
        for name, domain in federation.domains.items():
            domain.register(DummyMiddlebox(sim, f"mb-{name}", chunk_count=2))
        assert federation.run_until_converged(max_rounds=100) <= 30


    @pytest.mark.parametrize("domains", (2, 3))
    @pytest.mark.parametrize("seed", range(4))
    def test_an_unreliable_mesh_converges_on_the_summaries_alone(self, seed, domains):
        """No ARQ under the gossip: a fifth of the digests vanish, others arrive
        twice or out of order.  Delivery is not assumed — a lost delta shows as
        a summary mismatch and is repaired by one full exchange."""
        plan = FaultPlan.symmetric(seed, drop=0.2, duplicate=0.1, reorder=0.2, jitter=1.0)
        sim, federation = build_federation(domains, seed=seed, suspicion=10.0)
        for channel in (link.channel for domain in federation.domains.values() for link in domain._peers.values()):
            channel.faults, channel.reliable = plan, False
        for index, (name, domain) in enumerate(sorted(federation.domains.items())):
            mb = DummyMiddlebox(sim, f"mb-{name}", chunk_count=30, subnet=f"10.{index + 20}")
            domain.register(mb)
            domain.claim_flows([mb.flow_key_for(i) for i in range(30)])
        assert federation.run_until_converged(max_rounds=100) <= 40
        sim.run(until=sim.now + 0.05)  # late duplicates and reordered stragglers change nothing
        assert federation.converged()
        views = [[fingerprint(versioned) for _, versioned, _ in domain._sections] for domain in federation.domains.values()]
        assert all(view == views[0] for view in views[1:]) and len(views[0][2]) == 30 * domains
        dropped = sum(link.channel.total_dropped for domain in federation.domains.values() for link in domain._peers.values())
        assert dropped > 0, "the fault plan never fired"


class TestSingleDomainIsInert:
    def test_one_domain_arms_no_timers_and_sends_no_messages(self):
        sim = Simulator()
        federation = Federation(sim, FederationConfig())
        domain = federation.add_domain("solo", controller_config=FAST)
        domain.register(DummyMiddlebox(sim, "mb", chunk_count=4))
        pending_before = sim.pending_events
        sim.run(until=1.0)
        assert sim.pending_events == 0 and pending_before <= 1
        assert domain.gossip_rounds == 0 and domain.digests_received == 0
        assert federation.converged()


class TestTakeover:
    def _takeover_scenario(self, *, seed=3):
        sim, federation = build_federation(seed=seed, suspicion=1.5e-2)
        victim = federation.domains["dc2"]
        orphan = ChaosMiddlebox(sim, "orphan", flows=6, subnet="10.9")
        for flow in range(6):
            key = orphan.flow_key_for(flow)
            packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"x", seq=flow + 1)
            sim.schedule(1e-4 * (flow + 1), orphan.receive, packet, 0)
        victim.register(orphan)
        victim.claim_flows([orphan.flow_key_for(i) for i in range(6)])
        federation.run_until_converged(max_rounds=50)
        expected = {key: dict(record) for key, record in orphan.support_store.items()}
        sim.schedule(1e-3, lambda: federation.crash_domain("dc2"))
        sim.run(until=0.2)
        return sim, federation, orphan, expected

    def test_exactly_the_rendezvous_winner_adopts_the_orphans(self):
        sim, federation, orphan, expected = self._takeover_scenario()
        adopters = [d.name for d in federation.live_domains() if "dc2" in d.takeovers]
        assert adopters == [elect_successor("dc2", ["dc0", "dc1"])]
        adopter = federation.domains[adopters[0]]
        assert adopter.controller.is_registered("orphan")
        # Zero lost state: the orphan's populated per-flow journals survive.
        observed = {key: dict(record) for key, record in orphan.support_store.items()}
        assert observed == expected

    def test_takeover_re_homes_ownership_and_reconverges(self):
        sim, federation, orphan, _ = self._takeover_scenario(seed=9)
        federation.stop()
        sim.run(until=sim.now + 0.05)
        assert federation.converged()
        for domain in federation.live_domains():
            assert domain.directory.tokens_owned_by("dc2") == []
            assert domain.directory.owner_of(orphan.flow_key_for(0)) == elect_successor(
                "dc2", ["dc0", "dc1"]
            )

    def test_a_takeover_happens_at_most_once_per_dead_domain(self):
        sim, federation, _, _ = self._takeover_scenario()
        sim.run(until=sim.now + 0.1)
        for domain in federation.live_domains():
            assert domain.takeovers.count("dc2") <= 1


class TestFalseSuspicionRevert:
    def test_false_takeover_is_fully_reverted_when_the_peer_is_heard_again(self):
        """A falsely-suspected domain is still alive: hearing from it must
        undo the takeover — registrations, event sink, and flow ownership."""
        sim, federation = build_federation(2, seed=23)
        victim, suspector = federation.domains["dc0"], federation.domains["dc1"]
        mb = ChaosMiddlebox(sim, "survivor-mb", flows=4, subnet="10.30")
        victim.register(mb)
        victim.claim_flows([mb.flow_key_for(i) for i in range(4)])
        federation.run_until_converged(max_rounds=50)
        home_agent = victim.controller._registrations["survivor-mb"].agent

        took = []
        real_take_over = suspector._take_over
        suspector._take_over = lambda dead: (took.append(dead), real_take_over(dead))[1]

        # A transient silence — dc0's gossip pauses but its process is alive
        # (the control-plane equivalent of a partition): dc1 suspects it,
        # wins the election (its view has no other live domain), and adopts
        # dc0's instance and flow ownership.
        victim.stop()
        sim.run(until=sim.now + 0.05)
        assert took == ["dc0"]
        assert suspector.controller.is_registered("survivor-mb")

        # The partition heals: dc0 resumes gossiping, its first digest
        # disproves the obituary, and the adoption is handed back in full.
        victim._running = True
        victim._arm_gossip()
        sim.run(until=sim.now + 0.05)
        assert "dc0" not in suspector.takeovers
        assert not suspector.controller.is_registered("survivor-mb")
        assert victim.controller.is_registered("survivor-mb")
        # The event feed points back at the home domain's southbound agent.
        assert mb._event_sink == home_agent.send_event
        federation.stop()
        sim.run(until=sim.now + 0.05)
        assert federation.converged()
        for domain in federation.live_domains():
            assert domain.directory.owner_of(mb.flow_key_for(0)) == "dc0"
            assert domain.gossip.liveness.value_of("survivor-mb")["domain"] == "dc0"


class TestCrossDomainMove:
    def _warmed_pair(self, *, seed=17):
        """Two domains with measured WAN quality and a populated source."""
        sim, federation = build_federation(2, seed=seed)
        borrower, home = federation.domains["dc0"], federation.domains["dc1"]
        src = ChaosMiddlebox(sim, "wan-src", flows=8)
        borrower.register(src)
        dst = ChaosMiddlebox(sim, "wan-dst")
        home.register(dst)
        sim.run(until=0.05)  # gossip samples the link; srtt/jitter settle
        return sim, federation, borrower, home, src, dst

    def test_wan_pacing_gain_tracks_the_measured_link(self):
        sim, federation, borrower, home, *_ = self._warmed_pair()
        link = borrower.peer_link("dc1")
        assert link.samples > 0 and link.srtt is not None
        assert link.srtt >= 2e-3  # at least the configured one-way latency
        gain = borrower.wan_pacing_for("dc1")
        assert 0.0 < gain <= borrower.config.max_pacing_gain
        assert borrower.wan_pacing_for("nonexistent") == 0.0

    def test_cross_domain_move_claims_flows_and_returns_the_instance(self):
        sim, federation, borrower, home, src, dst = self._warmed_pair()
        faults = FaultPlan(
            31,
            to_mb=FaultProfile(drop=0.01, jitter=2.0),
            to_controller=FaultProfile(jitter=0.5),
        )
        future = borrower.move_to(
            "dc1", "wan-src", "wan-dst", FlowPattern.wildcard(),
            TransferSpec.precopy(max_rounds=2), faults=faults,
        )
        sim.run_until(future, limit=30.0)
        record = future.result
        assert record.rounds and record.rounds[0]["chunks"] == 8
        assert record.wan_pacing > 0.0  # adaptive gain was injected
        sim.run(until=sim.now + 0.1)  # FED_MOVE_DONE + re-registration settle
        # The instance went home and the moved flows belong to dc1 everywhere.
        assert home.controller.is_registered("wan-dst")
        assert not borrower.controller.is_registered("wan-dst")
        federation.stop()
        sim.run(until=sim.now + 0.05)
        for domain in federation.live_domains():
            assert domain.directory.owner_of(src.flow_key_for(0)) == "dc1"

    def test_an_explicit_wan_pacing_spec_is_respected(self):
        sim, federation, borrower, *_ = self._warmed_pair()
        explicit = TransferSpec.precopy(max_rounds=2, wan_pacing=1.25)
        assert borrower._wan_spec(explicit, "dc1").wan_pacing == 1.25

    def test_moving_towards_an_unknown_peer_fails_fast(self):
        sim, federation, borrower, *_ = self._warmed_pair()
        future = borrower.move_to("nowhere", "wan-src", "wan-dst", FlowPattern.wildcard())
        assert future.done and isinstance(future.exception, ValueError)

    def test_the_home_domain_refuses_to_lend_an_unknown_instance(self):
        sim, federation, borrower, *_ = self._warmed_pair()
        future = borrower.move_to("dc1", "wan-src", "no-such-mb", FlowPattern.wildcard())
        sim.run(until=sim.now + 0.1)
        assert future.done and future.exception is not None
        assert "refused" in str(future.exception)


# =========================================================================================
# The wan_pacing TransferSpec knob
# =========================================================================================


class TestWanPacingSpec:
    def test_parse_and_validation(self):
        spec = TransferSpec.precopy(max_rounds=2, wan_pacing=1.5)
        assert spec.wan_pacing == 1.5
        assert TransferSpec.precopy().wan_pacing == 0
        with pytest.raises(ValueError):
            TransferSpec.precopy(wan_pacing=-0.1)

    def _timed_move(self, wan_pacing: float) -> tuple[float, int]:
        """One dirtied multi-round precopy move; returns (duration, rounds run).

        Each run's controller and middleboxes number their ids from 1, so
        message sizes, hence durations, compare across runs.  The source uses the base
        ``ProcessingCosts`` so its chunk export is slow enough for the live
        writes to land inside the dirty-tracking window — the delta round
        (the one pacing schedules) must actually run.
        """
        sim = Simulator()
        controller = MBController(sim, ControllerConfig(quiescence_timeout=0.02))
        nb = NorthboundAPI(controller)
        src = ChaosMiddlebox(sim, "src", flows=6, costs=ProcessingCosts())
        dst = ChaosMiddlebox(sim, "dst")
        controller.register(src)
        controller.register(dst)
        for seq in range(1, 40):  # steady writes keep the dirty set non-empty
            key = src.flow_key_for(seq % 6)
            packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"w", seq=seq)
            sim.schedule(2e-4 * seq, src.receive, packet, 0)
        spec = TransferSpec.precopy(max_rounds=3, dirty_threshold=0, wan_pacing=wan_pacing)
        handle = nb.move_internal("src", "dst", None, spec)
        sim.run_until(handle.finalized, limit=30.0)
        return handle.record.duration, len(handle.record.rounds)

    def test_pacing_stretches_the_inter_round_gap(self):
        unpaced, unpaced_rounds = self._timed_move(0.0)
        paced, paced_rounds = self._timed_move(3.0)
        assert unpaced_rounds >= 2  # a delta round ran, so pacing had a gap to stretch
        assert paced_rounds >= 2
        assert paced > unpaced  # the paced rounds wait out the measured gap

    def test_zero_pacing_is_schedule_identical_to_the_pre_knob_default(self):
        assert self._timed_move(0.0) == self._timed_move(0.0)


# =========================================================================================
# ControllerStats.merge
# =========================================================================================


class TestControllerStatsMerge:
    def _stats(self, **overrides) -> ControllerStats:
        stats = ControllerStats()
        for field_name, value in overrides.items():
            setattr(stats, field_name, value)
        return stats

    def test_merge_sums_counters_and_concatenates_records(self):
        a = self._stats(messages_sent=3, operations_completed=1)
        a.records.append("ra")
        b = self._stats(messages_sent=4, precopy_rounds_total=2)
        b.records.append("rb")
        merged = a.merge(b)
        assert merged.messages_sent == 7
        assert merged.operations_completed == 1
        assert merged.precopy_rounds_total == 2
        assert merged.records == ["ra", "rb"]
        assert a.messages_sent == 3 and b.messages_sent == 4  # inputs untouched

    def test_merge_with_a_fresh_instance_is_identity(self):
        a = self._stats(messages_received=9, heartbeats_received=2)
        merged = a.merge(ControllerStats())
        for field_name in ("messages_received", "heartbeats_received", "messages_sent"):
            assert getattr(merged, field_name) == getattr(a, field_name)

    def test_merge_is_associative(self):
        a = self._stats(messages_sent=1)
        b = self._stats(messages_sent=2, events_received=5)
        c = self._stats(messages_sent=4, instances_killed=1)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.messages_sent == right.messages_sent == 7
        assert left.events_received == right.events_received == 5
        assert left.instances_killed == right.instances_killed == 1

    def test_merge_enumerates_the_fields_so_an_added_counter_is_not_dropped(self):
        @dataclasses.dataclass
        class Extended(ControllerStats):
            gossip_rounds: int = 0

        merged = Extended(messages_sent=1, gossip_rounds=2).merge(Extended(messages_sent=2, gossip_rounds=5))
        assert type(merged) is Extended
        assert (merged.messages_sent, merged.gossip_rounds) == (3, 7)
        every = {field.name: 1 for field in dataclasses.fields(ControllerStats) if field.name != "records"}
        doubled = ControllerStats(**every).merge(ControllerStats(**every))
        assert all(getattr(doubled, name) == 2 for name in every) and len(every) == 20


# =========================================================================================
# num_domains=1 golden equivalence (PR 3 / PR 4 pattern)
# =========================================================================================


class TestSingleDomainGoldenEquivalence:
    """One federated domain must reproduce the bare controller bit for bit.

    Golden numbers are the same captures as
    ``tests/test_sharding.py::TestSingleShardEquivalence`` — wrapping the
    controller in a one-domain federation adds no messages, no simulator
    events, and no timing perturbation.
    """

    def _workload(self, concurrency, chunks, events_rate=0.0):
        sim = Simulator()
        federation = Federation(sim, FederationConfig())
        domain = federation.add_domain(
            "solo", controller_config=ControllerConfig(quiescence_timeout=0.1)
        )
        nb = NorthboundAPI(domain.controller)
        pairs = []
        for index in range(concurrency):
            src = DummyMiddlebox(sim, f"src-{index}", chunk_count=chunks)
            dst = DummyMiddlebox(sim, f"dst-{index}")
            domain.register(src)
            domain.register(dst)
            pairs.append((src, dst))
        handles = [nb.move_internal(src.name, dst.name, None) for src, dst in pairs]
        if events_rate:
            for src, _ in pairs:
                src.generate_events_at_rate(events_rate, 0.05)
        for handle in handles:
            sim.run_until(handle.completed, limit=5000)
        stats = domain.controller.stats
        return (
            [handle.record.duration for handle in handles],
            stats.messages_received,
            stats.messages_sent,
            sim.executed_events,
        )

    def test_contended_workload_matches_the_golden_numbers(self):
        durations, received, sent, executed = self._workload(2, 50, events_rate=200.0)
        assert durations == [0.01658128, 0.01662128]  # 112 ns under the seed: shorter ACKs and chunks
        assert (received, sent, executed) == (412, 206, 1440)

    def test_single_move_matches_the_golden_numbers(self):
        durations, received, sent, executed = self._workload(1, 80)
        assert durations == [pytest.approx(0.01329128, abs=1e-9)]  # 112 ns under the seed: shorter ACKs and chunks
        assert (received, sent, executed) == (322, 162, 1130)


# =========================================================================================
# Delta gossip: convergence and volume as properties, dissemination as a bound
# =========================================================================================


class ScriptedWire:
    """*count* stopped domains whose digests go where the test says.

    Every ``fed_gossip`` frame a domain builds lands in ``outbox`` after a
    trip through ``Message.encode`` / ``decode``; the test then delivers,
    drops, duplicates or holds it.  Nothing is scheduled: a round happens
    when the test calls :meth:`send`, the clock moves when it runs the
    simulator.
    """

    def __init__(self, count: int, *, ttl: float = 1.0) -> None:
        self.sim = Simulator()
        self.federation = Federation(self.sim, FederationConfig(gossip=GossipConfig(ttl=ttl)))
        self.domains = [self.federation.add_domain(f"dc{index}") for index in range(count)]
        self.federation.connect_all()
        self.federation.stop()
        self.outbox: list = []
        for domain in self.domains:
            for peer, link in domain._peers.items():
                link.send = lambda message, _src=domain.name, _dst=peer: self.outbox.append(
                    (_src, _dst, Message.decode(message.encode()))
                )

    def send(self, src: int, dst: int):
        """One digest from *src* to *dst*, captured: ``(src name, dst name, frame)``."""
        self.domains[src]._send_digest(self.domains[dst].name)
        return self.outbox.pop()

    def deliver(self, frame) -> None:
        src, dst, message = frame
        self.federation.domains[dst]._on_peer_message(src, message)

    def clean_round(self) -> int:
        """Every ordered pair exchanges one digest, delivered at once; returns the entries carried."""
        carried = 0
        for src in range(len(self.domains)):
            for dst in range(len(self.domains)):
                if src != dst:
                    frame = self.send(src, dst)
                    carried += entries_in(frame)
                    self.deliver(frame)
        return carried

    def views(self):
        return [tuple(fingerprint(versioned) for _, versioned, _ in domain._sections) for domain in self.domains]


def entries_in(frame) -> int:
    fields = messages.parse(frame[2])
    return sum(len(fields[section]) for section in SECTIONS)


#: Clean all-to-all rounds the convergence property allows after an arbitrary
#: schedule.  Round 1 delivers every entry still pending at its author (it
#: sends to everyone) and shows every receiver a summary; a receiver whose
#: last entries the sender had already heard forgets it there and then.  The
#: full maps travel in round 2 (with the ask) and, where the asked side holds
#: entries the asker lacks, back in round 3 — by which time every pair has
#: compared summaries with nothing in flight, so round 3 ends equal.  Each of
#: the three takes as many rounds as a map needs frames (``MAX_SECTION_ENTRIES``
#: per section and frame; the machine also runs with a cap of 3).
CLEAN_ROUNDS = 3


class DeltaGossipMachine(RuleBasedStateMachine):
    """Three to five replicas, local puts and tombstones, and a wire that
    drops, duplicates, or holds and reorders digests.  The oracle is the
    protocol this one replaced, kept here: every authored entry folded through
    plain full-digest ``merge``.  The TTL's standing assumption is modelled,
    not tested: nothing is held on the wire across a TTL (``age`` settles the
    replicas, then discards what is still held), and a retired key is not
    authored again.
    """

    TTL = 1.0
    KEYS = [f"k{index}" for index in range(6)]

    @initialize(count=st.integers(3, 5), cap=st.sampled_from([3, MAX_SECTION_ENTRIES]))
    def build(self, count, cap):
        domain_module.MAX_SECTION_ENTRIES = cap
        self.frames_per_map = -(-len(self.KEYS) // cap)
        self.wire = ScriptedWire(count, ttl=self.TTL)
        self.count = count
        self.held: list = []
        self.retired: set = set()
        self.oracle = []  # per replica, per section: the entries it authored, full-digest merged in settle()
        for domain in self.wire.domains:
            self.oracle.append({name: VersionedMap() for name in SECTIONS})
            for name, versioned, _ in domain._sections:  # what construction and peering authored
                self.oracle[-1][name].merge(versioned.digest(), 0.0)

    def _author(self, replica: int, section: str, key: str, value: dict) -> None:
        domain = self.wire.domains[replica]
        versioned = {name: versioned for name, versioned, _ in domain._sections}[section]
        entry = versioned.put(key, domain.name, value, self.wire.sim.now)
        self.oracle[replica][section].merge([entry.as_wire()], 0.0)

    @rule(replica=st.integers(0, 4), key=st.sampled_from(KEYS), section=st.sampled_from(["liveness", "ownership"]))
    def put(self, replica, key, section):
        if replica < self.count and (section, key) not in self.retired:
            self._author(replica, section, key, {"domain": f"dc{replica}", "alive": True})

    @rule(replica=st.integers(0, 4), key=st.sampled_from(KEYS))
    def tombstone(self, replica, key):
        if replica < self.count:
            self.retired.add(("liveness", key))
            self._author(replica, "liveness", key, {"domain": f"dc{replica}", "alive": False})

    @rule(src=st.integers(0, 4), dst=st.integers(0, 4), fate=st.sampled_from(["deliver", "drop", "duplicate", "hold"]))
    def send(self, src, dst, fate):
        if src >= self.count or dst >= self.count or src == dst:
            return
        frame = self.wire.send(src, dst)
        if fate == "hold":
            self.held.append(frame)
        for _ in range({"deliver": 1, "duplicate": 2}.get(fate, 0)):
            self.wire.deliver(frame)

    @rule(index=st.integers(0, 50))
    def release(self, index):
        if self.held:
            self.wire.deliver(self.held.pop(index % len(self.held)))  # any order: reordering

    @rule(dt=st.floats(1e-4, 5e-3))
    def advance(self, dt):
        self.wire.sim.run(until=self.wire.sim.now + dt)

    @rule()
    def age(self):
        """Settle, then let every tombstone authored so far pass its deadline."""
        self.settle()
        self.held.clear()
        self.wire.sim.run(until=self.wire.sim.now + self.TTL + 1e-3)
        self.settle()

    def settle(self):
        for _ in range(CLEAN_ROUNDS * self.frames_per_map):
            self.wire.clean_round()
        assert self.wire.federation.converged()
        views = self.wire.views()
        assert all(view == views[0] for view in views[1:])
        # The old protocol: everyone pushes its whole maps to everyone (twice: a
        # full mesh needs one push, the second shows nothing changes any more).
        for _ in range(2):
            for source in self.oracle:
                for target in self.oracle:
                    for name in SECTIONS:
                        target[name].merge(source[name].digest(), 0.0)
        for oracle in self.oracle:
            oracle["liveness"].expire(self.wire.sim.now, self.TTL)
        assert views[0] == tuple(fingerprint(self.oracle[0][name]) for name in SECTIONS)
        assert self.wire.clean_round() == 0  # and a converged federation has nothing left to say

    def teardown(self):
        try:
            if hasattr(self, "wire"):
                self.settle()
        finally:
            domain_module.MAX_SECTION_ENTRIES = MAX_SECTION_ENTRIES


#: A fifth of the loaded profile: 20 schedules in tier-1, 200 under the
#: chaos job's ``--hypothesis-profile=ci`` (tests/conftest.py).
DeltaGossipMachine.TestCase.settings = settings(max_examples=settings.default.max_examples // 5, deadline=None)
TestDeltaGossipConverges = DeltaGossipMachine.TestCase


def test_a_resync_ask_on_a_full_frame_is_not_dropped():
    """A schedule hypothesis found: dc2 misses dc0's three membership entries twice,
    so it forgets its marks and asks — on the first frame of its own resend, which
    a map of exactly ``cap`` entries fills.  The receiver skipped a full frame's
    summary *and its ask*, dc2 asked again every round, and nobody ever resent."""
    machine = DeltaGossipMachine()
    machine.build(count=3, cap=3)
    machine.send(src=0, dst=1, fate="deliver")
    machine.send(src=0, dst=2, fate="drop")
    machine.send(src=1, dst=2, fate="drop")
    machine.teardown()  # settles within CLEAN_ROUNDS x frames_per_map rounds, or fails


class TestGossipVolume:
    """What a round costs is a function of what changed since the peer's last digest:
    entries carried <= entries installed since (and not learned from that peer);
    frame bytes = a constant + those entries."""

    def _settled_pair(self, flows: int) -> ScriptedWire:
        wire = ScriptedWire(2)
        source = DummyMiddlebox(wire.sim, "mb")
        wire.domains[0].claim_flows([source.flow_key_for(index) for index in range(flows)])
        rounds = 1
        while wire.clean_round():
            rounds += 1
        # One frame carries at most MAX_SECTION_ENTRIES per section; then one round in which nothing is said.
        assert rounds == -(-flows // MAX_SECTION_ENTRIES) + 1
        assert wire.federation.converged() and len(wire.domains[1].directory.map.items()) == flows
        return wire

    def test_a_zero_change_digest_is_the_same_size_at_50_and_at_2000_resident_flows(self):
        sizes = {}
        for flows in (50, 2000):
            wire = self._settled_pair(flows)
            frame = wire.send(0, 1)
            assert entries_in(frame) == 0
            sizes[flows] = len(frame[2].encode()) - len(str(frame[2].xid))  # the frame's own number aside
        assert sizes[50] == sizes[2000] < 300

    @settings(max_examples=20, deadline=None)
    @given(changes=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 59)), max_size=30))
    def test_after_k_changes_a_round_carries_at_most_k_entries_per_peer(self, changes):
        wire = self._settled_pair(40)
        source = DummyMiddlebox(wire.sim, "mb")
        for author, flow in changes:  # re-claims of resident flows and claims of new ones, from either side
            wire.domains[author].claim_flows([source.flow_key_for(flow)])
        authored = [len({flow for author, flow in changes if author == side}) for side in (0, 1)]
        for side in (0, 1):
            frame = wire.send(side, 1 - side)
            assert entries_in(frame) <= authored[side] <= len(changes)  # fewer when the peer's claim already beat ours
            wire.deliver(frame)
        assert entries_in(wire.send(0, 1)) == entries_in(wire.send(1, 0)) == 0  # what it learned is not echoed
        assert wire.federation.converged()

    def test_a_lost_delta_costs_the_side_that_holds_the_news_its_map_exactly_once(self):
        wire = self._settled_pair(40)
        wire.domains[0].claim_flows([DummyMiddlebox(wire.sim, "mb").flow_key_for(99)])
        assert entries_in(wire.send(0, 1)) == 1  # ...and the wire loses it
        carried = []
        for _ in range(4):
            frames = [wire.send(0, 1), None]
            wire.deliver(frames[0])
            frames[1] = wire.send(1, 0)
            wire.deliver(frames[1])
            carried.append([entries_in(frame) for frame in frames])
            for frame in frames:  # only the map that differs is resynchronised
                fields = messages.parse(frame[2])
                assert fields["membership"] == fields["liveness"] == []
        # dc1 sees the mismatch first and asks; all it holds came from dc0, so it has
        # nothing to send back, and dc0 answers with its 41.
        assert carried == [[0, 0], [41, 0], [0, 0], [0, 0]]
        assert wire.federation.converged() and len(wire.domains[1].directory.map.items()) == 41


def dissemination_bound(domains: int, fanout: int) -> int:
    """Rounds within which push gossip informs all *domains* (Pittel's two
    phases, as Femminella et al. and De Florio & Blondia use them): the
    informed set grows by a factor ``1 + fanout`` per round, then the last
    uninformed peers are hit like coupons, ``ln N / fanout`` rounds in
    expectation — doubled for the tail — plus the round the fact waits for
    and the one it travels in."""
    return math.ceil(math.log(domains) / math.log(1 + fanout)) + math.ceil(2 * math.log(domains) / fanout) + 2


class TestDissemination:
    @pytest.mark.parametrize("fanout", (1, 2, 3))
    @pytest.mark.parametrize("domains", (3, 5, 8))
    def test_one_fact_reaches_every_domain_within_the_push_gossip_bound(self, domains, fanout):
        interval, latency = 2e-3, 1e-4
        for seed in range(int(os.environ.get("CHAOS_SEEDS", "4"))):
            sim = Simulator()
            gossip = GossipConfig(fanout=fanout, interval=interval, ttl=0.5, seed=seed)
            federation = Federation(sim, FederationConfig(gossip=gossip, suspicion_timeout=10.0))
            for index in range(domains):
                federation.add_domain(f"dc{index}")
            federation.connect_all(latency=latency)
            federation.run_until_converged(max_rounds=100)
            start = sim.now
            federation.domains["dc0"].gossip.liveness.put("fact", "dc0", {"domain": "dc0", "alive": True}, start)
            sim.run(until=start + dissemination_bound(domains, fanout) * interval + 2 * latency)
            uninformed = [name for name, domain in federation.domains.items() if domain.gossip.liveness.value_of("fact") is None]
            assert not uninformed, (seed, uninformed)


class TestTombstoneExpiry:
    """The TTL is a property of the entry: every replica drops a tombstone at
    ``authored + ttl`` on the shared clock, and nothing brings it back."""

    TTL, INTERVAL = 0.05, 2e-3

    def _federation_with_a_tombstone(self):
        sim = Simulator()
        gossip = GossipConfig(fanout=2, interval=self.INTERVAL, ttl=self.TTL, seed=5)
        federation = Federation(sim, FederationConfig(gossip=gossip, suspicion_timeout=10.0))
        for index in range(3):
            federation.add_domain(f"dc{index}", controller_config=FAST)
        federation.connect_all(latency=2e-3)
        federation.domains["dc0"].register(DummyMiddlebox(sim, "mb"))
        federation.run_until_converged(max_rounds=20)
        federation.domains["dc0"].controller.declare_dead("mb")
        return sim, federation, sim.now

    def _holders(self, federation):
        return [name for name, domain in federation.domains.items() if domain.gossip.liveness.value_of("mb") is not None]

    def test_gone_everywhere_one_interval_after_the_deadline_with_converged_true_across_it(self):
        sim, federation, authored = self._federation_with_a_tombstone()
        sim.run(until=authored + self.TTL / 2)
        tombstones = {name: dict(domain.gossip.liveness.items())["mb"] for name, domain in federation.domains.items()}
        assert all(entry.value["alive"] is False and entry.at == authored for entry in tombstones.values())
        polls = 0
        while sim.now < authored + self.TTL + 3 * self.INTERVAL:  # every 0.1 ms, in and out of phase with the ticks
            sim.run(until=sim.now + 1e-4)
            assert federation.converged(), sim.now
            polls += 1
            if sim.now > authored + self.TTL + self.INTERVAL:
                assert self._holders(federation) == []
        assert polls > 250
        sim.run(until=authored + 20 * self.TTL)  # the parent still held it here, stamp tracking now
        assert self._holders(federation) == [] and federation.converged()

    def test_neither_a_forced_resync_nor_a_digest_delayed_past_the_ttl_resurrects_it(self):
        sim, federation, authored = self._federation_with_a_tombstone()
        dc0, dc1 = federation.domains["dc0"], federation.domains["dc1"]
        sim.run(until=authored + self.TTL / 2)
        link = dc0.peer_link("dc1")
        late = messages.fed_gossip(
            "dc1", sim.now, heard=link.heard, summary=dc0.summaries(),
            membership=[], liveness=[dict(dc0.gossip.liveness.items())["mb"].as_wire()], ownership=[],
        )  # fmt: skip
        sim.run(until=authored + self.TTL + 2 * self.INTERVAL)
        assert self._holders(federation) == []
        for domain in federation.domains.values():  # everyone forgets what every peer knows: full maps next round
            for peer in domain._peers.values():
                peer.sent.clear()
        sim.run(until=sim.now + 5 * self.INTERVAL)
        assert self._holders(federation) == [] and federation.converged()
        dc1._on_peer_message("dc0", Message.decode(late.encode()))  # sent inside the TTL, arrives after it
        assert self._holders(federation) == [] and federation.converged()
        sim.run(until=sim.now + 5 * self.INTERVAL)
        assert self._holders(federation) == [] and federation.converged()
        # The stale summary in the late digest was not taken for a lost delta: nobody forgot anything.
        assert all(set(peer.sent) == set(SECTIONS) for domain in federation.domains.values() for peer in domain._peers.values())


class TestMalformedDigestsAreRefused:
    """A frame ``messages.parse`` refuses is dropped and counted; nothing
    escapes ``sim.run()``, nothing is coerced, no map changes."""

    GOOD = {"key": "b", "origin": "dc0", "version": 9, "value": {"alive": False}, "at": 0.0}
    SHAPES = {
        "no key": {"origin": "dc0", "version": 9, "value": {}, "at": 0.0},
        "null version": dict(GOOD, version=None),
        "not a dict": ["b", "dc0", 9],
        "version in a string": dict(GOOD, version="9"),  # the parent read an obituary out of it
        "numeric key, fractional version": dict(GOOD, key=7, version=7.9),  # the parent: key "7", version 7
        "boolean version": dict(GOOD, version=True),
        "version zero": dict(GOOD, version=0),
        "origin not a string": dict(GOOD, origin=0),
        "value not a dict": dict(GOOD, value=[]),
        "authoring time in a string": dict(GOOD, at="0.0"),
        "no authoring time": {name: value for name, value in GOOD.items() if name != "at"},
    }

    def _frame(self, **overrides) -> Message:
        body = {"sent_at": 0.0, "heard": 0.0, "summary": ["", "", ""]}
        body.update({section: [] for section in SECTIONS}, **overrides)
        return Message(messages.MessageType.FED_GOSSIP, mb="dc1", body=body)

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_an_ill_typed_entry_refuses_the_frame(self, shape, section):
        sim, federation = build_federation(2)
        receiver = federation.domains["dc1"]
        federation.run_until_converged(max_rounds=20)
        before = receiver.summaries()
        # Over the real channel, through sim.run(): a well-formed entry beside the bad one is not merged either.
        federation.domains["dc0"].peer_link("dc1").send(self._frame(**{section: [dict(self.GOOD, key="ok"), self.SHAPES[shape]]}))
        sim.run(until=sim.now + 0.05)
        assert receiver.frames_refused == 1 and receiver.summaries() == before
        assert all(versioned.value_of("ok") is None and versioned.value_of("b") is None for _, versioned, _ in receiver._sections)
        assert receiver.digests_received > 0 and federation.converged()  # the well-formed ones still flow

    @pytest.mark.parametrize(
        "overrides",
        [
            {"summary": ["", ""]},
            {"summary": ["", "", 3]},
            {"summary": None},
            {"sent_at": None},
            {"sent_at": True},
            {"heard": "0.0"},
            {"resync": 1},
            {"ownership": {"key": "b"}},
        ],
    )
    def test_an_ill_typed_frame_field_refuses_the_frame(self, overrides):
        with pytest.raises(ProtocolError):
            messages.parse(Message.decode(self._frame(**overrides).encode()))

    def test_the_well_typed_frame_beside_them_is_absorbed(self):
        sim, federation = build_federation(2)
        receiver = federation.domains["dc1"]
        receiver._on_peer_message("dc0", Message.decode(self._frame(liveness=[self.GOOD]).encode()))
        assert receiver.frames_refused == 0 and dict(receiver.gossip.liveness.items())["b"].version == 9
