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
import random

import pytest
from conftest import pin_ids

from repro.core import ControllerConfig, FlowPattern, MBController, NorthboundAPI
from repro.core.channel import FaultPlan, FaultProfile
from repro.core.errors import SpecError
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
    ranked_successors,
    takeover_score,
)
from repro.middleboxes import DummyMiddlebox
from repro.net import Simulator, tcp_packet
from repro.testing import ChaosMiddlebox


# =========================================================================================
# Gossip primitives
# =========================================================================================


class TestVersionedMap:
    def _digest_of(self, *entries):
        return [{"key": k, "origin": o, "version": v, "value": dict(val)} for k, o, v, val in entries]

    def test_merge_is_idempotent(self):
        target = VersionedMap()
        digest = self._digest_of(("a", "dc0", 2, {"alive": True}), ("b", "dc1", 1, {"alive": False}))
        assert sorted(target.merge(digest, now=1.0)) == ["a", "b"]
        before = target.fingerprint()
        assert target.merge(digest, now=2.0) == []  # re-merge: no winners change
        assert target.fingerprint() == before

    def test_merge_is_commutative(self):
        d1 = self._digest_of(("a", "dc0", 2, {"alive": True}), ("b", "dc2", 5, {"alive": True}))
        d2 = self._digest_of(("a", "dc1", 3, {"alive": False}), ("b", "dc1", 5, {"alive": False}))
        forward, backward = VersionedMap(), VersionedMap()
        forward.merge(d1, 1.0)
        forward.merge(d2, 2.0)
        backward.merge(d2, 1.0)
        backward.merge(d1, 2.0)
        assert forward.fingerprint() == backward.fingerprint()

    def test_equal_versions_break_ties_towards_the_smaller_origin(self):
        left, right = VersionedMap(), VersionedMap()
        entry_a = self._digest_of(("k", "dc0", 7, {"alive": True}))
        entry_b = self._digest_of(("k", "dc1", 7, {"alive": False}))
        left.merge(entry_a, 1.0)
        left.merge(entry_b, 2.0)
        right.merge(entry_b, 1.0)
        right.merge(entry_a, 2.0)
        assert left.fingerprint() == right.fingerprint()
        assert left.get("k").origin == "dc0"  # smaller origin wins the tie

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
        assert "live" in versioned and "dead" not in versioned

    def test_exact_re_receipt_refreshes_the_tombstone_stamp(self):
        versioned = VersionedMap()
        versioned.put("dead", "dc0", {"alive": False}, 0.0)
        digest = versioned.digest()
        versioned.merge(digest, now=0.2)  # same (version, origin): refresh only
        assert versioned.expire(now=0.4, ttl=0.25) == []  # stamp moved to 0.2
        assert versioned.expire(now=0.5, ttl=0.25) == ["dead"]


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
        for shuffled in itertools.permutations(candidates):
            assert elect_successor("dc2", list(shuffled)) == winner

    def test_the_dead_domain_never_elects_itself(self):
        assert elect_successor("dc2", ["dc2"]) is None
        assert elect_successor("dc2", []) is None
        assert elect_successor("dc2", ["dc2", "dc0"]) == "dc0"

    def test_ranked_successors_lead_with_the_winner(self):
        candidates = ["dc0", "dc1", "dc3"]
        ranking = ranked_successors("dc2", candidates)
        assert ranking[0] == elect_successor("dc2", candidates)
        assert sorted(ranking) == sorted(candidates)
        assert [takeover_score("dc2", d) for d in ranking] == sorted(
            takeover_score("dc2", d) for d in candidates
        )


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
        replica.merge(authoritative.digest(), 0.0)
        moved = authoritative.reassign("dc2", "dc0", now=1.0)
        assert len(moved) == 5
        assert authoritative.tokens_owned_by("dc2") == []
        replica.merge(authoritative.digest(), 2.0)  # higher versions win
        assert replica.fingerprint() == authoritative.fingerprint()
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
    def test_parse_describe_and_validation(self):
        spec = TransferSpec.parse({"mode": "precopy", "max_rounds": 2, "wan_pacing": 1.5})
        assert spec.wan_pacing == 1.5
        assert "wan1.5" in spec.describe()
        assert "wan" not in TransferSpec.precopy().describe()
        with pytest.raises(ValueError):
            TransferSpec.precopy(wan_pacing=-0.1)
        with pytest.raises(SpecError):
            TransferSpec.parse({"wan_spacing": 1.0})

    def _timed_move(self, wan_pacing: float) -> tuple[float, int]:
        """One dirtied multi-round precopy move; returns (duration, rounds run).

        The wire counters are re-pinned per run: message sizes embed the
        xid/event-id digits, so durations are only comparable between runs
        that start from identical counters.  The source uses the base
        ``ProcessingCosts`` so its chunk export is slow enough for the live
        writes to land inside the dirty-tracking window — the delta round
        (the one pacing schedules) must actually run.
        """
        pin_ids()
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
        pin_ids()
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
        assert durations == [0.016581392, 0.016621392]
        assert (received, sent, executed) == (412, 206, 1440)

    def test_single_move_matches_the_golden_numbers(self):
        durations, received, sent, executed = self._workload(1, 80)
        assert durations == [pytest.approx(0.013291392, abs=1e-9)]
        assert (received, sent, executed) == (322, 162, 1130)
