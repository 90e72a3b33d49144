"""The chaos matrix: transfer guarantees under control-plane misbehaviour.

Every scenario wraps a complete move-under-load in the deterministic seeded
chaos harness (:mod:`repro.testing.chaos`) and checks four invariants:

1. every operation terminates (completed or cleanly failed + finalized);
2. no lost updates under ``loss_free`` (exactly-once, even with
   retransmissions);
3. no reordering under ``order_preserving`` (traffic re-routed mid-move);
4. state conservation — no leaked holds, queued packets, dirty tracking, or
   orphaned ``(op_id, round)`` install tags, and aborted moves leave the
   source authoritative.

The default matrix runs guarantee (3) x mode (2) x shards (1/4) x fault
profile (4) x ``CHAOS_SEEDS`` seeds (default 5) = 240 seeded scenarios; the
CI chaos job raises the seed count for a deeper fixed-seed sweep.

Topology is a further axis, not a second program: ``run_federated_chaos`` runs
the *same* scenario — every ``ChaosSpec`` field included — inside a
three-domain federation one domain of which dies, and the four invariants are
the auditor functions exported from :mod:`repro.testing`, unit-tested here on
hand-built journals.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.federation import Federation
from repro.middleboxes import NAT
from repro.net import Simulator, tcp_packet
from repro.testing import (
    ChaosMiddlebox,
    ChaosSpec,
    audit_conservation,
    audit_journals,
    audit_source_retention,
    lost_updates,
    run_chaos,
    run_federated_chaos,
    strictly_increasing,
)
from repro.federation.domain import FederatedDomain
from repro.testing.chaos import DST, MOVE_AT, SRC

GUARANTEES = ("no_guarantee", "loss_free", "order_preserving")
MODES = ("snapshot", "precopy")
SHARD_COUNTS = (1, 4)
PROFILES = ("clean", "lossy", "jittery", "chaotic")

#: Seeds per matrix cell: 3 x 2 x 2 x 4 x SEEDS scenarios in total.  The
#: default (5 -> 240 scenarios) keeps tier-1 fast; the CI chaos job raises it.
SEEDS = int(os.environ.get("CHAOS_SEEDS", "5"))

#: Seeds per liveness sweep (``7919 * i + 1`` for ``i`` below it; see
#: :class:`TestLivenessSweeps`).  The default 0 skips the sweeps, so tier-1
#: runs only their pinned cells; the CI chaos job runs 400.
SWEEP_SEEDS = int(os.environ.get("LIVENESS_SWEEP_SEEDS", "0"))
chaos_tier = pytest.mark.skipif(SEEDS < 12, reason="the chaos job's tier: CHAOS_SEEDS >= 12")


def liveness_cell(seed: int, profile: str) -> ChaosSpec:
    """ROADMAP 3(a)'s cell: the destination dies after pre-copy round 1, the
    liveness sweep finds it, and the move retries on the standby."""
    return ChaosSpec(
        seed=seed,
        mode="precopy",
        profile=profile,
        kill="dst",
        kill_at_round=1,
        detect="liveness",
        standby=True,
        flows=200,
        packets=200,
        batch_size=8,
    )


#: The destination dies after pre-copy round 1 (found at once) and the move
#: retries on the standby; both double-apply (ROADMAP 3(e)).
DOUBLE_APPLY_PLAIN = ChaosSpec(
    seed=467222, guarantee="loss_free", mode="precopy", profile="lossy", kill="dst", kill_at_round=1, detect="declare", standby=True
)
DOUBLE_APPLY_FEDERATED = dataclasses.replace(DOUBLE_APPLY_PLAIN, seed=9 * 613 + 7)


@pytest.fixture
def federations(monkeypatch):
    """Every :class:`Federation` a federated chaos run stopped (its drain does), in order."""
    stopped = []
    stop = Federation.stop
    monkeypatch.setattr(Federation, "stop", lambda federation: (stopped.append(federation), stop(federation))[1])
    return stopped


def false_suspicions(federation: Federation) -> int:
    return sum(domain.false_suspicions for domain in federation.domains.values())


class TestChaosMatrix:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("guarantee", GUARANTEES)
    def test_invariants_hold_across_seeds(self, guarantee, mode, shards, profile):
        for index in range(SEEDS):
            spec = ChaosSpec(
                seed=index * 977 + 13,
                guarantee=guarantee,
                mode=mode,
                shards=shards,
                profile=profile,
            )
            result = run_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed"
            if guarantee in ("loss_free", "order_preserving"):
                assert result.lost_updates == 0

    def test_matrix_size_meets_the_issue_floor(self):
        """The default matrix runs at least 200 seeded scenarios."""
        assert len(GUARANTEES) * len(MODES) * len(SHARD_COUNTS) * len(PROFILES) * SEEDS >= 200


class TestFederatedChaosProfile:
    """Domain death under lossy inter-domain channels (PR 7 federation).

    Each scenario runs the classic move-under-load workload inside a
    3-domain federation whose WAN links carry the fault profile, crashes one
    whole domain mid-run, and checks — on top of the four classic invariants —
    that exactly one gossip-elected survivor adopted the orphan instance with
    zero lost per-flow state, re-homed the ownership directory, and that the
    survivors' gossip views converged.
    """

    @pytest.mark.parametrize("profile", PROFILES)
    def test_takeover_invariants_hold_across_seeds(self, profile):
        for index in range(SEEDS):
            spec = ChaosSpec(
                seed=index * 613 + 7,
                guarantee="loss_free",
                mode="precopy",
                profile=profile,
            )
            result = run_federated_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed"
            assert result.takeover_by is not None
            assert result.federation_converged
            assert result.lost_updates == 0

    @pytest.mark.parametrize(
        "profile, seed",
        [("lossy", 110867), ("lossy", 498898), ("chaotic", 15839), ("chaotic", 31677)],
        ids=lambda value: str(value),
    )
    def test_no_survivor_suspects_a_live_survivor(self, profile, seed, federations):
        """Seeds on which two survivors adopted the dead domain's orphan while
        suspicion counted silence in delivery: a survivor whose frames waited
        above a retransmission gap looked dead, and the views diverged.  A frame
        that arrives is evidence, so no survivor suspects another: exactly one
        adopter, and no obituary of a live domain to heal."""
        result = run_federated_chaos(ChaosSpec(seed=seed, mode="precopy", profile=profile))
        result.assert_ok()  # exactly one elected adopter
        assert result.outcome == "completed" and result.federation_converged and result.lost_updates == 0
        assert false_suspicions(federations[-1]) == 0

    @pytest.mark.parametrize("profile", ("lossy", "chaotic"))
    @pytest.mark.parametrize("mode", MODES)
    def test_order_preserving_reroute_inside_the_federation(self, mode, profile):
        """Reachable since the federated scenario is the one scenario program:
        an ``order_preserving`` move re-routes live traffic mid-transfer (its
        packet holds see packets) while a domain dies on a faulted WAN."""
        for index in range(SEEDS):
            spec = ChaosSpec(seed=index * 613 + 7, guarantee="order_preserving", mode=mode, profile=profile)
            assert spec.reroute_enabled
            result = run_federated_chaos(spec)
            result.assert_ok()  # covers reordering at the owner
            assert result.outcome == "completed"
            assert result.takeover_by is not None
            assert result.federation_converged
            assert result.lost_updates == 0

    @pytest.mark.parametrize("profile", ("jittery", "lossy", "chaotic"))
    @pytest.mark.parametrize("detect", ("declare", "liveness"))
    def test_destination_kill_with_standby_and_domain_death_in_one_run(self, detect, profile):
        """dst-kill at round 1 retried on the standby *and* a domain death, on a
        WAN that delays (``jittery``, the profile the benchmark runs its kill
        scenarios on) or also drops frames.  Seed 5524 (index 9, ``lossy``,
        ``declare``) is pinned as a strict xfail in
        :meth:`TestAcceptanceScenarios.test_a_final_get_served_after_the_failed_move_s_cleanup`."""
        for index in range(SEEDS):
            spec = ChaosSpec(
                seed=index * 613 + 7,
                guarantee="loss_free",
                mode="precopy",
                profile=profile,
                kill="dst",
                kill_at_round=1,
                detect=detect,
                standby=True,
            )
            if spec == DOUBLE_APPLY_FEDERATED:
                continue
            result = run_federated_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed"
            assert result.retried_on_standby
            assert result.takeover_by is not None
            assert result.federation_converged
            assert result.lost_updates == 0

    def test_federated_move_over_a_faulted_data_plane(self):
        wire_losses = 0
        for index in range(min(SEEDS, 4)):
            spec = ChaosSpec(
                seed=index * 613 + 7,
                guarantee="order_preserving",
                mode="precopy",
                profile="lossy",
                data_profile="lossy-data-plane",
                packets=150,
                interval=1e-4,
            )
            result = run_federated_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed" and result.takeover_by is not None
            assert result.lost_updates == 0 and result.data_abandoned == 0
            wire_losses += result.data_wire_losses
        assert wire_losses > 0, "the data-plane fault plan never fired"

    @pytest.mark.parametrize(
        "flows, profile, cpu_budget",
        [
            (200, "jittery", 1.0),  # 0.15 s measured (3.3 s with every round pushing the whole maps)
            pytest.param(2000, "jittery", 5.0, marks=chaos_tier),  # 0.4-1.0 s
            pytest.param(2000, "lossy", 5.0, marks=chaos_tier),  # 0.4-1.0 s
            pytest.param(2000, "chaotic", 5.0, marks=chaos_tier),  # 0.4-1.0 s
        ],
    )
    def test_takeover_at_scale(self, flows, profile, cpu_budget):
        """Digest size follows what changed, not what is resident: the same
        scenario at 200 and at 2 000 flows per domain, at 2 000 also on a WAN
        that drops frames.  A re-homing queues ~20 ms of frames on the WAN;
        while suspicion counted silence in *delivery*, a survivor whose frames
        waited behind one retransmission looked dead (33 lost updates on
        ``lossy`` and ``chaotic``).  The budget is 5x the measured CPU time."""
        spec = ChaosSpec(seed=7, guarantee="loss_free", mode="precopy", profile=profile, flows=flows, packets=40)
        started = time.process_time()
        result = run_federated_chaos(spec)
        elapsed = time.process_time() - started
        result.assert_ok()  # the four invariants, exactly one adopter, the orphan and the directory re-homed
        assert result.outcome == "completed" and result.lost_updates == 0
        assert result.takeover_by is not None and result.federation_converged
        assert result.gossip_rounds < 1000  # converged in well under a simulated second of rounds
        assert elapsed < cpu_budget, f"{flows} flows took {elapsed:.2f} s of CPU"

    def test_federated_runs_are_seed_deterministic(self):
        spec = ChaosSpec(seed=29, guarantee="loss_free", mode="precopy", profile="chaotic")
        first = run_federated_chaos(spec)
        second = run_federated_chaos(spec)
        assert first.executed_events == second.executed_events
        assert first.settled_at == second.settled_at
        assert (first.messages, first.drops, first.retransmits) == (
            second.messages,
            second.drops,
            second.retransmits,
        )
        assert first.takeover_by == second.takeover_by


class TestTopologyBlindness:
    """The workload cannot tell which topology it runs in.

    On the clean profile the same spec under one controller and inside the
    three-domain federation (gossip, a domain death and a takeover going on
    around it) must produce the same move, bit for bit: outcome, deliveries,
    losses, the source's and destination's final journals, the duration and
    the freeze window.  Every id is numbered by its owner, so gossip frames
    cannot shift the digits of the workload's xids.
    """

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("guarantee", GUARANTEES)
    def test_same_spec_same_move_under_both_topologies(self, guarantee, mode, shards):
        spec = ChaosSpec(seed=5, guarantee=guarantee, mode=mode, shards=shards, profile="clean")
        plain = run_chaos(spec)
        federated = run_federated_chaos(spec)
        plain.assert_ok()
        federated.assert_ok()
        assert federated.takeover_by is not None and plain.takeover_by is None
        assert plain.outcome == federated.outcome == "completed"
        assert plain.delivered == federated.delivered
        assert plain.lost_updates == federated.lost_updates
        for name in (SRC, DST):
            assert plain.final_state[name] == federated.final_state[name]
        assert (plain.move_duration, plain.freeze_window) == (federated.move_duration, federated.freeze_window)


class TestInvariantAuditor:
    """The four invariants as pure functions, on hand-built journals."""

    SENT = {"flow-a": [1, 3, 5], "flow-b": [2, 4, 6]}

    def kinds(self, guarantee, **journals):
        held = {"flow-a": [1, 3, 5], "flow-b": [2, 4, 6], **{f"flow-{k}": v for k, v in journals.items()}}
        return [violation.invariant for violation in audit_journals(guarantee, self.SENT, held, owner="dst")]

    @pytest.mark.parametrize("guarantee", GUARANTEES)
    def test_faithful_journals_are_clean(self, guarantee):
        assert self.kinds(guarantee) == []

    def test_doubled_seq_is_one_lost_updates_violation(self):
        # Exactly-once is owed under every guarantee; under order_preserving a
        # repeat is also, necessarily, not strictly increasing.
        assert self.kinds("no_guarantee", a=[1, 3, 3, 5]) == ["lost-updates"]
        assert self.kinds("loss_free", a=[1, 3, 3, 5]) == ["lost-updates"]
        assert self.kinds("order_preserving", a=[1, 3, 3, 5]) == ["lost-updates", "reordering"]
        (violation,) = audit_journals("loss_free", self.SENT, {"flow-a": [1, 3, 3, 5], "flow-b": [2, 4, 6]}, owner="dst")
        assert "dst double-applied seqs [3] for flow-a" in str(violation)

    @pytest.mark.parametrize("guarantee", GUARANTEES)
    def test_fabricated_seq_is_one_conservation_violation_under_every_guarantee(self, guarantee):
        assert self.kinds(guarantee, b=[2, 4, 6, 99]) == ["conservation"]

    def test_missing_seq_is_a_violation_only_where_loss_is_not_legitimate(self):
        assert self.kinds("no_guarantee", a=[1, 5]) == []
        assert self.kinds("loss_free", a=[1, 5]) == ["lost-updates"]
        assert self.kinds("order_preserving", a=[1, 5]) == ["lost-updates"]
        assert self.kinds("loss_free", a=[]) == ["lost-updates"]
        assert lost_updates(self.SENT, {"flow-a": [1, 5]}) == 4  # one of flow-a's, all of flow-b's

    def test_swapped_seqs_are_a_violation_only_under_order_preserving(self):
        assert self.kinds("no_guarantee", b=[2, 6, 4]) == []
        assert self.kinds("loss_free", b=[2, 6, 4]) == []
        assert self.kinds("order_preserving", b=[2, 6, 4]) == ["reordering"]

    def test_violations_come_per_flow_in_key_order_then_check_order(self):
        kinds = self.kinds("order_preserving", a=[3, 1], b=[2, 2, 4, 6, 7])
        assert kinds == ["lost-updates", "reordering", "lost-updates", "conservation", "reordering"]

    def test_strictly_increasing_is_strict(self):
        assert strictly_increasing([]) and strictly_increasing([7]) and strictly_increasing([1, 2, 9])
        assert not strictly_increasing([1, 1]) and not strictly_increasing([2, 1])

    def test_source_retention_names_each_flow_that_lost_updates(self):
        assert audit_source_retention(self.SENT, {"flow-a": [1, 3, 5], "flow-b": [6, 4, 2, 8]}) == []
        (violation,) = audit_source_retention(self.SENT, {"flow-a": [1, 3, 5], "flow-b": [2]})
        assert violation.invariant == "conservation" and "lost 2 update(s) at the source for flow-b" in violation.detail

    def test_conservation_on_a_hand_built_instance(self):
        sim = Simulator()
        quiet, leaky = ChaosMiddlebox(sim, "quiet", flows=2), ChaosMiddlebox(sim, "leaky", flows=2)
        instances = {"quiet": quiet, "leaky": leaky}
        assert audit_conservation(instances, tag_suspects=instances) == []
        leaky.support_store.begin_dirty_tracking()
        leaky.hold_flows([leaky.flow_key_for(0)])
        details = [violation.detail for violation in audit_conservation(instances)]
        assert len(details) == 2 and all(detail.startswith("leaky") for detail in details)
        assert "packet holds" in details[0] and "dirty tracking" in details[1]


class TestMillionFlowSmokeProfile:
    """The ``million_flow_smoke`` point of the chaos matrix.

    A 10 000-flow pre-copy move — three orders of magnitude above the default
    matrix's per-scenario flow count, small enough for tier-1 — driven through
    the streaming chunk export, checked against the same four global
    invariants.  The full million-flow version of this workload lives in
    ``tests/test_state_scale.py`` behind ``RUN_SLOW``.
    """

    def test_million_flow_smoke_invariants(self):
        spec = ChaosSpec(
            seed=1337,
            guarantee="loss_free",
            mode="precopy",
            shards=4,
            profile="clean",
            batch_size=64,
            flows=10_000,
            packets=400,
            interval=5e-5,
            quiescence=0.05,
            limit=120.0,
        )
        result = run_chaos(spec)
        result.assert_ok()
        assert result.outcome == "completed"
        assert result.lost_updates == 0

    def test_million_flow_smoke_is_seed_deterministic(self):
        spec = ChaosSpec(
            seed=1337,
            guarantee="loss_free",
            mode="precopy",
            shards=4,
            profile="clean",
            batch_size=64,
            flows=2_000,
            packets=200,
            interval=5e-5,
            quiescence=0.05,
            limit=120.0,
        )
        first = run_chaos(spec)
        second = run_chaos(spec)
        assert first.executed_events == second.executed_events
        assert first.settled_at == second.settled_at


class TestAcceptanceScenarios:
    """The specific end-to-end claims of the issue's acceptance criteria."""

    def test_lossy_precopy_move_zero_lost_updates_bounded_retransmissions(self):
        """1 % drop + 2x latency jitter: loss-free pre-copy still loses nothing.

        The ``lossy`` profile is exactly the acceptance fault plan.  The move
        must complete, deliver every update exactly once, actually exercise
        the recovery machinery (messages were dropped), and keep
        retransmissions bounded — well under one retransmission per five wire
        messages.
        """
        retransmits = drops = messages = 0
        for seed in range(8):
            spec = ChaosSpec(seed=seed * 101 + 3, guarantee="loss_free", mode="precopy", profile="lossy")
            result = run_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed"
            assert result.lost_updates == 0
            retransmits += result.retransmits
            drops += result.drops
            messages += result.messages
        assert drops > 0, "the fault plan never fired; the scenario is too small"
        # Fewer retransmissions than drops is expected: cumulative CHAN_ACKs
        # recover dropped acks for free and head-of-line retransmission jumps
        # the ack over buffered tails — but the machinery must have fired.
        assert retransmits > 0, "dropped payloads were never retransmitted"
        assert retransmits < messages / 5, f"unbounded retransmissions: {retransmits}/{messages}"

    @pytest.mark.parametrize("guarantee", ("loss_free", "order_preserving"))
    def test_killing_destination_mid_round_aborts_cleanly(self, guarantee):
        """A dst death mid-precopy fails the move with no leaked holds or tags."""
        for seed in range(5):
            spec = ChaosSpec(
                seed=seed * 53 + 1,
                guarantee=guarantee,
                mode="precopy",
                profile="lossy",
                kill="dst",
                kill_at_round=1,
            )
            result = run_chaos(spec)
            result.assert_ok()  # conservation covers holds, tags, dirty tracking
            assert result.outcome == "failed"
            assert "died" in (result.error or "")

    def test_killing_source_mid_move_fails_cleanly(self):
        spec = ChaosSpec(
            seed=77, guarantee="loss_free", mode="snapshot", profile="lossy", kill="src", kill_time=2e-3
        )
        result = run_chaos(spec)
        result.assert_ok()
        assert result.outcome == "failed"

    def test_liveness_sweep_detects_silent_crash(self):
        """With heartbeats on, an undeclared kill is found by the sweep."""
        spec = ChaosSpec(
            seed=11,
            guarantee="loss_free",
            mode="snapshot",
            profile="clean",
            kill="dst",
            kill_time=2e-3,
            detect="liveness",
        )
        result = run_chaos(spec)
        result.assert_ok()
        assert result.outcome == "failed"

    @pytest.mark.parametrize("mode", MODES)
    def test_destination_death_retries_onto_standby_loss_free(self, mode):
        """With a standby registered, a dst death re-drives the move loss-free."""
        for seed in range(5):
            spec = ChaosSpec(
                seed=seed * 41 + 9,
                guarantee="loss_free",
                mode=mode,
                profile="lossy",
                kill="dst",
                kill_time=2e-3 if mode == "snapshot" else None,
                kill_at_round=1 if mode == "precopy" else None,
                standby=True,
            )
            result = run_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed"
            assert result.retried_on_standby
            assert result.lost_updates == 0

    @pytest.mark.parametrize(
        "profile, seed",
        [
            ("lossy", 364275),
            ("lossy", 1338312),
            ("lossy", 1433340),
            ("lossy", 2074779),
            ("chaotic", 364275),
            ("chaotic", 1013633),
            ("chaotic", 1742181),
            ("chaotic", 2739975),
        ],
        ids=lambda value: str(value),
    )
    def test_liveness_with_standby_under_chaotic_drops(self, profile, seed):
        """Liveness detection must not declare live instances dead when the channel drops frames.

        Each seed (``7919 * i + 1``) failed while the sweep counted silence in
        *delivery*, after a death verdict on an instance that was never
        killed.  On 364275 the live source's frames 114-137 arrived from 22.8
        to 26.7 ms, all held above the lost frame 113; the verdict fell at 27
        ms and frame 113 landed at 27.04 ms, so the updates it took from 22 ms
        on were lost with it.  A frame that arrives proves its sender alive,
        even while it waits above a gap, so none of them fails now.
        :class:`TestLivenessSweeps` runs the whole 400-seed sweep.
        """
        result = run_chaos(liveness_cell(seed, profile))
        result.assert_ok()
        assert result.outcome == "completed" and result.retried_on_standby
        assert result.lost_updates == 0

    @pytest.mark.parametrize(
        "runner, spec",
        [
            pytest.param(run_chaos, DOUBLE_APPLY_PLAIN, id="plain-467222"),
            pytest.param(run_federated_chaos, DOUBLE_APPLY_FEDERATED, id="federated-5524"),
        ],
    )
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP 3(e): the failed move's final get_perflow_delta and its transfer_end(dirty_only) reach the "
        "source together behind a lost frame; the cost-free transfer_end and releases run at once, the get's drain "
        "one scan later re-marks the flows in transfer, and the standby retry's chunk and the stale re-process "
        "event both carry the same seq (double-applied)",
    )
    def test_a_final_get_served_after_the_failed_move_s_cleanup(self, runner, spec):
        """A destination dies after round 1 and the move retries on the standby.
        Each seed double-applies one update per affected flow at parent and change alike."""
        result = runner(spec)
        result.assert_ok()
        assert result.outcome == "completed" and result.retried_on_standby and result.lost_updates == 0

    def test_same_seed_reproduces_bit_for_bit(self):
        """One seed fully determines the run: schedule, faults, and outcome."""
        spec = ChaosSpec(seed=4242, guarantee="order_preserving", mode="precopy", profile="chaotic")
        first = run_chaos(spec)
        second = run_chaos(spec)
        assert first.executed_events == second.executed_events
        assert first.settled_at == second.settled_at
        assert (first.outcome, first.delivered, first.retransmits, first.drops, first.dedup_discards) == (
            second.outcome,
            second.delivered,
            second.retransmits,
            second.drops,
            second.dedup_discards,
        )


@pytest.mark.skipif(SWEEP_SEEDS == 0, reason="the chaos job's sweep: LIVENESS_SWEEP_SEEDS=400")
class TestLivenessSweeps:
    """The two failure detectors over ``LIVENESS_SWEEP_SEEDS`` seeds ``7919 * i + 1``.

    Both read one rule, kept by the channel: a peer is alive while frames new
    to its receiver arrive.  Over 400 seeds, while they counted silence in
    delivery: the dst-kill cell failed 10 (``lossy``) / 17 (``chaotic``) runs
    with a false death verdict in 21 / 49, and the federated default cell
    adopted an orphan twice on 11 / 18 with 349 / 603 survivor-on-survivor
    suspicions.  Every count below must read 0 (≈ 55 s and ≈ 33 s at 400).
    """

    @pytest.mark.parametrize("profile", ("lossy", "chaotic"))
    def test_no_false_death_verdict_in_the_dst_kill_cell(self, profile, monkeypatch):
        verdicts = []
        declare = MBController.declare_dead
        monkeypatch.setattr(
            MBController, "declare_dead", lambda controller, name, *args: (verdicts.append(name), declare(controller, name, *args))[1]
        )
        failed, falsely_dead = [], []
        for seed in (7919 * index + 1 for index in range(SWEEP_SEEDS)):
            verdicts.clear()
            result = run_chaos(liveness_cell(seed, profile))
            if result.violations or result.outcome != "completed" or not result.retried_on_standby or result.lost_updates:
                failed.append(seed)
            if set(verdicts) - {DST}:
                falsely_dead.append(seed)
        assert (failed, falsely_dead) == ([], [])

    @pytest.mark.parametrize("profile", ("lossy", "chaotic"))
    def test_one_adopter_and_no_survivor_suspected_in_the_federated_cell(self, profile, federations):
        failed, dual, suspected = [], [], []
        for seed in (7919 * index + 1 for index in range(SWEEP_SEEDS)):
            result = run_federated_chaos(ChaosSpec(seed=seed, mode="precopy", profile=profile))
            if result.violations or result.outcome != "completed" or not result.federation_converged or result.lost_updates:
                failed.append(seed)
            if any("exactly one elected adopter" in violation.detail for violation in result.violations):
                dual.append(seed)
            if false_suspicions(federations[-1]):
                suspected.append(seed)
        assert (failed, dual, suspected) == ([], [], [])


#: Kill instants per (guarantee, mode) cell of the kill-instant sweep: one per
#: ``KILL_STEP`` from ``MOVE_AT + KILL_STEP`` to the clean run's completion.
KILL_STEP = 50e-6
KILL_POINTS = {
    ("loss_free", "snapshot"): 27,
    ("loss_free", "precopy"): 48,
    ("order_preserving", "snapshot"): 45,
    ("order_preserving", "precopy"): 70,
}
#: Which instance dies, and whether a standby takes over the move.
KILLS = {"src": ("src", False), "dst": ("dst", False), "dst+standby": ("dst", True)}


def crash_cell(guarantee: str, mode: str, **kill) -> ChaosSpec:
    """The clean cell the kill-instant sweep and the crash regressions run in."""
    return ChaosSpec(guarantee=guarantee, mode=mode, flows=10, packets=40, detect="declare", **kill)


class TestKillInstantSweep:
    """An instance may die at any instant of a move (ROADMAP item 20, grid form).

    Each cell kills the source, the destination, or the destination with a
    standby registered, at every ``KILL_STEP`` of the move, and every run must
    satisfy the four invariants.  Before a crash closed the dead endpoint's
    channel end, 55 of the 570 runs leaked (a killed destination's queued
    install re-created a packet hold or a round tag after the purge; a failed
    pre-copy left its tags on the live destination).

    The grid starts one step after ``MOVE_AT``: a kill at the move's very
    first instant leaves the live source's dirty tracking armed (ROADMAP
    3(e)(i), still open).
    """

    @pytest.mark.parametrize("kill", sorted(KILLS))
    @pytest.mark.parametrize("guarantee, mode", sorted(KILL_POINTS))
    def test_every_kill_instant_is_clean(self, guarantee, mode, kill):
        victim, standby = KILLS[kill]
        clean = run_chaos(crash_cell(guarantee, mode))
        completion = MOVE_AT + clean.move_duration
        instants = [MOVE_AT + step * KILL_STEP for step in range(1, int((completion - MOVE_AT) / KILL_STEP + 1e-6) + 1)]
        assert len(instants) == KILL_POINTS[guarantee, mode]
        dirty = {}
        for instant in instants:
            result = run_chaos(crash_cell(guarantee, mode, kill=victim, kill_time=instant, standby=standby))
            if result.violations:
                dirty[round(instant * 1e6)] = [str(violation) for violation in result.violations]
        assert dirty == {}


class TestCrashMeansStopped:
    """A crashed instance or controller stops acting: one close of its channel end."""

    @pytest.mark.parametrize("standby", (False, True), ids=("alone", "standby"))
    def test_a_killed_destination_s_queued_install_never_runs(self, standby):
        """ROADMAP 3(e)(iii): an install already on the dead agent's import lane
        ran after the crash purge and re-created a packet hold on the killed destination."""
        result = run_chaos(crash_cell("order_preserving", "snapshot", kill="dst", kill_time=1.85e-3, standby=standby))
        result.assert_ok()
        assert result.outcome == ("completed" if standby else "failed")

    def test_a_failed_pre_copy_move_releases_its_flows_at_the_live_destination(self):
        """ROADMAP 3(e)(ii): the source dies mid-move; the live destination kept
        10 orphaned (op_id, round) install tags, since only order-preserving moves released."""
        result = run_chaos(crash_cell("loss_free", "precopy", kill="src", kill_time=2.0e-3))
        result.assert_ok()
        assert result.outcome == "failed"

    def test_a_crashed_domain_s_links_re_send_nothing(self, monkeypatch):
        """ROADMAP 3(c): the dead domain's ARQ senders re-sent 13 frames per link after the crash."""
        at_crash = {}
        crash = FederatedDomain.crash

        def counted_crash(domain):
            at_crash.update({link.peer: (link, sent_by(link).retransmits) for link in domain._peers.values()})
            crash(domain)

        def sent_by(link):
            return link.channel.to_mb if link.side == "a" else link.channel.to_controller

        monkeypatch.setattr(FederatedDomain, "crash", counted_crash)
        result = run_federated_chaos(ChaosSpec(seed=0, mode="precopy", profile="lossy", flows=50, packets=40))
        result.assert_ok()
        assert sorted(at_crash) == ["chaos-dc0", "chaos-dc1"]
        assert {peer: sent_by(link).retransmits - before for peer, (link, before) in at_crash.items()} == {
            "chaos-dc0": 0,
            "chaos-dc1": 0,
        }

    def test_a_crashed_controller_declares_nothing_dead(self, monkeypatch):
        """A crashed domain's controller kept sweeping: at 8 ms it declared its own
        orphan dead and purged it from a dead process."""
        crashed = []
        crash = FederatedDomain.crash
        monkeypatch.setattr(FederatedDomain, "crash", lambda domain: (crashed.append(domain), crash(domain))[1])
        spec = ChaosSpec(
            seed=7, guarantee="loss_free", mode="precopy", profile="jittery", kill="dst", kill_at_round=1, detect="liveness", standby=True
        )
        result = run_federated_chaos(spec)
        result.assert_ok()
        assert [domain.name for domain in crashed] == ["chaos-dc2"]
        assert crashed[0].controller.stats.instances_declared_dead == 0


class TestLossyDataPlaneProfile:
    """The lossy data-plane chaos axis: live traffic over a faulted, protected path.

    Instead of synchronous delivery, every live packet crosses a real
    simulated path whose middle hop drops, corrupts, and reorders frames
    (seeded :class:`~repro.net.links.LinkFaultPlan`) and runs
    LinkGuardian-style link-local protection.  The four PR 5 invariants must
    hold unchanged — the transfer above is entitled to a data plane that
    looks loss-free and (with ``strict_order``) order-preserving.
    """

    @pytest.mark.parametrize("data_profile", ("lossy-data-plane", "reordering-data-plane"))
    @pytest.mark.parametrize("mode", MODES)
    def test_order_preserving_move_over_faulty_path(self, mode, data_profile):
        """The acceptance scenario: an order_preserving (pre-copy) move over a
        path that drops and reorders completes with 0 lost and 0 reordered
        updates, and the faults genuinely fired."""
        wire_losses = reordered = 0
        for index in range(min(SEEDS, 4)):
            spec = ChaosSpec(
                seed=index * 389 + 17,
                guarantee="order_preserving",
                mode=mode,
                profile="lossy",
                data_profile=data_profile,
                packets=150,
                interval=1e-4,
            )
            result = run_chaos(spec)
            result.assert_ok()  # covers lost updates AND reordering at the owner
            assert result.outcome == "completed"
            assert result.lost_updates == 0
            assert result.data_abandoned == 0
            wire_losses += result.data_wire_losses
            reordered += result.data_reordered
        assert wire_losses + reordered > 0, "the data-plane fault plan never fired"

    def test_loose_order_protection_still_loss_free(self):
        """strict_order=False trades ordering for latency: repaired losses
        arrive late, which loss_free must tolerate (exactly-once, any order)."""
        for index in range(min(SEEDS, 3)):
            spec = ChaosSpec(
                seed=index * 211 + 5,
                guarantee="loss_free",
                mode="snapshot",
                profile="clean",
                data_profile="reordering-data-plane",
                data_strict_order=False,
                packets=120,
                interval=1e-4,
            )
            result = run_chaos(spec)
            result.assert_ok()
            assert result.outcome == "completed"
            assert result.lost_updates == 0

    def test_data_plane_chaos_is_seed_deterministic(self):
        spec = ChaosSpec(
            seed=99,
            guarantee="order_preserving",
            mode="precopy",
            profile="lossy",
            data_profile="lossy-data-plane",
            packets=100,
            interval=1e-4,
        )
        first = run_chaos(spec)
        second = run_chaos(spec)
        assert first.executed_events == second.executed_events
        assert first.settled_at == second.settled_at
        assert (first.data_frames, first.data_wire_losses, first.data_retransmits, first.data_reordered) == (
            second.data_frames,
            second.data_wire_losses,
            second.data_retransmits,
            second.data_reordered,
        )


class TestFailoverAppUnderChaos:
    """The rewritten failover app: pre-cloned standby + loss-free replay."""

    def _build(self):
        sim = Simulator()
        controller = MBController(
            sim,
            ControllerConfig(quiescence_timeout=0.2, heartbeat_interval=1e-3, liveness_timeout=4e-3),
        )
        northbound = NorthboundAPI(controller)
        primary = NAT(sim, "nat-primary")
        standby = NAT(sim, "nat-standby")
        controller.register(primary)
        controller.register(standby)
        return sim, controller, northbound, primary, standby

    def test_failover_recovers_onto_standby_with_loss_free_replay(self):
        from repro.apps import FailureRecoveryApp

        sim, controller, northbound, primary, standby = self._build()
        app = FailureRecoveryApp(sim, northbound, protected_mb="nat-primary", standby_mb="nat-standby")
        sim.run_until(app.arm())
        routing_calls = []

        def update_routing():
            routing_calls.append(sim.now)
            return sim.timeout(1e-4)

        app.enable_auto_failover(update_routing)
        # Phase 1: connections establish mappings; the background sync flushes
        # them to the standby as they appear.
        for index in range(6):
            sim.schedule(1e-4 * index, primary.receive, tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443), 1)
        sim.run(until=0.02)
        assert app.events_seen == 6
        assert app.sync_writes > 0
        presynced_before_kill = len(app._synced)
        assert presynced_before_kill == 6
        # Phase 2: a late burst of mappings, then the primary dies before the
        # background sync window can flush them — the loss-free replay must
        # deliver exactly that delta during recovery.
        for index in range(6, 9):
            primary.receive(tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443), 1)
        sim.run(until=sim.now + 4e-4)  # events reach the app; sync window still open
        controller.kill("nat-primary")  # declared dead before the sync flushes
        sim.run(until=sim.now + 0.2)
        assert app.auto_recovery is not None and app.auto_recovery.done
        report = app.auto_recovery.result
        assert routing_calls, "recovery never flipped routing"
        assert report.details["mappings_replayed"] >= 3
        assert report.details["mappings_presynced"] >= presynced_before_kill
        assert report.details["mappings_replayed"] + report.details["mappings_presynced"] == 9
        # Loss-free: every shadowed mapping is usable at the standby, keeping
        # its original external port.
        originals = {
            (mapping.internal_ip, mapping.internal_port): mapping.external_port
            for _, mapping in primary.support_store.items()
        }
        assert len(originals) == 9
        for index in range(9):
            result = standby.process_packet(tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443))
            assert result.packet.tp_src == originals[(f"10.0.0.{index + 1}", 6000 + index)]

    def test_fully_synced_standby_failover_is_pure_reroute(self):
        from repro.apps import FailureRecoveryApp

        sim, controller, northbound, primary, standby = self._build()
        app = FailureRecoveryApp(sim, northbound, protected_mb="nat-primary", standby_mb="nat-standby")
        sim.run_until(app.arm())
        app.enable_auto_failover(lambda: sim.timeout(1e-4))
        for index in range(5):
            sim.schedule(1e-4 * index, primary.receive, tcp_packet(f"10.0.1.{index + 1}", "8.8.8.8", 7000 + index, 443), 1)
        sim.run(until=0.05)  # everything synced in the background
        controller.kill("nat-primary")
        sim.run(until=sim.now + 0.2)
        report = app.auto_recovery.result
        assert report.details["mappings_replayed"] == 0
        assert report.details["mappings_presynced"] == 5
