"""Differential equivalence matrix: Simulator vs RealtimeRuntime, same observables.

Each test runs one move-under-load scenario on the deterministic simulator
and on the same kernel paced by the wall clock and asserts identical observable
outcomes via ``tests/equivalence.py`` — final state maps,
per-guarantee invariants, operation outcomes.  Timings are deliberately not
compared (see the harness's module docstring).
"""

from __future__ import annotations

import pytest

from repro.runtime import RuntimeConfig
from repro.testing import ChaosSpec, run_federated_chaos, strictly_increasing

from equivalence import DST, SRC, compare_results, run_equivalence

GUARANTEES = ("no_guarantee", "loss_free", "order_preserving")
MODES = ("snapshot", "precopy")
SHARDS = (1, 4)


def spec_for(guarantee: str, mode: str, shards: int, **overrides) -> ChaosSpec:
    """A compact clean-profile scenario: 6 flows, 24 live packets, one move."""
    defaults = dict(
        seed=11,
        guarantee=guarantee,
        mode=mode,
        shards=shards,
        profile="clean",
        flows=6,
        packets=24,
        limit=5.0,
    )
    defaults.update(overrides)
    return ChaosSpec(**defaults)


class TestEquivalenceMatrix:
    """guarantee x mode x shards: observables must match across runtimes."""

    @pytest.mark.parametrize("shards", SHARDS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("guarantee", GUARANTEES)
    def test_matrix(self, guarantee: str, mode: str, shards: int) -> None:
        run_equivalence(spec_for(guarantee, mode, shards)).assert_ok()


class TestEquivalenceObservables:
    """Spot checks that the harness compares what it claims to compare."""

    def test_loss_free_owner_holds_every_delivered_seq_on_both(self):
        report = run_equivalence(spec_for("loss_free", "snapshot", 1))
        report.assert_ok()
        for result in (report.simulated, report.realtime):
            owner = report.spec and result.final_state[DST]
            total = sum(len(seqs) for seqs in owner.values())
            assert total == result.delivered
            assert result.outcome == "completed"

    def test_source_is_empty_after_completed_move_on_both(self):
        report = run_equivalence(spec_for("loss_free", "precopy", 2))
        report.assert_ok()
        for result in (report.simulated, report.realtime):
            assert sum(len(seqs) for seqs in result.final_state[SRC].values()) == 0

    def test_order_preserving_with_reroute_matches(self):
        # Reroute mid-transfer exercises the packet-hold path on both runtimes.
        report = run_equivalence(spec_for("order_preserving", "snapshot", 1, reroute=True))
        report.assert_ok()
        for result in (report.simulated, report.realtime):
            for flows in result.final_state.values():
                for seqs in flows.values():
                    assert strictly_increasing(seqs)

    def test_seed_variation_stays_equivalent(self):
        for seed in (1, 2, 3):
            run_equivalence(spec_for("loss_free", "snapshot", 2, seed=seed)).assert_ok()

    def test_faulted_profiles_are_rejected(self):
        with pytest.raises(ValueError, match="clean fault profile"):
            run_equivalence(spec_for("loss_free", "snapshot", 1, profile="lossy"))

    def test_report_surfaces_mismatches_not_exceptions(self):
        report = run_equivalence(spec_for("no_guarantee", "snapshot", 1))
        report.assert_ok()  # lists the mismatches when it trips
        assert report.mismatches == []
        # Forge a mismatch to prove assert_ok actually trips on one.
        report.mismatches.append("forged")
        with pytest.raises(AssertionError, match="forged"):
            report.assert_ok()


class TestFederatedEquivalence:
    """Topology is an axis of the differential harness too.

    ``run_federated_chaos`` takes the ``runtime=`` argument ``run_chaos`` has,
    so the three-domain scenario — gossip rounds, a domain crash, suspicion,
    election and takeover, all timer-driven — runs on the wall clock and is
    compared through the same :func:`compare_results` (which needs no
    parameter for it: it compares two ``ChaosResult``s, whoever produced them).
    Stable over 20 consecutive runs of this class when it was added.
    """

    @pytest.mark.parametrize(
        "guarantee, mode, shards",
        [("loss_free", "precopy", 1), ("order_preserving", "snapshot", 4), ("no_guarantee", "precopy", 4)],
    )
    def test_three_domain_scenario_matches_across_clocks(self, guarantee, mode, shards):
        spec = spec_for(guarantee, mode, shards)
        simulated = run_federated_chaos(spec)
        runtime = RuntimeConfig(mode="realtime").create()
        try:
            realtime = run_federated_chaos(spec, runtime=runtime)
        finally:
            close_report = runtime.close()
        compare_results(spec, simulated, realtime).assert_ok()
        assert close_report["processes_leaked"] == 0
        for result in (simulated, realtime):
            assert result.outcome == "completed"
            assert result.takeover_by == simulated.takeover_by is not None
            assert result.federation_converged and result.gossip_rounds > 0
