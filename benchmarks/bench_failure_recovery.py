"""Failure recovery under chaos: the issue's three acceptance demonstrations.

Using the deterministic chaos harness (:mod:`repro.testing.chaos`):

1. **Loss-free under loss** — a pre-copy move under the acceptance fault plan
   (1 % control-message drop + up-to-2x latency jitter, both directions)
   completes with zero lost updates and bounded retransmissions, compared
   side by side with a clean channel and with harsher fault profiles.
2. **Crash-safe abort** — killing the destination mid-pre-copy-round aborts
   the move cleanly: futures fail, no packet hold or ``(op_id, round)``
   install tag survives anywhere, and the source remains authoritative for
   every update.  With a registered standby the same crash is absorbed: the
   move retries and completes loss-free.
3. **Failover with loss-free replay** — the rewritten failure-recovery app
   pre-clones a NAT's configuration to a standby, syncs critical mappings in
   the background, and — when the primary is killed — recovers by replaying
   only the unsynced delta before flipping routing.
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.apps import FailureRecoveryApp
from repro.core import ControllerConfig, MBController, NorthboundAPI
from repro.middleboxes import NAT
from repro.net import Simulator, tcp_packet
from repro.testing import ChaosSpec, run_chaos

try:
    from benchmarks._results import duration_stats, freeze_stats, write_results
except ModuleNotFoundError:  # invoked as a script: benchmarks/ is sys.path[0]
    from _results import duration_stats, freeze_stats, write_results

#: Seeds per configuration: results below aggregate across all of them.
SEEDS = 6
#: Base mixed into every scenario seed (overridable via ``--seed``).
DEFAULT_BASE_SEED = 5


def run_profile(profile: str, base_seed: int = DEFAULT_BASE_SEED) -> dict:
    """Aggregate loss-free pre-copy moves under one fault profile."""
    totals = {"lost": 0, "messages": 0, "drops": 0, "retransmits": 0, "dedup": 0, "completed": 0}
    durations, freezes = [], []
    for seed in range(SEEDS):
        result = run_chaos(
            ChaosSpec(seed=seed * 131 + base_seed, guarantee="loss_free", mode="precopy", profile=profile)
        )
        result.assert_ok()
        totals["lost"] += result.lost_updates
        totals["messages"] += result.messages
        totals["drops"] += result.drops
        totals["retransmits"] += result.retransmits
        totals["dedup"] += result.dedup_discards
        totals["completed"] += result.outcome == "completed"
        if result.move_duration is not None:
            durations.append(result.move_duration)
            freezes.append(result.freeze_window)
    totals["durations"] = durations
    totals["freezes"] = freezes
    return totals


def run_crash(standby: bool, base_seed: int = DEFAULT_BASE_SEED) -> dict:
    """Kill the destination after the first pre-copy round, with/without standby."""
    outcomes = {"completed": 0, "failed": 0, "retried": 0, "lost": 0}
    for seed in range(SEEDS):
        result = run_chaos(
            ChaosSpec(
                seed=seed * 61 + 12 + base_seed,
                guarantee="loss_free",
                mode="precopy",
                profile="lossy",
                kill="dst",
                kill_at_round=1,
                standby=standby,
            )
        )
        result.assert_ok()
        outcomes[result.outcome] += 1
        outcomes["retried"] += result.retried_on_standby
        outcomes["lost"] += result.lost_updates
    return outcomes


def run_failover() -> dict:
    """The rewritten failover app: pre-cloned standby, loss-free delta replay."""
    sim = Simulator()
    controller = MBController(
        sim, ControllerConfig(quiescence_timeout=0.2, heartbeat_interval=1e-3, liveness_timeout=4e-3)
    )
    northbound = NorthboundAPI(controller)
    primary = NAT(sim, "nat-primary")
    standby = NAT(sim, "nat-standby")
    controller.register(primary)
    controller.register(standby)
    app = FailureRecoveryApp(sim, northbound, protected_mb="nat-primary", standby_mb="nat-standby")
    sim.run_until(app.arm())
    app.enable_auto_failover(lambda: sim.timeout(1e-4))
    # Steady-state mappings sync in the background; a late burst does not.
    for index in range(16):
        sim.schedule(2e-4 * index, primary.receive, tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443), 1)
    sim.run(until=0.05)
    for index in range(16, 20):
        primary.receive(tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443), 1)
    sim.run(until=sim.now + 4e-4)
    killed_at = sim.now
    controller.kill("nat-primary")
    sim.run(until=sim.now + 0.3)
    report = app.auto_recovery.result
    # Loss-free check: every mapping usable at the standby with its old port.
    preserved = 0
    originals = {
        (mapping.internal_ip, mapping.internal_port): mapping.external_port
        for _, mapping in primary.support_store.items()
    }
    for index in range(20):
        result = standby.process_packet(tcp_packet(f"10.0.0.{index + 1}", "8.8.8.8", 6000 + index, 443))
        if result.packet.tp_src == originals[(f"10.0.0.{index + 1}", 6000 + index)]:
            preserved += 1
    return {
        "mappings": len(originals),
        "presynced": report.details["mappings_presynced"],
        "replayed": report.details["mappings_replayed"],
        "preserved": preserved,
        "recovery_ms": (report.finished_at - killed_at) * 1000,
    }


def test_failure_recovery_under_chaos(once):
    def run_all():
        profiles = {name: run_profile(name) for name in ("clean", "lossy", "chaotic")}
        crashes = {label: run_crash(standby) for label, standby in (("abort", False), ("standby retry", True))}
        return profiles, crashes, run_failover()

    profiles, crashes, failover = once(run_all)

    print_block(
        format_table(
            f"Loss-free pre-copy move vs control-channel faults ({SEEDS} seeds each)",
            ["fault profile", "completed", "lost updates", "wire msgs", "dropped", "retransmits", "dedup discards"],
            [
                (
                    name,
                    f"{totals['completed']}/{SEEDS}",
                    totals["lost"],
                    totals["messages"],
                    totals["drops"],
                    totals["retransmits"],
                    totals["dedup"],
                )
                for name, totals in profiles.items()
            ],
        )
    )
    print_block(
        format_table(
            f"Destination killed after pre-copy round 1 ({SEEDS} seeds each)",
            ["configuration", "completed", "failed cleanly", "standby retries", "lost updates"],
            [
                (label, outcome["completed"], outcome["failed"], outcome["retried"], outcome["lost"])
                for label, outcome in crashes.items()
            ],
        )
    )
    print_block(
        format_table(
            "NAT failover via pre-cloned standby (liveness kill, auto failover)",
            ["mappings", "pre-synced", "replayed at failover", "ports preserved", "recovery (ms)"],
            [
                (
                    failover["mappings"],
                    failover["presynced"],
                    failover["replayed"],
                    f"{failover['preserved']}/{failover['mappings']}",
                    round(failover["recovery_ms"], 2),
                )
            ],
        )
    )

    write_results("failure_recovery", _results_payload(profiles, crashes, failover, DEFAULT_BASE_SEED))

    # Acceptance criteria (the issue's hard claims).
    lossy = profiles["lossy"]
    assert lossy["completed"] == SEEDS and lossy["lost"] == 0, "§2 (R6): every lossy-channel move completes with zero lost updates"
    assert lossy["drops"] > 0 and lossy["retransmits"] > 0, "§2 (R6): the channel dropped and the ARQ retransmitted"
    assert lossy["retransmits"] < lossy["messages"] / 5, "§2 (R6): retransmissions stay under a fifth of the messages"
    assert crashes["abort"]["failed"] == SEEDS and crashes["abort"]["lost"] == 0, "§2 (R6): a mid-move crash aborts with zero lost updates"
    assert crashes["standby retry"]["completed"] == SEEDS, "§2 (R6): every standby retry completes"
    assert crashes["standby retry"]["retried"] == SEEDS, "§2 (R6): every crash is retried on the standby"
    assert crashes["standby retry"]["lost"] == 0, "§2 (R6): the standby retry loses no update"
    assert failover["preserved"] == failover["mappings"], "§2 (R6): NAT failover preserves every mapping"
    assert failover["replayed"] >= 1, "§2 (R6): the failover replays the delta since the clone"
    assert failover["presynced"] + failover["replayed"] == failover["mappings"], "§2 (R6): each mapping is pre-synced or replayed"


def _results_payload(profiles: dict, crashes: dict, failover: dict, base_seed: int) -> dict:
    """The persisted ``BENCH_failure_recovery.json`` document."""
    return {
        "base_seed": base_seed,
        "seeds_per_configuration": SEEDS,
        "profiles": {
            name: {
                "completed": totals["completed"],
                "lost_updates": totals["lost"],
                "messages": totals["messages"],
                "drops": totals["drops"],
                "retransmits": totals["retransmits"],
                "move": duration_stats(totals["durations"]),
                "freeze": freeze_stats(totals["freezes"]),
            }
            for name, totals in profiles.items()
        },
        "crashes": {
            label: {key: outcome[key] for key in ("completed", "failed", "retried", "lost")}
            for label, outcome in crashes.items()
        },
        "failover": {key: round(value, 4) if isinstance(value, float) else value for key, value in failover.items()},
    }


def main() -> None:
    """CLI entry point: re-run the aggregation with a caller-chosen seed base."""
    import argparse

    parser = argparse.ArgumentParser(description="Failure recovery under chaos (loss-free pre-copy)")
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED, help="base mixed into every scenario seed")
    args = parser.parse_args()
    profiles = {name: run_profile(name, args.seed) for name in ("clean", "lossy", "chaotic")}
    crashes = {label: run_crash(standby, args.seed) for label, standby in (("abort", False), ("standby retry", True))}
    failover = run_failover()
    path = write_results("failure_recovery", _results_payload(profiles, crashes, failover, args.seed))
    print_block(
        format_table(
            f"Failure recovery, base seed {args.seed} ({SEEDS} seeds per configuration)",
            ["fault profile", "completed", "lost updates", "dropped", "retransmits", "move p99 (ms)"],
            [
                (
                    name,
                    f"{totals['completed']}/{SEEDS}",
                    totals["lost"],
                    totals["drops"],
                    totals["retransmits"],
                    duration_stats(totals["durations"])["p99_ms"],
                )
                for name, totals in profiles.items()
            ],
        )
    )
    print(f"results -> {path}")


if __name__ == "__main__":
    main()
