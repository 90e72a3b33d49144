"""Cross-datacenter moves over an asymmetric WAN: adaptive pre-copy pacing.

The federation tentpole's acceptance experiment: two controller domains are
wired with a bandwidth/latency-asymmetric FaultPlan (the controller->instance
direction is lossier and jitterier than the reverse — a congested inter-DC
path), and ``dc-a`` borrows an instance from ``dc-b`` to run a cross-domain
``move`` over that WAN.  The gossip layer's smoothed one-way delay/jitter
estimate of the link drives the :attr:`~repro.core.transfer.TransferSpec.wan_pacing`
gain, which stretches the gap between pre-copy delta rounds to match the
measured link quality.

Both variants are measured across several seeds:

* **adaptive** — the pacing gain the federation derived from its WAN estimate;
* **unpaced** — the same moves with the gain clamped to zero (the pre-PR
  back-to-back round schedule).

Results persist to ``BENCH_federation_crossdc.json`` (ops/sec, freeze-window
and move-duration percentiles, measured pacing gains, chunks moved and the
time from completion until the instance was home and the views agreed, per run).
Pacing is a bytes-for-time trade: the paced move is slower and resends fewer
re-dirtied chunks, and the test asserts both.  Run as a script::

    PYTHONPATH=src python benchmarks/bench_federation_crossdc.py --seed 7
"""

from __future__ import annotations

from repro.analysis import format_table, print_block
from repro.core import ControllerConfig, FlowPattern, ProcessingCosts
from repro.core.channel import FaultPlan, FaultProfile
from repro.core.transfer import TransferSpec
from repro.federation import Federation, FederationConfig, GossipConfig
from repro.net import Simulator, tcp_packet
from repro.testing import ChaosMiddlebox

try:
    from benchmarks._results import duration_stats, freeze_stats, write_results
except ModuleNotFoundError:  # invoked as a script: benchmarks/ is sys.path[0]
    from _results import duration_stats, freeze_stats, write_results

#: Seeds measured per variant.
SEEDS = 4
DEFAULT_BASE_SEED = 11
#: WAN shape: 5 ms one-way, 50 Mbit/s — an order of magnitude worse than the
#: intra-domain control channel on both axes.
WAN_LATENCY = 5e-3
WAN_BANDWIDTH = 6.25e6
FLOWS = 24
PACKETS = 80
#: The moved instance serialises state at the base (paper) cost model's rate —
#: 600 us per exported chunk — rather than the dummy's near-zero costs.  The
#: bulk round's export window is then long enough for live writes to dirty
#: flows, so the delta rounds (and the WAN pacing between them) actually run.
SRC_COSTS = ProcessingCosts()
#: After the move completes, the run steps the clock in ``SETTLE_STEP``
#: increments until the borrowed instance is home and every live view names
#: one owner for the moved flows — at most ``SETTLE_LIMIT`` simulated seconds.
SETTLE_STEP = 1e-3
SETTLE_LIMIT = 1.0


def asymmetric_plan(seed: int) -> FaultPlan:
    """The acceptance fault plan: the forward (controller->instance) direction
    is lossy with up-to-3x latency jitter, the reverse only mildly jittery."""
    return FaultPlan(
        seed,
        to_mb=FaultProfile(drop=0.01, jitter=3.0),
        to_controller=FaultProfile(jitter=1.0),
    )


def run_crossdc_move(seed: int, *, adaptive: bool = True) -> dict:
    """One cross-domain move over the asymmetric WAN; returns its record."""
    sim = Simulator()
    config = FederationConfig(
        gossip=GossipConfig(fanout=1, interval=1e-3, ttl=0.5, seed=seed),
        max_pacing_gain=4.0 if adaptive else 0.0,
    )
    federation = Federation(sim, config)
    for name in ("dc-a", "dc-b"):
        federation.add_domain(name, controller_config=ControllerConfig(quiescence_timeout=0.02))
    federation.connect(
        "dc-a", "dc-b", latency=WAN_LATENCY, bandwidth=WAN_BANDWIDTH, faults=asymmetric_plan(seed * 7 + 1)
    )
    borrower, home = federation.domains["dc-a"], federation.domains["dc-b"]
    src = ChaosMiddlebox(sim, "edge-src", flows=FLOWS, costs=SRC_COSTS)
    borrower.register(src)
    home.register(ChaosMiddlebox(sim, "core-dst"))
    sim.run(until=0.05)  # gossip samples the link; the WAN estimate settles

    # Live writes keep dirtying flows while the pre-copy rounds stream — the
    # spacing spans the whole WAN transfer so every delta round finds work.
    for seq in range(1, PACKETS + 1):
        key = src.flow_key_for(seq % FLOWS)
        packet = tcp_packet(key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, b"w", seq=seq)
        sim.schedule(1.5e-3 * seq, src.receive, packet, 0)

    future = borrower.move_to(
        "dc-b",
        "edge-src",
        "core-dst",
        FlowPattern.wildcard(),
        TransferSpec.precopy(max_rounds=3),
        faults=asymmetric_plan(seed * 13 + 3),
    )
    sim.run_until(future, limit=60.0)
    record = future.result

    def owners() -> set:
        return {domain.directory.owner_of(src.flow_key_for(0)) for domain in federation.live_domains()}

    # FED_MOVE_DONE, the homecoming and the ownership claim cross the lossy WAN.
    completed_at = sim.now
    while sim.now < completed_at + SETTLE_LIMIT and not (home.controller.is_registered("core-dst") and len(owners()) == 1):
        sim.run(until=sim.now + SETTLE_STEP)
    settle = sim.now - completed_at
    federation.stop()
    sim.run(until=sim.now + 0.05)
    return {
        "duration": record.duration,
        "freeze_window": record.freeze_window,
        "wan_pacing": record.wan_pacing,
        "rounds": len(record.rounds),
        "chunks": record.chunks_transferred,
        "settle": settle,
        "owners": owners(),
        "returned_home": home.controller.is_registered("core-dst"),
    }


def run_variant(adaptive: bool, base_seed: int) -> dict:
    """Aggregate one pacing variant across the seed set."""
    runs = [run_crossdc_move(base_seed + index * 193, adaptive=adaptive) for index in range(SEEDS)]
    return {
        "runs": runs,
        "move": duration_stats([run["duration"] for run in runs]),
        "freeze": freeze_stats([run["freeze_window"] for run in runs]),
        "pacing_gains": [round(run["wan_pacing"], 4) for run in runs],
        "chunks": [run["chunks"] for run in runs],
        "settle_ms": [round(run["settle"] * 1e3, 4) for run in runs],
    }


def _results_payload(adaptive: dict, unpaced: dict, base_seed: int) -> dict:
    return {
        "base_seed": base_seed,
        "seeds": SEEDS,
        "wan": {"latency_s": WAN_LATENCY, "bandwidth_bytes_per_s": WAN_BANDWIDTH},
        "workload": {"flows": FLOWS, "packets": PACKETS},
        "settle": {"step_s": SETTLE_STEP, "limit_s": SETTLE_LIMIT},
        "adaptive": {key: adaptive[key] for key in ("move", "freeze", "pacing_gains", "chunks", "settle_ms")},
        "unpaced": {key: unpaced[key] for key in ("move", "freeze", "pacing_gains", "chunks", "settle_ms")},
    }


def _print_summary(adaptive: dict, unpaced: dict) -> None:
    print_block(
        format_table(
            f"Cross-DC move over asymmetric WAN ({SEEDS} seeds per variant)",
            ["variant", "moves/s", "move p50 (ms)", "move p99 (ms)", "freeze p99 (ms)", "pacing gains"],
            [
                (
                    label,
                    variant["move"]["ops_per_sec"],
                    variant["move"]["p50_ms"],
                    variant["move"]["p99_ms"],
                    variant["freeze"]["p99_ms"],
                    variant["pacing_gains"],
                )
                for label, variant in (("adaptive", adaptive), ("unpaced", unpaced))
            ],
        )
    )


def test_federation_crossdc_adaptive_pacing(once):
    def run_both():
        return run_variant(True, DEFAULT_BASE_SEED), run_variant(False, DEFAULT_BASE_SEED)

    adaptive, unpaced = once(run_both)
    _print_summary(adaptive, unpaced)
    write_results("federation_crossdc", _results_payload(adaptive, unpaced, DEFAULT_BASE_SEED))

    for run in adaptive["runs"]:
        # The measured link (5 ms + jitter) is far above the LAN reference, so
        # every adaptive move must have run with a real pacing gain applied.
        assert run["wan_pacing"] > 0.0, "Federation extension: an adaptive move runs with a pacing gain"
        assert run["rounds"] >= 2 and run["chunks"] >= FLOWS, "Federation extension: a cross-DC pre-copy moves every flow in ≥ 2 rounds"
        # The moved flows belong to dc-b in every surviving view, and the
        # borrowed instance went home.
        assert run["owners"] == {"dc-b"}, "Federation extension: the moved flows belong to dc-b in every view"
        assert run["returned_home"], "Federation extension: the borrowed instance went home"
    for run in unpaced["runs"]:
        assert run["wan_pacing"] == 0.0, "Federation extension: the unpaced baseline applies no gain"
        assert run["owners"] == {"dc-b"} and run["returned_home"], "Federation extension: the baseline also re-homes the flows"
    # Pacing trades time for bytes: the paced rounds wait out the measured gap,
    # so the move is slower, and fewer flows are re-dirtied between rounds, so
    # it resends fewer chunks.
    assert adaptive["move"]["p50_ms"] > unpaced["move"]["p50_ms"], "Federation extension: adaptive pacing makes the move slower"
    assert sum(adaptive["chunks"]) <= sum(unpaced["chunks"]), "Federation extension: adaptive pacing resends no more chunks"


def main() -> None:
    """CLI entry point: re-run both variants with a caller-chosen seed base."""
    import argparse

    parser = argparse.ArgumentParser(description="Cross-DC move with WAN-adaptive pre-copy pacing")
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED, help="base mixed into every run seed")
    args = parser.parse_args()
    adaptive = run_variant(True, args.seed)
    unpaced = run_variant(False, args.seed)
    _print_summary(adaptive, unpaced)
    path = write_results("federation_crossdc", _results_payload(adaptive, unpaced, args.seed))
    print(f"results -> {path}")


if __name__ == "__main__":
    main()
