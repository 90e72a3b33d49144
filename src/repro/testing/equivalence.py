"""Differential runtime equivalence: same scenario, both runtimes, same observables.

The wall-clock :class:`~repro.runtime.RealtimeRuntime` is only trustworthy if
running a scenario on it produces the *same system behaviour* as the
deterministic :class:`~repro.net.simulator.Simulator` — otherwise its
benchmark numbers describe a different system.  This module is the proof
harness: :func:`run_equivalence` executes one :class:`ChaosSpec` scenario on
each runtime and compares every **observable outcome**:

* operation outcome (completed / failed) and clean termination (the
  ``finalized`` future resolved) — invariant on both runtimes;
* the four chaos invariants (termination, no lost updates, no reordering,
  state conservation) must hold on both;
* **final state maps**: under ``loss_free`` and ``order_preserving`` the
  surviving owner must hold exactly the same per-flow sequence sets on both
  runtimes, and the source must be equally empty.  Under ``no_guarantee``
  the state maps are legitimately timing-dependent (updates arriving during
  the unsynchronised window are allowed to be lost), so only termination,
  conservation, and the owner-holds-a-subset property are compared;
* per-run internal consistency: under ``order_preserving`` each flow's
  journal must be strictly increasing *within each run* (the auditor's
  :func:`~repro.testing.chaos.strictly_increasing`, on every instance).

What is deliberately **not** compared: timings (durations, freeze windows,
settle times), event counts (``executed_events`` is schedule-dependent),
retransmission counters, and pre-copy round counts — all of these genuinely
differ between a tick clock and a wall clock, and asserting them equal would
either fail spuriously or force the realtime runtime to fake determinism.

Scenarios run with the ``clean`` fault profile: fault injection draws from a
seeded RNG *in delivery order*, which differs across runtimes by design, so a
faulted differential comparison would compare two different fault sequences.
Fault behaviour on the realtime runtime is covered by the soak test instead.

:func:`compare_results` compares two results of one spec,
whichever entry point produced them: ``run_federated_chaos`` takes the same
``runtime=`` argument, so the three-domain topology is compared the same way
(``tests/test_runtime_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..net.simulator import Simulator
from ..runtime import RuntimeConfig
from .chaos import DST, SRC, ChaosResult, ChaosSpec, run_chaos, strictly_increasing


@dataclass
class EquivalenceReport:
    """The outcome of one differential run: both results plus any mismatches."""

    spec: ChaosSpec
    simulated: ChaosResult
    realtime: ChaosResult
    #: Human-readable descriptions of every observable that differed.
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every compared observable matched."""
        return not self.mismatches

    def assert_ok(self) -> None:
        """Raise AssertionError listing every mismatch (for pytest use)."""
        if self.mismatches:
            lines = "\n".join(f"  - {mismatch}" for mismatch in self.mismatches)
            raise AssertionError(f"runtime equivalence broken for {self.spec}:\n{lines}")


def _seq_sets(state: Dict[str, List[int]]) -> Dict[str, frozenset]:
    """Collapse a final-state map to per-flow seq *sets* (order is checked per run)."""
    return {flow: frozenset(seqs) for flow, seqs in state.items() if seqs}


def compare_results(spec: ChaosSpec, simulated: ChaosResult, realtime: ChaosResult) -> EquivalenceReport:
    """Compare the observable outcomes of the two runs of *spec*."""
    report = EquivalenceReport(spec=spec, simulated=simulated, realtime=realtime)
    mismatches = report.mismatches

    runs = (("simulated", simulated), ("realtime", realtime))
    for runtime_name, result in runs:
        for violation in result.violations:
            mismatches.append(f"[{runtime_name}] invariant violated: {violation}")

    if simulated.outcome != realtime.outcome:
        mismatches.append(
            f"operation outcome differs: simulated={simulated.outcome!r} realtime={realtime.outcome!r}"
        )

    if spec.guarantee == "order_preserving":
        mismatches += [
            f"[{runtime_name}] {name} journal for {flow} not strictly increasing: {seqs}"
            for runtime_name, result in runs
            for name, flows in result.final_state.items()
            for flow, seqs in flows.items()
            if not strictly_increasing(seqs)
        ]

    if spec.guarantee in ("loss_free", "order_preserving"):
        # The guarantee pins the final state exactly: every delivered update
        # survives at the owner, none remain at the source — so the state
        # maps must agree across runtimes, flow by flow, seq set by seq set.
        for name in sorted(set(simulated.final_state) | set(realtime.final_state)):
            sim_state = _seq_sets(simulated.final_state.get(name, {}))
            real_state = _seq_sets(realtime.final_state.get(name, {}))
            if sim_state != real_state:
                only_sim = {flow: sorted(seqs - real_state.get(flow, frozenset())) for flow, seqs in sim_state.items()}
                only_real = {flow: sorted(seqs - sim_state.get(flow, frozenset())) for flow, seqs in real_state.items()}
                mismatches.append(
                    f"final state of {name} differs: only-simulated={ {f: s for f, s in only_sim.items() if s} } "
                    f"only-realtime={ {f: s for f, s in only_real.items() if s} }"
                )
    else:
        # no_guarantee: losses during the unsynchronised window are timing-
        # dependent and legitimately differ.  Still: nothing may be
        # fabricated — each run's owner seqs must be a subset of what that
        # run's driver delivered (enforced per run by the chaos invariants),
        # and both runs must have handed the source's journals off.
        for runtime_name, result in runs:
            if result.outcome == "completed":
                src_left = sum(len(seqs) for seqs in result.final_state.get(SRC, {}).values())
                if src_left:
                    mismatches.append(f"[{runtime_name}] source retained {src_left} seqs after a completed move")

    return report


def run_equivalence(spec: ChaosSpec, *, realtime_config: Optional[RuntimeConfig] = None) -> EquivalenceReport:
    """Run *spec* on both runtimes and compare observable outcomes.

    The simulated run uses a fresh default :class:`Simulator`; the realtime
    run uses *realtime_config* (default: ``RuntimeConfig(mode="realtime")``)
    and closes its runtime afterwards.  Only ``clean``-profile specs are
    accepted — see the module docstring for why faulted scenarios cannot be
    differentially compared.
    """
    if spec.profile != "clean":
        raise ValueError(
            f"differential comparison requires the clean fault profile, got {spec.profile!r}"
        )
    simulated = run_chaos(spec, runtime=Simulator())
    config = realtime_config or RuntimeConfig(mode="realtime")
    runtime = config.create()
    try:
        realtime = run_chaos(spec, runtime=runtime)
    finally:
        runtime.close()
    return compare_results(spec, simulated, realtime)


__all__ = ["EquivalenceReport", "compare_results", "run_equivalence", "DST", "SRC"]
