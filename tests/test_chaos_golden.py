"""Chaos results are bit-identical across the one-scenario-program rewrite.

``tests/data/chaos_results.json`` was recorded while ``run_chaos`` and
``run_federated_chaos`` were two separate 170-line programs that each carried
their own invariant checks — before both became one-call entry points into one
scenario program parameterised by a topology, and the four invariants became
the auditor functions exported from :mod:`repro.testing`.  It pins **every**
field of the :class:`~repro.testing.ChaosResult` (``final_state`` as a sha256,
``violations`` as strings, the ``spec`` left out — it is the input) for:

* one iteration of the benchmark's ``faulted_moves`` workload at a quarter of
  its size — 16 guarantee × mode × {lossy, chaotic} × {1, 4}-shard matrix
  cells, a destination kill at round 1 found by the liveness sweep and retried
  on a standby (``jittery``), a source kill, and federated domain death —
  built the way ``benchmarks/perf/workloads.py`` builds them, so the seeds
  come off one ``random.Random`` in the same order;
* the lossy data-plane profile under loose link-local protection
  (``data_strict_order=False``);
* the federated scenario on the clean, lossy and chaotic WAN.

What the rewrite must not move is therefore the master RNG's draw order, the
relative order of ``sim.schedule`` calls (``executed_events``, ``settled_at``,
the durations), every counter, and the order of ``result.violations``.

Re-record it (only when a scenario is meant to change) with
``PYTHONPATH=src python tests/test_chaos_golden.py``.
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.testing import ChaosResult, ChaosSpec, run_chaos, run_federated_chaos

GOLDEN = Path(__file__).parent / "data" / "chaos_results.json"

SEED = 12
FLOWS = 50
PACKETS = 50
FED_FLOWS = 12
FED_PACKETS = 40


def scenarios() -> dict:
    """label -> (runner, spec), in the order the benchmark workload draws seeds."""
    rng = random.Random(SEED)

    def spec(**kwargs) -> ChaosSpec:
        return ChaosSpec(seed=rng.randrange(2**31), flows=FLOWS, packets=PACKETS, batch_size=8, **kwargs)

    def federated(profile: str) -> ChaosSpec:
        return ChaosSpec(
            seed=rng.randrange(2**31), mode="precopy", profile=profile, flows=FED_FLOWS, packets=FED_PACKETS
        )

    out = {}
    for guarantee in ("loss_free", "order_preserving"):
        for mode in ("snapshot", "precopy"):
            for profile in ("lossy", "chaotic"):
                for shards in (1, 4):
                    out[f"{guarantee}/{mode}/{profile}/{shards}"] = (
                        run_chaos,
                        spec(guarantee=guarantee, mode=mode, profile=profile, shards=shards),
                    )
    out["dst-kill/standby"] = (
        run_chaos,
        spec(mode="precopy", profile="jittery", kill="dst", kill_at_round=1, detect="liveness", standby=True),
    )
    out["src-kill"] = (run_chaos, spec(profile="lossy", kill="src", kill_time=3e-3))
    out["federated/domain-death"] = (run_federated_chaos, federated("jittery"))
    out["lossy-data-plane/loose"] = (
        run_chaos,
        spec(profile="lossy", data_profile="lossy-data-plane", data_strict_order=False, interval=1e-4),
    )
    for profile in ("clean", "lossy", "chaotic"):
        out[f"federated/{profile}"] = (run_federated_chaos, federated(profile))
    return out


SCENARIOS = scenarios()


def fingerprint(label: str) -> dict:
    """Every ChaosResult field of one scenario, JSON-shaped."""
    runner, spec = SCENARIOS[label]
    result = runner(spec)
    out = {}
    for field in dataclasses.fields(ChaosResult):
        value = getattr(result, field.name)
        if field.name == "spec":
            continue
        if field.name == "violations":
            value = [str(violation) for violation in value]
        elif field.name == "final_state":
            value = hashlib.sha256(json.dumps(value, sort_keys=True).encode("ascii")).hexdigest()
        out[field.name] = value
    return out


def record() -> dict:
    return {label: fingerprint(label) for label in SCENARIOS}


@pytest.mark.parametrize("label", list(SCENARIOS))
def test_chaos_result_matches_the_two_program_run(label):
    golden = json.loads(GOLDEN.read_text())[label]
    observed = fingerprint(label)
    # The scenarios must keep exercising what they pin.
    assert observed["violations"] == []
    assert observed["outcome"] == ("failed" if label == "src-kill" else "completed")
    if label == "dst-kill/standby":
        assert observed["retried_on_standby"]
    if label.startswith("federated"):
        assert observed["takeover_by"] and observed["federation_converged"] and observed["gossip_rounds"] > 0
    if label.startswith("lossy-data-plane"):
        assert observed["data_wire_losses"] > 0 and observed["data_retransmits"] > 0
    assert observed == golden


def test_the_golden_covers_every_scenario_and_the_fault_machinery_fired():
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == list(SCENARIOS)
    assert sum(entry["drops"] for entry in golden.values()) > 0
    assert sum(entry["retransmits"] for entry in golden.values()) > 0
    assert sum(entry["duplicates"] for entry in golden.values()) > 0


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
