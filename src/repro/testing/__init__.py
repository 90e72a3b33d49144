"""Testing harnesses: deterministic chaos injection, the invariant auditor, differential runtime equivalence."""

from .chaos import (
    FAULT_PROFILES,
    FED_AUX,
    FED_DOMAINS,
    ChaosMiddlebox,
    ChaosResult,
    ChaosSpec,
    InvariantViolation,
    audit_conservation,
    audit_journals,
    audit_source_retention,
    lost_updates,
    run_chaos,
    run_federated_chaos,
    strictly_increasing,
)
from .equivalence import EquivalenceReport, compare_results, run_equivalence

__all__ = [
    "FAULT_PROFILES",
    "FED_AUX",
    "FED_DOMAINS",
    "ChaosMiddlebox",
    "ChaosResult",
    "ChaosSpec",
    "EquivalenceReport",
    "InvariantViolation",
    "audit_conservation",
    "audit_journals",
    "audit_source_retention",
    "compare_results",
    "lost_updates",
    "run_chaos",
    "run_equivalence",
    "run_federated_chaos",
    "strictly_increasing",
]
