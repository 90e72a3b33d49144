"""Testing harnesses: deterministic chaos injection and the invariant auditor."""

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

__all__ = [
    "FAULT_PROFILES",
    "FED_AUX",
    "FED_DOMAINS",
    "ChaosMiddlebox",
    "ChaosResult",
    "ChaosSpec",
    "InvariantViolation",
    "audit_conservation",
    "audit_journals",
    "audit_source_retention",
    "lost_updates",
    "run_chaos",
    "run_federated_chaos",
    "strictly_increasing",
]
