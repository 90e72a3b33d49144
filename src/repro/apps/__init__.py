"""Control applications and ready-made scenario topologies."""

from .base import AppReport, ControlApplication
from .failover import FailureRecoveryApp
from .federation import FederationOverseerApp
from .migration import PerFlowMigrationApp, REMigrationApp
from .scaling import ScaleDownApp, ScaleUpApp
from .scenarios import (
    GUARANTEE_SCENARIOS,
    GuaranteeScenarioResult,
    REMigrationScenario,
    TwoInstanceScenario,
    build_re_migration_scenario,
    build_two_instance_scenario,
    run_guarantee_scenario,
)

__all__ = [
    "AppReport",
    "ControlApplication",
    "FailureRecoveryApp",
    "FederationOverseerApp",
    "PerFlowMigrationApp",
    "REMigrationApp",
    "ScaleDownApp",
    "ScaleUpApp",
    "REMigrationScenario",
    "TwoInstanceScenario",
    "GUARANTEE_SCENARIOS",
    "GuaranteeScenarioResult",
    "build_re_migration_scenario",
    "build_two_instance_scenario",
    "run_guarantee_scenario",
]
