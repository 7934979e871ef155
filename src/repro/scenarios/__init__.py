"""Hostile-world scenario matrix: adversary × workload cells,
each checked against the paper's safety invariants (ROADMAP item 4)."""

from repro.scenarios.checker import SafetyChecker, SafetyReport
from repro.scenarios.matrix import (AdversaryCase, CellResult,
                                    MatrixResult, Scenario, WorkloadBundle,
                                    WorkloadCase, build_matrix,
                                    default_adversaries, default_workloads,
                                    run_matrix, run_scenario)

__all__ = [
    "AdversaryCase",
    "CellResult",
    "MatrixResult",
    "SafetyChecker",
    "SafetyReport",
    "Scenario",
    "WorkloadBundle",
    "WorkloadCase",
    "build_matrix",
    "default_adversaries",
    "default_workloads",
    "run_matrix",
    "run_scenario",
]
