"""The hostile-world scenario matrix (ROADMAP item 4).

Fast lane: a reduced matrix (three adversaries × two workload
families) plus targeted cells — under 30 s wall clock.  Slow
lane: the full default cross product, run twice to pin bit-identical
commit digests per seed, with the per-cell counters the ISSUE's
acceptance criteria name.
"""

import pytest

from repro.scenarios import (Scenario, build_matrix, default_adversaries,
                             default_workloads, run_matrix, run_scenario)

ADVERSARIES = {case.name: case for case in default_adversaries()}
WORKLOADS = {case.name: case for case in default_workloads()}

#: Reduced axes for the CI smoke: the three most failure-prone
#: adversaries, one shaped and one multi-key workload, short cells.
SMOKE_KWARGS = dict(
    adversaries=[ADVERSARIES["crash"], ADVERSARIES["partition-heal"],
                 ADVERSARIES["byzantine-exec"]],
    workloads=[WORKLOADS["smallbank-flash"], WORKLOADS["tpcc-lite"]],
    duration=0.15, drain=0.06,
)


def test_default_catalog_meets_matrix_floor():
    """The acceptance floor: >= 3 adversaries x >= 3 workload shapes."""
    assert len(default_adversaries()) >= 3
    assert len(default_workloads()) >= 3
    matrix = build_matrix()
    assert len(matrix) == (len(default_adversaries())
                           * len(default_workloads()))
    assert len({scenario.name for scenario in matrix}) == len(matrix)


def test_reduced_matrix_smoke():
    """Every reduced cell upholds all three safety invariants."""
    matrix = run_matrix(**SMOKE_KWARGS)
    assert len(matrix.cells) == 6
    assert matrix.ok, matrix.failures()
    for cell in matrix.cells:
        assert cell.result.executed > 0, cell.scenario.name
    # The partition cells actually partitioned and healed.
    heals = [cell for cell in matrix.cells
             if cell.scenario.adversary.name == "partition-heal"]
    assert heals and all(
        cell.result.partition_heals == 1 for cell in heals)


def test_byzantine_cell_rejects_and_reexecutes():
    """The Byzantine-executor cell shows >= 1 validation rejection followed
    by deterministic re-execution — and still converges."""
    scenario = Scenario(adversary=ADVERSARIES["byzantine-exec"],
                        workload=WORKLOADS["tpcc-lite"],
                        duration=0.15, drain=0.06)
    cell = run_scenario(scenario)
    assert cell.ok, cell.safety.failures
    assert cell.result.validation_failures >= 1
    assert cell.result.validation_reexecutions >= 1
    # Deterministic recovery: the forged blocks still committed, so logs
    # are non-trivial and identical across the honest replicas.
    assert cell.result.executed > 0


@pytest.mark.parametrize("adversary", ["byzantine-exec", "gray-slow"])
def test_cell_is_seed_stable(adversary):
    """A cell rerun with the same seed is bit-identical down to every
    replica's commit digests (determinism stays a tested feature)."""
    scenario = Scenario(adversary=ADVERSARIES[adversary],
                        workload=WORKLOADS["smallbank-hotspot"],
                        duration=0.15, drain=0.06, seed=3)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.digests == second.digests
    assert first.result.executed == second.result.executed


@pytest.mark.slow
def test_full_matrix_is_safe_and_seed_stable():
    """The full default cross product holds all three invariants in every
    cell, shows the expected adversary counters, and reruns bit-identically."""
    first = run_matrix()
    assert first.ok, first.failures()
    by_adversary = {}
    for cell in first.cells:
        by_adversary.setdefault(cell.scenario.adversary.name,
                                []).append(cell)
    for cell in by_adversary["byzantine-exec"]:
        assert cell.result.validation_failures >= 1, cell.scenario.name
        assert cell.result.validation_reexecutions >= 1, cell.scenario.name
    for cell in by_adversary["partition-heal"]:
        assert cell.result.partition_heals == 1, cell.scenario.name
    for cell in by_adversary["censor-heal"]:
        assert cell.result.reconfigurations >= 1, cell.scenario.name
    for cell in first.cells:
        assert cell.result.executed > 0, cell.scenario.name
    # Satellite: every cell run twice with the same seed -> bit-identical
    # commit digests.
    second = run_matrix()
    assert second.ok
    for cell_a, cell_b in zip(first.cells, second.cells):
        assert cell_a.scenario.name == cell_b.scenario.name
        assert cell_a.digests == cell_b.digests, cell_a.scenario.name


def test_shard_split_cell_is_safe_on_the_batch_path():
    """The shard-split adversary partitions the replica set down the
    middle — cross-shard transactions lose quorum mid-flight — and heals.
    The cell holds every invariant, conservation included, with its
    cross-shard work replayed as ordered OE batches."""
    cell = run_scenario(Scenario(
        adversary=ADVERSARIES["shard-split-heal"],
        workload=WORKLOADS["smallbank-flash"], duration=0.2, drain=0.08))
    assert cell.ok, cell.safety.failures
    assert cell.result.executed > 0
    assert cell.result.executed_cross > 0
    assert cell.result.partition_heals == 1
