"""Tier-1 checks of the end-to-end benchmark at smoke scale: every declared
metric is emitted under its declared name, seeded runs repeat exactly, the
tracer's self-checks fire, and the driver honours the output contract."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import iteration, run  # noqa: E402
from benchmarks.e2e.compare import verdict  # noqa: E402
from benchmarks.e2e.tracer import wrappers_installed  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

CONTRACT = run.load_contract()
END_TO_END = [metric["name"] for metric in CONTRACT["end_to_end"]]
PER_LAYER = [metric["name"] for metric in CONTRACT["per_layer"]]


@pytest.fixture(scope="module")
def traced_records():
    return {name: iteration.run_iteration(name, seed=0, scale="smoke",
                                          trace=True)
            for name in WORKLOADS}


def test_contract_lists_the_workloads_of_the_table():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(traced_records, name):
    record = traced_records[name]
    assert record["problems"] == []
    emitted = set(run.samples_of(record)) | {"trace.overhead_ratio"}
    assert emitted == set(END_TO_END) | set(PER_LAYER) | {"cpu_s"}
    assert wrappers_installed() == []


def test_traced_numbers_tell_the_workloads_apart(traced_records):
    layers = {name: record["layers"]
              for name, record in traced_records.items()}
    for name, values in layers.items():
        assert (values["core.reconfigurations"] > 0) \
            == (name == "rotation_crash")
    assert layers["tusk_wide"]["ce.controller_self_share"] == 0
    assert layers["tusk_wide"]["ce.ops_per_tx"] == 0
    assert layers["hot_key"]["ce.reexec_per_tx"] \
        > layers["single_shard"]["ce.reexec_per_tx"]
    assert layers["cross_shard"]["core.cross_tx_share"] > 0.5
    assert layers["cross_shard"]["dag.skip_block_share"] > 0
    assert traced_records["rotation_crash"]["sim"]["failed_share"] > 0


def test_same_seed_repeats_exactly_and_tracing_does_not_perturb(
        traced_records):
    again = iteration.run_iteration("single_shard", seed=0, scale="smoke")
    for key in run.DETERMINISTIC:
        assert again[key] == traced_records["single_shard"][key]
    other = iteration.run_iteration("single_shard", seed=1, scale="smoke")
    assert other["commit_digest"] != again["commit_digest"]


def test_stamped_streams_are_the_streams_cluster_builds_itself():
    from repro.core.cluster import Cluster

    workload = WORKLOADS["single_shard"]
    duration, _ = workload.spans["smoke"]
    stamped = iteration.build_cluster(workload, 3, duration, {})
    default = Cluster(workload.config(3), workload.workload_config())
    for cluster in (stamped, default):
        cluster.run(duration, drain=0.03)
    assert iteration.commit_digest(stamped) == iteration.commit_digest(default)


def test_latency_is_measured_where_the_cluster_summary_reads_zero():
    """Pins the known ``ClusterResult`` bug without touching ``src/``: the
    first replica to execute a transaction is rarely its proposer, so the
    summary's submit time falls back to ``env.now``."""
    workload = WORKLOADS["single_shard"]
    duration, _ = workload.spans["smoke"]
    stamps = {}
    cluster = iteration.build_cluster(workload, 0, duration, stamps)
    summary = cluster.run(duration, drain=0.03)
    assert summary.p50_latency == 0.0
    assert iteration.simulated_metrics(
        cluster, stamps, duration)["sim_commit_p50_ms"] > 1.0


def test_a_bypassed_wrapper_is_reported_not_counted_as_zero(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tusk_wide", dataclasses.replace(
        WORKLOADS["tusk_wide"], reaches=("ce.validate_block",)))
    record = iteration.run_iteration("tusk_wide", seed=0, scale="smoke",
                                     trace=True)
    assert record["problems"] == [
        "traced run never reached ce.validate_block"]


def _child(slices, executed=100):
    return {"sim": {"sim_tps": 5.0}, "executed": executed, "run_s": 2.0,
            "slice_cpu_s": slices, "setup_s": 0.25, "peak_rss_mb": 40.0}


def test_cpu_time_takes_the_fastest_repeat_of_every_slice():
    repeats = [_child([1.0, 4.0]), _child([3.0, 1.0]), _child([2.0, 2.0])]
    assert run.undisturbed_cpu_s(repeats) == 2.0
    summary = run.summarise_seed(repeats)
    assert summary["cpu_tx_per_s"]["value"] == 50.0
    # Without the third repeat it still reads 100/2, without another 100/3.
    assert summary["cpu_tx_per_s"]["spread"] == pytest.approx(1 / 3)
    assert summary["cpu_s"] == {"value": 4.0, "spread": 0.25, "samples": 3}
    assert summary["sim_tps"]["spread"] == 0.0
    run_level = run.summarise([summary, run.summarise_seed([_child([1.0])])])
    assert run_level["cpu_tx_per_s"]["value"] == 75.0
    assert run_level["cpu_s"] == {"value": 2.5, "spread": 0.25, "samples": 4}


def test_compare_verdicts():
    def measured(value, spread=0.0):
        return {"value": value, "spread": spread}

    assert verdict(measured(100), measured(104), "higher", 0.1) == "same"
    assert verdict(measured(100), measured(80), "higher", 0.1) == "worse"
    assert verdict(measured(100), measured(80), "lower", 0.1) == "better"
    assert verdict(measured(100, 0.2), measured(100), "lower", 0.1) \
        == "unresolved"


def _drive(root: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks/e2e/run.py"), *arguments],
        cwd=root, capture_output=True, text=True, timeout=120)


def test_driver_prints_the_result_object_last():
    finished = _drive(ROOT, "--workload", "single_shard", "--seed", "5",
                      "--seconds", "0", "--trace", "0", "--scale", "smoke")
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_driver_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    finished = _drive(tmp_path, "--workload", "single_shard", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert finished.returncode != 0
    assert finished.stdout == ""
