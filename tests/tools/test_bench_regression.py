"""The bench-regression gate: ``benchmarks.bench_regression.compare``.

Hand-built records only (no ``run_all``), so this runs in milliseconds.
"""

import copy

import pytest

from benchmarks.bench_regression import SCHEMA, compare


def _record(**ratios):
    return {
        "schema": SCHEMA,
        "scale": "quick",
        "benches": {},
        "ratios": dict(ratios),
        "exact": {"storm_aborts": 12, "stream_digest": "ab12"},
    }


def test_identical_record_passes():
    record = _record(speedup=2.0)
    assert compare(copy.deepcopy(record), record, tolerance=0.25) == []


def test_changed_exact_value_is_flagged():
    baseline = _record()
    record = _record()
    record["exact"]["stream_digest"] = "cd34"
    problems = compare(record, baseline, tolerance=0.25)
    assert len(problems) == 1
    assert "stream_digest changed" in problems[0]


def test_missing_exact_value_is_flagged():
    baseline = _record()
    record = _record()
    del record["exact"]["storm_aborts"]
    assert compare(record, baseline, tolerance=0.25) == [
        "deterministic value storm_aborts changed: None != 12"]


def test_missing_baseline_ratio_is_flagged_as_disappeared():
    problems = compare(_record(), _record(speedup=2.0), tolerance=0.25)
    assert problems == ["ratio speedup disappeared"]


def test_new_ratio_without_baseline_passes():
    assert compare(_record(speedup=2.0), _record(), tolerance=0.25) == []


@pytest.mark.parametrize("new, flagged", [
    (1.49, True),    # below 2.0 x (1 - 0.25) = 1.5
    (1.51, False),   # just above the floor
    (2.50, False),   # gains are never flagged
])
def test_ratio_floor_is_old_times_one_minus_tolerance(new, flagged):
    problems = compare(_record(speedup=new), _record(speedup=2.0),
                       tolerance=0.25)
    assert bool(problems) is flagged
    if flagged:
        assert problems[0].startswith("ratio speedup regressed")


def test_schema_mismatch_is_flagged():
    baseline = _record()
    baseline["schema"] = "bench-regression/v0"
    problems = compare(_record(), baseline, tolerance=0.25)
    assert len(problems) == 1
    assert "schema" in problems[0]


def test_scale_mismatch_is_flagged():
    baseline = _record()
    baseline["scale"] = "default"
    problems = compare(_record(), baseline, tolerance=0.25)
    assert len(problems) == 1
    assert "regenerate the baseline" in problems[0]
