"""Smoke test for ``python -m tools.profile_e2e``."""

import re

import pytest

from tools import profile_e2e


def test_profiles_a_smoke_run_and_prints_self_time_rows(capsys):
    assert profile_e2e.main(["tusk_wide", "--scale", "smoke",
                             "--top", "1000"]) == 0
    out = capsys.readouterr().out
    assert "Ordered by: internal time" in out
    # The run went through the benchmark's own driver loop, the kernel and
    # the consensus entry points.
    for function in ("(run_and_drain)", "(step)", "(insert)", "(advance)"):
        assert function in out
    # Under the table: 16 replicas, so 15 of 16 lookups reuse an outcome.
    executed, reused, modelled = map(int, re.search(
        r"^replays: (\d+) executed, (\d+) reused \(modelled: (\d+),",
        out, re.MULTILINE).groups())
    assert executed > 0 and reused == 15 * executed
    assert modelled == executed + reused


def test_rejects_an_unknown_workload():
    with pytest.raises(SystemExit):
        profile_e2e.main(["no_such_workload"])
