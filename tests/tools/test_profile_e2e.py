"""Smoke test for ``python -m tools.profile_e2e``."""

import re
from collections import Counter

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


def test_counts_events_per_transaction_by_class_and_by_what_they_resume():
    by_class, by_target, cluster = profile_e2e.count_events(
        "tusk_wide", "smoke")
    total = cluster.env.events_processed
    assert sum(by_class.values()) == sum(by_target.values()) == total
    # A message is one plain Event that runs the network's delivery.
    assert by_class["Event"] >= by_target["Network._deliver"] \
        == cluster.network.messages_delivered > total / 2
    assert by_target["Replica._round_loop"] > 0


def test_prints_the_event_tables(capsys):
    profile_e2e.print_events(Counter(Event=6, Timeout=2),
                             Counter({"Network._deliver": 6,
                                      "Replica._round_loop": 2}), 4)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "events: 8 for 4 executed transactions " \
                       "(2.00 per transaction)"
    assert lines[1].split() == ["events", "per", "tx", "class"]
    assert lines[2].split() == ["6", "1.50", "Event"]
    assert lines[4].split() == ["events", "per", "tx", "resumes"]
    assert lines[5].split() == ["6", "1.50", "Network._deliver"]


def test_rejects_an_unknown_workload():
    with pytest.raises(SystemExit):
        profile_e2e.main(["no_such_workload"])


def test_counts_point_queries_and_connect_rows():
    counts, cluster = profile_e2e.count_closure_work("hot_key", "smoke")
    # The wrapped has_path sees every query the controller's counter sees.
    assert counts["path_queries"] == cluster.metrics.cc_path_queries > 0
    assert counts["connects"] > 0
    # The masks skip rows an unmasked propagation would OR, never add any.
    assert 0 < counts["rows_ored"] < counts["rows_unmasked"]
    assert counts["rows_ored"] >= counts["connects"]


def test_prints_the_closure_work(capsys):
    profile_e2e.print_closure_work(
        Counter(path_queries=10, connects=4, rows_ored=12,
                rows_unmasked=16), 5)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "closure: 10 point queries (2.00 per transaction), 4 connects",
        "connect rows ORed: 12 (2.40 per transaction, 3.0 per connect); "
        "unmasked 16, 25.0% skipped"]
