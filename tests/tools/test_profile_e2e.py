"""Smoke test for ``python -m tools.profile_e2e``."""

import re
import sys
from collections import Counter

import pytest

from repro.ce.depgraph import DependencyGraph
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
    assert re.search(r"^records: \d+ built for \d+ executed transactions",
                     out, re.MULTILINE)


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


def test_counts_exactly_the_rows_connect_ors(monkeypatch):
    """The counted rows are the rows whose value ``_connect`` changes or
    rewrites: a stand-in ``_connect`` that records every written row
    index sees the same total."""
    written = Counter()
    connect = DependencyGraph._connect

    class Spy(list):
        def __setitem__(self, index, value):
            written["rows"] += 1
            super().__setitem__(index, value)

    def spying_connect(graph, src, dst):
        graph._down, graph._up = Spy(graph._down), Spy(graph._up)
        try:
            connect(graph, src, dst)
        finally:
            graph._down, graph._up = list(graph._down), list(graph._up)

    monkeypatch.setattr(DependencyGraph, "_connect", spying_connect)
    counts, _ = profile_e2e.count_closure_work("hot_key", "smoke")
    assert counts["rows_ored"] == written["rows"] > 0


def test_prints_the_closure_work(capsys):
    profile_e2e.print_closure_work(
        Counter(path_queries=10, connects=4, rows_ored=12,
                rows_unmasked=16), 5)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "closure: 10 point queries (2.00 per transaction), 4 connects",
        "connect rows ORed: 12 (2.40 per transaction, 3.00 per connect); "
        "unmasked 16, 25.0% skipped"]


def test_counts_records_built_per_transaction_by_class():
    counts, cluster = profile_e2e.count_records("tusk_wide", "smoke")
    executed = len(cluster.metrics.executions)
    # Applying committed work builds no per-key or per-block record ...
    assert counts["VersionedValue"] == counts["LogEntry"] == 0
    # ... and each transaction is built once and sampled once.
    assert counts["Transaction"] / executed == 1.0
    assert counts["ExecutionSample"] == executed
    assert counts["Message"] == cluster.network.messages_sent
    # The wrappers are gone once the run is over.
    before = sum(counts.values())
    cluster.metrics.record_execution(-1, "serial", 0.0, 0.0)
    assert sum(counts.values()) == before


def test_prints_the_record_table(capsys):
    profile_e2e.print_records(Counter(Message=6, Transaction=2), 2)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "records: 8 built for 2 executed transactions " \
                       "(4.00 per transaction)"
    assert lines[1].split() == ["records", "per", "tx", "class"]
    assert lines[2].split() == ["6", "3.00", "Message"]
    assert lines[3].split() == ["2", "1.00", "Transaction"]


def test_samples_a_smoke_run_by_self_and_inclusive_share(capsys):
    samples, cluster = profile_e2e.sample_workload("hot_key", "smoke")
    assert cluster.metrics.executions
    assert samples.total > 0
    assert sum(samples.self.values()) == samples.total
    # Every sample was taken inside the benchmark's driver loop.
    [driver] = [label for label in samples.inclusive
                if label.startswith("run_and_drain (")]
    assert samples.inclusive[driver] == samples.total
    assert max(samples.self.values()) <= samples.total
    # A generated frame is named after the class its ``self`` is.
    generated = sum(count for label, count in samples.self.items()
                    if label.endswith("<string>"))
    assert sum(samples.callers.values()) == generated
    profile_e2e.print_samples(samples, 3)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"samples: {samples.total}"
    assert lines[1].split() == ["share", "samples", "self"]


def test_labels_a_dataclass_init_by_its_class():
    from repro.txn import Transaction
    samples = profile_e2e.Samples()
    seen = []

    class Spy(Transaction):
        def __post_init__(self):
            seen.append(sys._getframe(1))   # the generated __init__
            super().__post_init__()

    Spy(1, "c", (), (0,))
    samples.record(seen[0])
    [(leaf, caller)] = samples.callers
    assert leaf == "Spy.__init__ <string>"
    assert caller.startswith("test_labels_a_dataclass_init_by_its_class (")
    assert samples.self[leaf] == samples.inclusive[leaf] == 1


def test_main_samples_instead_of_profiling(capsys):
    assert profile_e2e.main(["tusk_wide", "--scale", "smoke", "--sample",
                             "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("samples: ")
    assert "Ordered by: internal time" not in out
    assert re.search(r"^replays: \d+ executed", out, re.MULTILINE)
