"""Frozen committed rows held to the reference DFS.

``DependencyGraph`` keeps ``up`` rows exact for every live node but
``down`` rows only for *open* nodes — those that have not committed.
A commit closes its node after R4, the last rule that reads the
committer's ``down`` row, and from then on the row stops growing.  Point
queries read the destination's ``up`` row, so they stay exact for
committed sources too.  No edge enters a closed node (``add_edge``
refuses one), but edges still leave it: a read from a committed writer,
a pin of a committed writer before a live one.

Over the seeded direct schedules of ``tests/ce/test_cohort_rows.py``
(``drive``, seeds 0-59), after every controller call:

* ``has_path`` equals ``_has_path_dfs`` for every pair of indexed nodes,
  committed sources included;
* every open node's ``down`` row equals its DFS descendant set at live
  bits, and a closed node's row holds no live bit outside that set;
* every uncommitted indexed node is open, and ``open`` lies in ``live``;
* every ``down`` row the controller reads (``rows(n)[0]``) is an open
  node's.

A planted bug — closing the committer before R4 reads its row — must
fail the check.
"""

import traceback

import pytest

from repro.ce import ConcurrencyController
from repro.ce.depgraph import DependencyGraph, NodeStatus
from tests.ce.graph_reference import has_path_dfs
from tests.ce.test_cohort_rows import drive
from tests.ce.word_rows import descendants

SEEDS = range(60)


class Rows(tuple):
    """A node's ``(down, up)``; reading ``down`` of a closed node is
    recorded on the graph."""

    def __getitem__(self, index):
        if index == 0 and not self.open:
            self.graph.closed_down_reads.append(self.tx_id)
        return tuple.__getitem__(self, index)


class OpenRowsGraph(DependencyGraph):
    """Records ``down`` reads of closed nodes."""

    def __init__(self):
        super().__init__()
        self.closed_down_reads = []

    def rows(self, node):
        rows = Rows(super().rows(node))
        serial = node._index_serial
        rows.open = serial is None or bool(self._open >> serial & 1)
        rows.graph, rows.tx_id = self, node.tx_id
        return rows


def descendants_mask(node):
    """``node``'s own bit plus the serial bits of its DFS descendants."""
    return sum(1 << other._index_serial for other in descendants(node)) \
        | 1 << node._index_serial


def check_open_rows(graph):
    assert not graph.closed_down_reads, \
        f"down row of closed node(s) {graph.closed_down_reads} read"
    live, open_ = graph._live, graph._open
    assert open_ & ~live == 0
    indexed = [node for node in graph._indexed if node is not None]
    for node in indexed:
        serial = node._index_serial
        expected = descendants_mask(node)
        row = graph._down[serial] & live
        if open_ >> serial & 1:
            assert row == expected, ("open down row", node.tx_id)
        else:
            assert node.status is NodeStatus.COMMITTED, node.tx_id
            assert row & ~expected == 0, ("closed down row", node.tx_id)
        for other in indexed:
            assert graph.has_path(node, other) \
                == has_path_dfs(node, other), \
                (node.tx_id, other.tx_id)


class CheckedController(ConcurrencyController):
    """Checks the open-row invariants after every call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.graph = OpenRowsGraph()

    def read(self, node, key):
        try:
            return super().read(node, key)
        finally:
            check_open_rows(self.graph)

    def write(self, node, key, value):
        try:
            super().write(node, key, value)
        finally:
            check_open_rows(self.graph)

    def finish(self, node, result=None, now=0.0):
        try:
            return super().finish(node, result, now)
        finally:
            check_open_rows(self.graph)

    def abort_transaction(self, tx_id, reason="external"):
        try:
            super().abort_transaction(tx_id, reason)
        finally:
            check_open_rows(self.graph)


@pytest.mark.parametrize("seed", SEEDS)
def test_open_rows_stay_exact_on_a_direct_schedule(seed):
    drive(CheckedController, seed)


def failing_seeds():
    """The seeds on which ``check_open_rows`` itself fails."""
    failed = []
    for seed in SEEDS:
        try:
            drive(CheckedController, seed)
        except AssertionError as error:
            frames = traceback.extract_tb(error.__traceback__)
            if frames[-1].name == "check_open_rows":
                failed.append(seed)
    return failed


def test_planted_close_before_r4_is_caught(monkeypatch):
    order_later_writers = ConcurrencyController._order_later_writers

    def close_first(self, node):
        self.graph.close(node)
        order_later_writers(self, node)

    monkeypatch.setattr(ConcurrencyController, "_order_later_writers",
                        close_first)
    assert failing_seeds()
