"""Every row is an open row: the graph indexes live attempts only.

A commit takes its node out of the graph (``DependencyGraph.evict``)
right after R4 has read its ``down`` row, so every node the closure
index holds is running or finished and both of its rows are exact.

Over the seeded direct schedules of ``tests/ce/test_cohort_rows.py``
(``drive``, seeds 0-59), after every controller call:

* every indexed node is alive and is its transaction's entry in the
  node table;
* every indexed node's ``down`` and ``up`` rows equal its DFS
  descendant and ancestor sets at live bits (so ``has_path``, one bit
  of an ``up`` row, equals ``has_path_dfs`` at every indexed pair);
* no edge leads from an indexed node to one outside the index.

A planted bug — evicting the committer before R4 reads its row — must
fail the check: R4 then reads an empty row and gives the evicted node a
serial again through its write-write edges.
"""

import pytest

from repro.ce import ConcurrencyController
from repro.ce.depgraph import DependencyGraph
from tests.ce.graph_reference import has_path_dfs
from tests.ce.test_cohort_rows import drive
from tests.ce.word_rows import descendants

SEEDS = range(60)


def row_mask(nodes):
    return sum(1 << node._index_serial for node in nodes)


def check_open_rows(graph):
    indexed = [node for node in graph._indexed if node is not None]
    for node in indexed:
        assert node.alive, (node.tx_id, node.status)
        assert graph.nodes[node.tx_id] is node, node.tx_id
    live = graph._live
    assert live == row_mask(indexed)
    for node in indexed:
        down, up = graph.rows(node)
        below = [other for other in indexed if has_path_dfs(node, other)]
        above = [other for other in indexed if has_path_dfs(other, node)]
        assert down & live == row_mask(below), ("down row", node.tx_id)
        assert up & live == row_mask(above), ("up row", node.tx_id)
    # No edge leads out of the index (to an evicted node).
    assert all(descendant in graph._indexed for node in indexed
               for descendant in descendants(node))


class CheckedController(ConcurrencyController):
    """Checks the open-row invariants after every call."""

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


def test_planted_close_before_r4_is_caught(monkeypatch):
    evict = DependencyGraph.evict
    order_later_writers = ConcurrencyController._order_later_writers

    def evict_first(self, node):
        evict(self.graph, node)
        order_later_writers(self, node)

    monkeypatch.setattr(ConcurrencyController, "_order_later_writers",
                        evict_first)
    monkeypatch.setattr(DependencyGraph, "evict",
                        lambda graph, node: None)
    with pytest.raises(AssertionError, match="COMMITTED"):
        for seed in SEEDS:
            drive(CheckedController, seed)
