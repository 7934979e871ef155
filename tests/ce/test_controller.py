"""Unit tests for the concurrency controller (CC) rules of §7–8."""

import pytest

from repro.ce import ConcurrencyController, NodeStatus
from repro.ce.depgraph import EdgeKind
from repro.errors import SerializationError, TransactionAborted
from tests.ce.graph_reference import is_acyclic
from tests.ce.test_cohort_rows import RecordingController


@pytest.fixture
def cc():
    return ConcurrencyController({"D": 3, "A": 1, "B": 2})


def test_read_from_root(cc):
    t1 = cc.begin(1)
    assert cc.read(t1, "D") == 3


def test_read_missing_key_default(cc):
    t1 = cc.begin(1)
    assert cc.read(t1, "missing") == 0


def test_read_your_own_write(cc):
    t1 = cc.begin(1)
    cc.write(t1, "D", 9)
    assert cc.read(t1, "D") == 9


def test_repeated_read_stable(cc):
    t1 = cc.begin(1)
    assert cc.read(t1, "D") == 3
    t2 = cc.begin(2)
    cc.write(t2, "D", 99)
    # §8.3: the node already holds a record for D
    assert cc.read(t1, "D") == 3


def test_read_uncommitted_write(cc):
    """Table 1 t2: T2 reads D's value from uncommitted T1."""
    t1 = cc.begin(1)
    cc.write(t1, "D", 5)
    t2 = cc.begin(2)
    assert cc.read(t2, "D") == 5
    node1 = cc.graph.get(1)
    node2 = cc.graph.get(2)
    assert cc.graph.has_edge(node1, node2)


def test_reader_before_new_writer_anti_edge(cc):
    """Fig. 9(a): readers get anti-edges to a new writer."""
    t1 = cc.begin(1)
    cc.read(t1, "A")
    t2 = cc.begin(2)
    cc.write(t2, "A", 7)
    assert cc.graph.has_path(cc.graph.get(1), cc.graph.get(2))


def test_read_pins_other_writers(cc):
    """Fig. 9(b): a read of the latest writer orders the other writers
    before it."""
    t1, t2, t3 = cc.begin(1), cc.begin(2), cc.begin(3)
    cc.write(t1, "A", 1)
    cc.write(t2, "A", 2)
    cc.write(t3, "A", 3)
    t4 = cc.begin(4)
    assert cc.read(t4, "A") == 3  # latest write
    n1, n2, n3 = (cc.graph.get(i) for i in (1, 2, 3))
    assert cc.graph.has_path(n1, n3)
    assert cc.graph.has_path(n2, n3)


def test_writers_unordered_until_pinned(cc):
    t1, t2 = cc.begin(1), cc.begin(2)
    cc.write(t1, "A", 1)
    cc.write(t2, "A", 2)
    n1, n2 = cc.graph.get(1), cc.graph.get(2)
    assert not cc.graph.has_path(n1, n2)
    assert not cc.graph.has_path(n2, n1)


def test_rewrite_aborts_readers():
    """Table 1 t5: T1 writes D again; T2, T3 read the old value and abort."""
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 3)
    t2, t3 = cc.begin(2), cc.begin(3)
    assert cc.read(t2, "D") == 3
    assert cc.read(t3, "D") == 3
    cc.write(t1, "D", 5)  # invalidates both readers
    assert cc.graph.get(2).status is NodeStatus.ABORTED
    assert cc.graph.get(3).status is NodeStatus.ABORTED
    assert cc.graph.get(1).status is NodeStatus.RUNNING
    assert cc.stats.aborts == 2


def test_aborted_transaction_operations_rejected():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 3)
    t2 = cc.begin(2)
    cc.read(t2, "D")
    cc.write(t1, "D", 5)
    with pytest.raises(TransactionAborted):
        cc.write(t2, "D", 0)  # Table 1 t9: invalid, must re-execute


def test_restart_after_abort():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 3)
    t2 = cc.begin(2)
    cc.read(t2, "D")
    cc.write(t1, "D", 5)
    t2b = cc.begin(2)
    assert t2b.attempt == 2
    assert cc.read(t2b, "D") == 5  # re-execution sees the new value


def test_cascading_abort_through_chain():
    """Fig. 10(b): aborting a reader cascades to its own readers."""
    cc = ConcurrencyController({"A": 5, "B": 0})
    t1 = cc.begin(1)
    cc.write(t1, "A", 5)
    t2 = cc.begin(2)
    cc.read(t2, "A")
    cc.write(t2, "B", 3)
    t3 = cc.begin(3)
    cc.read(t3, "B")  # reads T2's uncommitted write
    cc.write(t1, "A", 7)  # T2's read is stale -> abort T2, cascade to T3
    assert cc.graph.get(2).status is NodeStatus.ABORTED
    assert cc.graph.get(3).status is NodeStatus.ABORTED
    assert cc.stats.cascading_aborts >= 1


def test_read_cycle_falls_back_to_ancestor():
    """Fig. 10(a): a read that would close a cycle reads from an ancestor
    (the root) instead, keeping both transactions alive."""
    cc = ConcurrencyController({"A": 2, "B": 3})
    t1 = cc.begin(1)
    cc.read(t1, "A")
    t3 = cc.begin(3)
    cc.write(t3, "A", 3)  # anti-edge T1 -> T3
    cc.write(t3, "B", 3)
    value = cc.read(t1, "B")  # reading from T3 would cycle; use the root
    assert value == 3  # root value of B
    assert cc.graph.get(1).status is NodeStatus.RUNNING
    assert cc.graph.get(3).status is NodeStatus.RUNNING
    assert cc.stats.conflict_repairs >= 1


def test_finish_commits_without_dependencies(cc):
    t1 = cc.begin(1)
    cc.write(t1, "D", 5)
    assert cc.finish(t1, result="r1") is True
    assert cc.execution_order() == [1]
    assert cc.committed[0].write_set == {"D": 5}
    assert cc.committed[0].result == "r1"


def test_commit_waits_for_dependency():
    """Table 1 t4: T3 finishes but must wait for T1's commit."""
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 5)
    t3 = cc.begin(3)
    cc.read(t3, "D")
    assert cc.finish(t3) is False  # deferred
    assert cc.graph.get(3).status is NodeStatus.FINISHED
    cc.finish(t1)
    assert t3.status is NodeStatus.COMMITTED
    assert cc.graph.nodes == {}  # both commits left the graph
    assert cc.execution_order() == [1, 3]


def test_commit_order_is_execution_order():
    cc = ConcurrencyController({"D": 3})
    t1, t2 = cc.begin(1), cc.begin(2)
    cc.write(t2, "D", 10)
    cc.write(t1, "X", 1)
    cc.finish(t2)
    cc.finish(t1)
    assert cc.execution_order() == [2, 1]
    assert [e.order_index for e in cc.committed] == [0, 1]


def test_ww_commit_order_edge():
    """R4: committing a writer orders the remaining writers after it with
    a ``ww`` edge, added before the committer leaves the graph (and with
    it, the remaining writers' in-edges)."""
    cc = RecordingController({"D": 3})
    t1, t2 = cc.begin(1), cc.begin(2)
    cc.write(t1, "D", 1)
    cc.write(t2, "D", 2)
    assert cc.edges == []
    cc.finish(t1)
    assert cc.edges == [(1, 1, 2, 1, "D", EdgeKind.WRITE_WRITE.value)]
    assert cc.graph.get(1) is None and not t2.in_edges
    assert cc.graph.writers_of("D") == [t2]
    cc.finish(t2)
    assert cc.execution_order() == [1, 2]
    assert cc.final_writes() == {"D": 2}


def test_overlay_visible_to_later_reads():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 42)
    cc.finish(t1)
    t2 = cc.begin(2)
    assert cc.read(t2, "D") == 42


def test_read_root_prefers_overlay():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 9)
    cc.finish(t1)
    assert cc.read_root("D") == 9
    assert cc.read_root("missing") == 0


def test_committed_transaction_cannot_be_aborted_externally():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 5)
    cc.finish(t1)
    cc.abort_transaction(1)  # no-op: it left the graph at commit
    assert t1.status is NodeStatus.COMMITTED
    assert cc.execution_order() == [1]


def test_external_abort_of_live_transaction():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.write(t1, "D", 5)
    cc.abort_transaction(1, "test")
    assert cc.graph.get(1).status is NodeStatus.ABORTED


def test_abort_listener_called():
    aborted = []
    cc = ConcurrencyController({"D": 3}, on_abort=aborted.append)
    t1 = cc.begin(1)
    cc.write(t1, "D", 3)
    t2 = cc.begin(2)
    cc.read(t2, "D")
    cc.write(t1, "D", 5)
    assert aborted == [2]


def test_commit_listener_called():
    committed = []
    cc = ConcurrencyController({"D": 3},
                               on_commit=lambda e: committed.append(e.tx_id))
    t1 = cc.begin(1)
    cc.write(t1, "D", 5)
    cc.finish(t1)
    assert committed == [1]


def test_operations_after_finish_rejected():
    cc = ConcurrencyController({"D": 3})
    t1 = cc.begin(1)
    cc.finish(t1)
    with pytest.raises(SerializationError):
        cc.read(t1, "D")


def test_attempts_counter():
    cc = ConcurrencyController({})
    cc.begin(5)
    assert cc.attempts_of(5) == 1
    cc.abort_transaction(5)
    cc.begin(5)
    assert cc.attempts_of(5) == 2
    assert cc.attempts_of(99) == 0


def test_aborted_writer_readers_cascade():
    """Readers of an aborted transaction's data must abort too (they read
    values that will never exist)."""
    cc = ConcurrencyController({"A": 1})
    t1 = cc.begin(1)
    cc.write(t1, "A", 2)
    t2 = cc.begin(2)
    cc.read(t2, "A")
    cc.abort_transaction(1)
    assert cc.graph.get(2).status is NodeStatus.ABORTED


def test_graph_stays_acyclic_through_workload(cc):
    """Structural invariant: the rules never create a cycle."""
    for i in range(1, 20):
        node = cc.begin(i)
        try:
            cc.read(node, "A" if i % 2 else "B")
            cc.write(node, "B" if i % 3 else "A", i)
            cc.finish(node)
        except TransactionAborted:
            pass
        assert is_acyclic(cc.graph)


def test_write_then_read_other_key_keeps_node_write_classification():
    cc = ConcurrencyController({"A": 1, "B": 2})
    t1 = cc.begin(1)
    cc.write(t1, "A", 5)
    cc.read(t1, "B")
    node = cc.graph.get(1)
    assert node.is_write_node("A")
    assert node.is_read_node("B")


def test_writer_committed_by_a_cascade_in_the_pin_loop_is_skipped():
    """R2's pin loop walks a snapshot of the key's writers.  Aborting the
    first (a write cycle: it precedes the reader through an anti-edge on
    z) unblocks the second, finished and waiting on it only, which
    commits and leaves the graph inside the loop.  The loop must skip it:
    pinning it would give the committed node its serial back."""
    cc = ConcurrencyController({"k": 0, "x": 0, "z": 0})
    w1 = cc.begin(1)
    cc.read(w1, "x")
    cc.read(w1, "z")
    cc.write(w1, "k", 1)
    w2 = cc.begin(2)
    cc.write(w2, "x", 2)            # R1: w1 -> w2
    cc.write(w2, "k", 2)
    assert cc.finish(w2) is False   # waits on w1
    chosen = cc.begin(3)
    cc.write(chosen, "k", 3)
    reader = cc.begin(4)
    cc.write(reader, "z", 4)        # R1: w1 -> reader
    assert cc.read(reader, "k") == 3
    assert w1.status is NodeStatus.ABORTED
    assert w2.status is NodeStatus.COMMITTED
    assert cc.execution_order() == [2]
    assert w2._index_serial is None and w2 not in cc.graph._indexed
    assert cc.graph.writers_of("k") == [chosen]
    assert all(node is None or node.alive for node in cc.graph._indexed)
