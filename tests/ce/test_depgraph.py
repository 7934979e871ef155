"""Unit tests for the dependency-graph structure."""

import pytest

from repro.ce.depgraph import (DependencyGraph, EdgeKind, KeyRecord,
                               NodeStatus, TxNode)
from repro.errors import SerializationError
from tests.ce.graph_reference import edge_count, is_acyclic


def make_node(tx_id, attempt=1):
    return TxNode(tx_id=tx_id, attempt=attempt)


@pytest.fixture
def graph():
    return DependencyGraph()


def test_add_and_get_node(graph):
    node = make_node(1)
    graph.add_node(node)
    assert graph.get(1) is node
    assert graph.get(2) is None


def test_second_live_attempt_rejected(graph):
    graph.add_node(make_node(1))
    with pytest.raises(SerializationError):
        graph.add_node(make_node(1, attempt=2))


def test_new_attempt_after_abort_allowed(graph):
    first = make_node(1)
    graph.add_node(first)
    first.status = NodeStatus.ABORTED
    graph.add_node(make_node(1, attempt=2))
    assert graph.get(1).attempt == 2


def test_add_edge_and_has_edge(graph):
    a, b = make_node(1), make_node(2)
    graph.add_node(a)
    graph.add_node(b)
    graph.add_edge(a, b, "k", EdgeKind.READ_FROM)
    assert graph.has_edge(a, b)
    assert not graph.has_edge(b, a)


def test_self_edge_rejected(graph):
    a = make_node(1)
    graph.add_node(a)
    with pytest.raises(SerializationError):
        graph.add_edge(a, a, "k", EdgeKind.ANTI)


def test_edge_into_committed_node_rejected(graph):
    """A committed node has left the graph: an edge to or from it is
    refused, named by both transactions, the key and the kind, before
    either endpoint is given a serial."""
    a, b, c = make_node(1), make_node(2), make_node(3)
    for node in (a, b, c):
        graph.add_node(node)
    graph.add_edge(a, b, "k", EdgeKind.READ_FROM)
    a.status = NodeStatus.COMMITTED
    graph.evict(a)
    c.status = NodeStatus.COMMITTED  # committed without an edge
    graph.evict(c)
    indexed = list(graph._indexed)
    for src, dst, committed in ((b, a, a), (b, c, c), (c, b, c)):
        with pytest.raises(SerializationError, match=rf"edge {src.tx_id} "
                           rf"-> {dst.tx_id} \(key x, pin\) touches "
                           rf"committed transaction {committed.tx_id}"):
            graph.add_edge(src, dst, "x", EdgeKind.PIN)
        assert not graph.has_edge(src, dst)
        assert graph._indexed == indexed
        assert a._index_serial is None and c._index_serial is None
    assert graph.nodes == {2: b} and not b.in_edges


def test_duplicate_edge_label_idempotent(graph):
    a, b = make_node(1), make_node(2)
    graph.add_edge(a, b, "k", EdgeKind.PIN)
    graph.add_edge(a, b, "k", EdgeKind.PIN)
    assert edge_count(graph) == 0  # nodes not registered in graph.nodes
    assert len(a.out_edges[b]) == 1


def test_has_path_transitive(graph):
    a, b, c = make_node(1), make_node(2), make_node(3)
    graph.add_edge(a, b, "k", EdgeKind.ANTI)
    graph.add_edge(b, c, "k2", EdgeKind.ANTI)
    assert graph.has_path(a, c)
    assert not graph.has_path(c, a)
    assert graph.has_path(a, a)


def test_writer_reader_indexes(graph):
    a, b = make_node(1), make_node(2)
    a.records["k"] = KeyRecord(wrote=True, last_write=1)
    graph.register_writer("k", a)
    graph.register_reader("k", b)
    assert graph.writers_of("k") == [a]
    assert graph.readers_of("k") == [b]


def abort(graph, node):
    """What the controller does to an aborted attempt."""
    node.status = NodeStatus.ABORTED
    graph.detach_node(node)


def test_aborted_nodes_excluded_from_indexes(graph):
    a = make_node(1)
    a.records["k"] = KeyRecord(wrote=True)
    graph.register_writer("k", a)
    abort(graph, a)
    assert graph.writers_of("k") == []


def test_detach_removes_edges_and_back_references(graph):
    a, b, c = make_node(1), make_node(2), make_node(3)
    for node in (a, b, c):
        graph.add_node(node)
    graph.add_edge(a, b, "k", EdgeKind.READ_FROM)
    graph.add_edge(c, a, "k", EdgeKind.ANTI)
    a.records["k"] = KeyRecord(wrote=True, last_write=1)
    a.records["k"].readers[b] = None
    b.records["k"] = KeyRecord(first_read=1, read_from=a)
    graph.register_writer("k", a)
    a.status = NodeStatus.ABORTED
    former_out = graph.detach_node(a)
    assert former_out == [b]
    assert a not in b.in_edges
    assert a not in c.out_edges
    assert not a.out_edges and not a.in_edges


def test_detach_cleans_read_from_backrefs(graph):
    writer, reader = make_node(1), make_node(2)
    writer.records["k"] = KeyRecord(wrote=True, last_write=5)
    writer.records["k"].readers[reader] = None
    reader.records["k"] = KeyRecord(first_read=5, read_from=writer)
    graph.add_node(writer)
    graph.add_node(reader)
    reader.status = NodeStatus.ABORTED
    graph.detach_node(reader)
    assert reader not in writer.records["k"].readers


def test_is_acyclic_true_for_dag(graph):
    nodes = [make_node(i) for i in range(4)]
    for node in nodes:
        graph.add_node(node)
    graph.add_edge(nodes[0], nodes[1], "k", EdgeKind.ANTI)
    graph.add_edge(nodes[1], nodes[2], "k", EdgeKind.ANTI)
    graph.add_edge(nodes[0], nodes[3], "k", EdgeKind.ANTI)
    assert is_acyclic(graph)


def plant_edge(src, dst, key, kind):
    """Write ``src -> dst`` into the adjacency behind the closure's back:
    ``add_edge`` refuses a cycle-closing edge."""
    src.out_edges.setdefault(dst, {})[(key, kind)] = None
    dst.in_edges.setdefault(src, {})[(key, kind)] = None


def test_is_acyclic_detects_cycle(graph):
    a, b = make_node(1), make_node(2)
    graph.add_node(a)
    graph.add_node(b)
    graph.add_edge(a, b, "k", EdgeKind.ANTI)
    with pytest.raises(SerializationError, match="closes a cycle"):
        graph.add_edge(b, a, "k2", EdgeKind.ANTI)
    assert is_acyclic(graph)
    plant_edge(b, a, "k2", EdgeKind.ANTI)
    assert not is_acyclic(graph)


def test_node_type_classification():
    node = make_node(1)
    node.records["r"] = KeyRecord(first_read=1)
    node.records["w"] = KeyRecord(wrote=True, last_write=2)
    assert node.is_read_node("r") and not node.is_write_node("r")
    assert node.is_write_node("w") and not node.is_read_node("w")
    assert not node.is_read_node("missing")
    assert node.has_any_write()


def test_read_then_write_record_is_write_node():
    node = make_node(1)
    node.records["k"] = KeyRecord(first_read=1, wrote=True, last_write=2)
    # §8.1: at most two operations retained: first read and last write
    assert node.is_write_node("k")
    assert not node.is_read_node("k")
    assert node.records["k"].read_value() == 2


def test_read_write_sets():
    node = make_node(1)
    node.records["a"] = KeyRecord(first_read=1)
    node.records["b"] = KeyRecord(wrote=True, last_write=2)
    node.records["c"] = KeyRecord(first_read=3, wrote=True, last_write=4)
    assert node.read_set() == {"a": 1, "c": 3}
    assert node.write_set() == {"b": 2, "c": 4}


def test_key_record_read_value_requires_read():
    record = KeyRecord()
    with pytest.raises(SerializationError):
        record.read_value()


# ---------------------------------------------------------------------------
# Determinism: detach-time bridging must not depend on PYTHONHASHSEED.
# ---------------------------------------------------------------------------

_BRIDGE_SCENARIO = """
from repro.ce.depgraph import DependencyGraph, EdgeKind, NodeStatus, TxNode

graph = DependencyGraph()
nodes = {i: TxNode(tx_id=i, attempt=1) for i in range(1, 13)}
for node in nodes.values():
    graph.add_node(node)
edges = [
    (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5), (3, 6), (4, 6),
    (5, 7), (6, 7), (5, 8), (6, 8), (7, 9), (8, 9), (7, 10), (8, 10),
    (9, 11), (10, 11), (9, 12), (10, 12),
]
for index, (src, dst) in enumerate(edges):
    graph.add_edge(nodes[src], nodes[dst], f"key-{index}", EdgeKind.ANTI)
for victim in (5, 7, 4, 9):  # abort-heavy: detach interior nodes
    nodes[victim].status = NodeStatus.ABORTED
    graph.detach_node(nodes[victim])
for i in sorted(nodes):
    node = nodes[i]
    print(i, [peer.tx_id for peer in node.out_edges],
          [peer.tx_id for peer in node.in_edges])
"""


def test_detach_bridging_is_hash_seed_independent():
    """The bridging pass iterates insertion-ordered structures, so the
    surviving adjacency (bridge edges included, in order) is identical
    under any PYTHONHASHSEED."""
    import os
    import pathlib
    import subprocess
    import sys

    src_dir = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    outputs = set()
    for seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
        result = subprocess.run(
            [sys.executable, "-c", _BRIDGE_SCENARIO], env=env,
            capture_output=True, text=True, check=True)
        outputs.add(result.stdout)
    assert len(outputs) == 1
