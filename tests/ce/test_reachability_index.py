"""Regression tests for the incremental reachability index and the
related depgraph/runner fixes.

* index answers must equal the reference DFS under any sequence of edge
  insertions and detaches (the determinism of the whole executor depends
  on it),
* abort storms must leave the graph acyclic with a bounded edge count
  (selective BRIDGE edges), and
* the executor pool must terminate its worker processes once a batch
  completes.

Tests taking the ``graph_cls`` fixture run once per row backend id
(``tests/ce/word_rows.py``): on the plain graph, and with every closure
row held to a packed word-row reference after each mutation.
"""

import random

import pytest

from repro.ce import CEConfig, CERunner, ConcurrencyController
from repro.ce.depgraph import (DependencyGraph, EdgeKind, NodeStatus, TxNode)
from repro.contracts import default_registry, initial_state
from repro.errors import SerializationError, TransactionAborted
from repro.sim import Environment, make_rng
from repro.txn import Transaction
from repro.workloads.ycsb import (YCSB_RMW, initial_state as ycsb_state,
                                  register_ycsb)
from repro.contracts.contract import ContractRegistry
from tests.ce.graph_reference import edge_count, has_path_dfs, is_acyclic


# --------------------------------------------------------------- index


def random_dag_ops(rng, n_nodes, n_ops, graph_cls=DependencyGraph):
    """A reproducible op sequence: edge adds (low -> high serial, so the
    graph stays acyclic), detaches, and queries."""
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n_nodes)]
    for node in nodes:
        graph.add_node(node)
    alive = list(range(n_nodes))
    for _ in range(n_ops):
        action = rng.random()
        if action < 0.55 and len(alive) >= 2:
            a, b = sorted(rng.sample(alive, 2))
            graph.add_edge(nodes[a], nodes[b], f"k{rng.randrange(4)}",
                           EdgeKind.ANTI)
        elif action < 0.70 and len(alive) > 2:
            victim = alive.pop(rng.randrange(len(alive)))
            nodes[victim].status = NodeStatus.ABORTED
            graph.detach_node(nodes[victim])
        else:
            a = rng.choice(alive)
            b = rng.choice(alive)
            assert graph.has_path(nodes[a], nodes[b]) == \
                has_path_dfs(nodes[a], nodes[b])
    return graph, nodes, alive


@pytest.mark.parametrize("seed", range(8))
def test_index_matches_dfs_under_churn(seed, graph_cls):
    rng = random.Random(seed)
    graph, nodes, alive = random_dag_ops(rng, n_nodes=30, n_ops=300,
                                         graph_cls=graph_cls)
    # exhaustive final sweep over the survivors
    for a in alive:
        for b in alive:
            assert graph.has_path(nodes[a], nodes[b]) == \
                has_path_dfs(nodes[a], nodes[b]), (seed, a, b)


def test_index_exact_after_detach_bridge(graph_cls):
    """Bridges preserve the closure over survivors exactly: detaching the
    middle of a diamond keeps every surviving ordering and adds none."""
    graph = graph_cls()
    a, mid, b, side = (TxNode(tx_id=i, attempt=1) for i in range(4))
    for node in (a, mid, b, side):
        graph.add_node(node)
    graph.add_edge(a, mid, "k", EdgeKind.READ_FROM)
    graph.add_edge(mid, b, "k", EdgeKind.READ_FROM)
    graph.add_edge(a, side, "k2", EdgeKind.ANTI)
    assert graph.has_path(a, b)
    mid.status = NodeStatus.ABORTED
    graph.detach_node(mid)
    assert graph.has_path(a, b)          # bridged
    assert graph.has_edge(a, b)
    assert not graph.has_path(side, b)   # nothing invented
    assert not graph.has_path(b, a)


def test_detach_skips_redundant_bridges(graph_cls):
    """No BRIDGE edge is added for a pair that stays ordered through
    surviving nodes."""
    graph = graph_cls()
    pred, mid, alt, succ = (TxNode(tx_id=i, attempt=1) for i in range(4))
    for node in (pred, mid, alt, succ):
        graph.add_node(node)
    graph.add_edge(pred, mid, "k", EdgeKind.READ_FROM)
    graph.add_edge(mid, succ, "k", EdgeKind.READ_FROM)
    graph.add_edge(pred, alt, "k2", EdgeKind.ANTI)   # surviving detour
    graph.add_edge(alt, succ, "k2", EdgeKind.ANTI)
    mid.status = NodeStatus.ABORTED
    graph.detach_node(mid)
    assert graph.has_path(pred, succ)      # through alt
    assert not graph.has_edge(pred, succ)  # no redundant bridge
    bridge_labels = [label for labels in pred.out_edges.values()
                     for label in labels if label[1] is EdgeKind.BRIDGE]
    assert bridge_labels == []


def test_node_shared_across_two_graphs(graph_cls):
    """One graph indexes a node at a time: a second graph may neither add
    an edge to it nor detach it, and the owner's answers stay intact."""
    graph_a = graph_cls()
    graph_b = graph_cls()
    x, n, y = (TxNode(tx_id=i, attempt=1) for i in range(3))
    graph_a.add_edge(x, n, "k", EdgeKind.ANTI)
    graph_a.add_edge(n, y, "k", EdgeKind.ANTI)
    outsider = TxNode(tx_id=3, attempt=1)
    with pytest.raises(SerializationError, match="another graph"):
        graph_b.add_edge(outsider, n, "x", EdgeKind.ANTI)
    assert n not in outsider.out_edges  # refused before any mutation
    n.status = NodeStatus.ABORTED
    with pytest.raises(SerializationError, match="another graph"):
        graph_b.detach_node(n)
    assert graph_a.has_path(x, y) and graph_a.has_edge(x, n)
    graph_a.detach_node(n)  # the owner may
    assert graph_a.has_path(x, y) == has_path_dfs(x, y) is True
    graph_b.add_edge(outsider, n, "x", EdgeKind.ANTI)  # unowned now


def test_edgeless_abort_costs_no_rebuild(graph_cls):
    """Detaching a node that never touched an edge must not invalidate
    the index."""
    graph = graph_cls()
    a, b, loner = (TxNode(tx_id=i, attempt=1) for i in range(3))
    for node in (a, b, loner):
        graph.add_node(node)
    graph.add_edge(a, b, "k", EdgeKind.ANTI)
    assert graph.has_path(a, b)
    rebuilds = graph.index_rebuilds
    loner.status = NodeStatus.ABORTED
    graph.detach_node(loner)
    assert graph.has_path(a, b)
    assert graph.index_rebuilds == rebuilds


def test_index_compacts_on_rebuild(graph_cls):
    """Detached nodes' bit positions are dropped when holes come to
    outnumber live serials, and by any rebuild."""
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(10)]
    for node in nodes:
        graph.add_node(node)
    for i in range(9):
        graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
    for node in nodes[1:9]:
        node.status = NodeStatus.ABORTED
        graph.detach_node(node)
    # The sixth detach compacted 10 serials to 4; two holes since.
    assert graph.index_rebuilds == 1
    assert (len(graph._indexed), graph._index_holes) == (4, 2)
    assert graph.has_path(nodes[0], nodes[9])  # bridged chain
    graph._rebuild_index()
    assert len(graph._indexed) == 2
    assert graph._indexed[nodes[0]._index_serial] is nodes[0]


@pytest.mark.usefixtures("graph_cls")
def test_stats_counters_exposed():
    cc = ConcurrencyController({"k": 1})
    t1 = cc.begin(1)
    cc.write(t1, "k", 2)
    t2 = cc.begin(2)
    cc.read(t2, "k")   # rf edge t1 -> t2
    t3 = cc.begin(3)
    cc.read(t3, "k")   # rf edge t1 -> t3
    assert cc.stats.path_queries == cc.graph.path_queries > 0
    # The index is exact from the first edge: each abort is one tombstone
    # (see test_decremental_repair.py for the full counter coverage).
    cc.abort_transaction(2)
    assert cc.stats.index_repairs == cc.graph.index_repairs == 1
    assert cc.stats.index_rebuilds == cc.graph.index_rebuilds == 0
    cc.abort_transaction(3)  # two holes of three serials: compacts
    assert cc.stats.index_repairs == cc.graph.index_repairs == 2
    assert cc.stats.index_rebuilds == cc.graph.index_rebuilds == 1


def bits(*nodes):
    """The row bits of ``nodes`` (all indexed by the graph under test)."""
    return sum(1 << node._index_serial for node in nodes)


def test_rows_of_a_node_without_edges_are_empty():
    graph = DependencyGraph()
    a, b, loner = (TxNode(tx_id=i, attempt=1) for i in range(3))
    graph.add_edge(a, b, "k", EdgeKind.ANTI)
    assert graph.rows(loner) == (0, 0)
    down, up = graph.rows(a)
    assert down == bits(a, b) and up == bits(a)
    assert graph.index_rebuilds == 0  # exact from the first edge


# ------------------------------------------------------------ abort storms


def rmw_txs(n, records):
    return [Transaction(i, YCSB_RMW, (i % records, 1 + i % 7), (0,))
            for i in range(n)]


@pytest.mark.usefixtures("graph_cls")
def test_abort_storm_edges_bounded_and_acyclic(monkeypatch):
    """A hot-key RMW storm with external aborts sprinkled in: the graph
    must stay acyclic and BRIDGE accumulation must stay linear in the
    batch size, not quadratic.  The batch's graph is checked after every
    detach; at the boundary every commit has left it."""
    registry = ContractRegistry()
    register_ycsb(registry)
    n = 120
    edges, boundaries = [], []
    detach = DependencyGraph.detach_node
    prune = DependencyGraph.prune_committed

    def checked_detach(graph, node):
        former_out = detach(graph, node)
        assert is_acyclic(graph)
        # selective bridging keeps the edge count a small multiple of the
        # node count, not O(aborts * n)
        edges.append(edge_count(graph))
        return former_out

    def check_then_prune(graph):
        boundaries.append(len(graph.nodes))
        return prune(graph)

    monkeypatch.setattr(DependencyGraph, "detach_node", checked_detach)
    monkeypatch.setattr(DependencyGraph, "prune_committed",
                        check_then_prune)
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=16), make_rng(5))
    proc = runner.run_batch(env, rmw_txs(n, records=2), ycsb_state(2))
    env.run()
    assert proc.triggered and boundaries == [0]
    cc = runner.last_session.cc
    assert cc.stats.commits == len(proc.value.committed) == n
    assert cc.stats.aborts > 20, "storm did not materialize"
    assert len(edges) == cc.stats.aborts and max(edges) < 8 * n


def test_layered_abort_storm_no_bridge_blowup(graph_cls):
    """Dense layered DAG: every (pred, succ) pair of a detached node stays
    ordered through its surviving layer-mates, so selective bridging adds
    ZERO edges where bridge-every-pair would add W^2 labels per detach."""
    graph = graph_cls()
    width, depth = 8, 6
    layers = [[TxNode(tx_id=level * width + i, attempt=1)
               for i in range(width)] for level in range(depth)]
    for layer in layers:
        for node in layer:
            graph.add_node(node)
    for level in range(depth - 1):
        for upper in layers[level]:
            for lower in layers[level + 1]:
                graph.add_edge(upper, lower, "k", EdgeKind.ANTI)
    for level in range(1, depth - 1):
        for node in layers[level][:width // 2]:
            node.status = NodeStatus.ABORTED
            graph.detach_node(node)
    # Only edges among survivors remain; no bridges appear.  Survivor
    # counts per layer: full rims, halved middles.
    survivors = [width] + [width // 2] * (depth - 2) + [width]
    expected = sum(survivors[i] * survivors[i + 1] for i in range(depth - 1))
    assert edge_count(graph) == expected
    assert is_acyclic(graph)
    # Orderings across the holes survive through the remaining mates.
    assert graph.has_path(layers[0][0], layers[-1][-1])


@pytest.mark.usefixtures("graph_cls")
def test_external_abort_storm_on_controller():
    """Direct CC drive: abort a third of the transactions mid-flight."""
    rng = random.Random(17)
    cc = ConcurrencyController({f"k{i}": 0 for i in range(3)})
    live = []
    for tx_id in range(90):
        node = cc.begin(tx_id)
        try:
            key = f"k{rng.randrange(3)}"
            value = cc.read(node, key)
            cc.write(node, key, value + 1)
            live.append(tx_id)
        except TransactionAborted:
            continue
        if rng.random() < 0.33 and live:
            cc.abort_transaction(live.pop(rng.randrange(len(live))),
                                 reason="storm")
    assert is_acyclic(cc.graph)
    # survivors' reachability still matches the reference DFS
    survivors = [n for n in cc.graph.nodes.values()
                 if n.status is not NodeStatus.ABORTED]
    for a in survivors[:30]:
        for b in survivors[:30]:
            assert cc.graph.has_path(a, b) == has_path_dfs(a, b)


# ------------------------------------------------------------ worker pool


def test_worker_processes_terminate_after_batch():
    registry = default_registry()
    rng = make_rng(0)
    txs = []
    for i in range(20):
        a, b = rng.sample(range(8), 2)
        txs.append(Transaction(i, "smallbank.send_payment",
                               (a, b, 1 + i % 5), (0,)))
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(2))
    proc = runner.run_batch(env, txs, initial_state(8))
    env.run()
    assert proc.triggered
    workers = runner.last_session.workers
    assert len(workers) == 8
    assert all(not worker.is_alive for worker in workers), \
        "idle workers left blocked on queue.get() after the batch"


def test_sequential_batches_on_one_environment():
    """Long-lived environment: back-to-back batches leak no live workers."""
    registry = default_registry()
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=4), make_rng(9))
    all_workers = []
    for round_no in range(3):
        rng = make_rng(round_no)
        txs = [Transaction(i, "smallbank.get_balance",
                           (rng.randrange(8),), (0,)) for i in range(10)]
        proc = runner.run_batch(env, txs, initial_state(8))
        env.run()
        assert proc.triggered and len(proc.value.committed) == 10
        all_workers.extend(runner.last_session.workers)
    assert len(all_workers) == 12
    assert all(not worker.is_alive for worker in all_workers)
