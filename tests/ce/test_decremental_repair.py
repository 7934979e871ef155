"""Tests for decremental closure repair in the dependency graph.

The reachability index used to invalidate wholesale on every
``detach_node`` (generation bump + lazy rebuild).  It now repairs the
bitsets in place — clear the departing node's bit from its
ancestor/descendant cone, with the BRIDGE edges added in the same pass
keeping survivor reachability identical — and falls back to the rebuild
only per the decision rule in :meth:`DependencyGraph._index_detach`.

Covered here:

* randomized detach/add interleavings where the repaired closure must
  equal both the reference DFS and a from-scratch rebuild, with zero
  rebuilds after the first build (the interleavings stay below the
  fallback thresholds, so every detach must take the repair path);
* abort storms through the controller and the executor pool where
  ``index_rebuilds`` must stay below a small bound while aborts number
  in the tens to hundreds;
* the fallback decision rule (hole domination, cone threshold, stale
  index, foreign owner);
* pruning interop: a streaming run's boundary prunes no longer schedule
  one rebuild per batch;
* counter plumbing through ``CCStats``, per-batch deltas, and
  :class:`MetricsCollector`.

Tests taking the ``graph_cls`` fixture run once per row backend id
(``tests/ce/word_rows.py``): on the plain graph, and with every closure
row held to a packed word-row reference after each mutation.
"""

import random

import pytest

from repro.ce import CEConfig, CERunner, ConcurrencyController, StreamingRunner
from repro.ce.depgraph import DependencyGraph, EdgeKind, NodeStatus, TxNode
from repro.contracts import default_registry, initial_state
from repro.contracts.contract import ContractRegistry
from repro.errors import TransactionAborted
from repro.metrics import MetricsCollector
from repro.sim import Environment, make_rng
from repro.txn import Transaction
from repro.workloads import SmallBankWorkload, WorkloadConfig
from repro.core.shards import ShardMap
from repro.workloads.ycsb import (YCSB_RMW, initial_state as ycsb_state,
                                  register_ycsb)


# ------------------------------------------------------- repair correctness


def reachability_matrix(graph, nodes, alive):
    return [[graph.has_path(nodes[a], nodes[b]) for b in alive]
            for a in alive]


@pytest.mark.parametrize("seed", range(10))
def test_repaired_closure_equals_scratch_closure(seed, graph_cls):
    """Random add/detach interleavings sized to stay below the fallback
    thresholds: every detach must be absorbed in place, and the repaired
    bitsets must agree with the reference DFS *and* with a from-scratch
    rebuild over the post-removal adjacency."""
    rng = random.Random(seed * 7919 + 3)
    graph = graph_cls()
    n = 40
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n)]
    for node in nodes:
        graph.add_node(node)
    alive = list(range(n))
    graph.add_edge(nodes[0], nodes[1], "k", EdgeKind.ANTI)
    assert graph.has_path(nodes[0], nodes[1])  # force the initial build
    indexed_detaches = 0
    for _ in range(300):
        action = rng.random()
        if action < 0.6 and len(alive) >= 2:
            a, b = sorted(rng.sample(alive, 2))
            graph.add_edge(nodes[a], nodes[b], f"k{rng.randrange(4)}",
                           EdgeKind.ANTI)
        elif action < 0.75 and len(alive) > 29:
            # keep holes below the domination threshold (< n/2 detaches)
            victim = alive.pop(rng.randrange(len(alive)))
            if nodes[victim]._index_owner is not None:
                indexed_detaches += 1  # edge-less victims cost nothing
            nodes[victim].status = NodeStatus.ABORTED
            graph.detach_node(nodes[victim])
        else:
            a, b = rng.choice(alive), rng.choice(alive)
            assert graph.has_path(nodes[a], nodes[b]) == \
                graph._has_path_dfs(nodes[a], nodes[b])
    # Every indexed detach was repaired in place: never went stale.
    assert graph._built_gen == graph._gen
    assert graph.index_rebuilds == 1
    assert graph.repair_fallbacks == 0
    assert graph.index_repairs == indexed_detaches
    # The repaired closure == the reference DFS, exhaustively ...
    for a in alive:
        for b in alive:
            assert graph.has_path(nodes[a], nodes[b]) == \
                graph._has_path_dfs(nodes[a], nodes[b]), (seed, a, b)
    repaired = reachability_matrix(graph, nodes, alive)
    # ... and == a from-scratch rebuild over the same adjacency.
    graph._gen += 1
    graph._rebuild_index()
    assert graph.index_rebuilds == 2
    assert reachability_matrix(graph, nodes, alive) == repaired


def test_repair_handles_interleaved_bridges(graph_cls):
    """Detaching the middle of a diamond repairs in place and the bridge
    insertion is an index no-op (the pair was already marked reachable)."""
    graph = graph_cls()
    a, mid, b = (TxNode(tx_id=i, attempt=1) for i in range(3))
    for node in (a, mid, b):
        graph.add_node(node)
    graph.add_edge(a, mid, "k", EdgeKind.READ_FROM)
    graph.add_edge(mid, b, "k", EdgeKind.READ_FROM)
    assert graph.has_path(a, b)  # builds the index
    rebuilds = graph.index_rebuilds
    mid.status = NodeStatus.ABORTED
    graph.detach_node(mid)
    assert graph.index_repairs == 1
    assert graph.repair_frontier_nodes == 2  # one ancestor + one descendant
    assert graph._built_gen == graph._gen  # still valid: no rebuild pending
    assert graph.has_path(a, b)            # bridged, answered in place
    assert not graph.has_path(b, a)
    assert graph.index_rebuilds == rebuilds


# ------------------------------------------------------- fallback decision rule


def chain_graph(n, graph_cls=DependencyGraph):
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n)]
    for node in nodes:
        graph.add_node(node)
    for i in range(n - 1):
        graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
    return graph, nodes


def test_hole_domination_falls_back_to_compacting_rebuild(graph_cls):
    """Once holes outnumber live serials, a detach schedules a rebuild
    instead of repairing, and the rebuild compacts the serial space."""
    graph, nodes = chain_graph(10, graph_cls)
    assert graph.has_path(nodes[0], nodes[9])
    for node in nodes[1:6]:  # five repairs: holes 5, width 10
        node.status = NodeStatus.ABORTED
        graph.detach_node(node)
    assert graph.index_repairs == 5
    assert graph.repair_fallbacks == 0
    nodes[6].status = NodeStatus.ABORTED
    graph.detach_node(nodes[6])  # holes 6 of width 10: dominated
    assert graph.repair_fallbacks == 1
    assert graph._built_gen != graph._gen
    assert graph.has_path(nodes[0], nodes[9])  # rebuild fires, bridged chain
    assert graph.index_rebuilds == 2
    assert len(graph._indexed) == 4  # compacted to survivors 0, 7, 8, 9
    assert graph._index_holes == 0


def test_cone_threshold_falls_back(graph_cls):
    graph, nodes = chain_graph(12, graph_cls)
    assert graph.has_path(nodes[0], nodes[11])
    graph.repair_max_cone = 4
    victim = nodes[6]  # cone = 6 ancestors + 5 descendants > 4
    victim.status = NodeStatus.ABORTED
    graph.detach_node(victim)
    assert graph.repair_fallbacks == 1
    assert graph.index_repairs == 0
    assert graph.has_path(nodes[0], nodes[11])
    assert graph.index_rebuilds == 2


def test_stale_index_detach_is_not_a_fallback(graph_cls):
    """A detach while a rebuild is already pending neither repairs nor
    counts as a fallback — the pending rebuild absorbs it."""
    graph, nodes = chain_graph(4, graph_cls)
    # no query yet: _built_gen == -1, the index was never built
    nodes[1].status = NodeStatus.ABORTED
    graph.detach_node(nodes[1])
    assert graph.index_repairs == 0
    assert graph.repair_fallbacks == 0
    assert graph.has_path(nodes[0], nodes[3])
    assert graph.index_rebuilds == 1


def test_foreign_owner_detach_still_invalidates_both(graph_cls):
    """Hand-built sharing keeps the PR-1 semantics: detaching through a
    non-owner graph invalidates the owner (and the detaching graph)."""
    graph_a = graph_cls()
    graph_b = graph_cls()
    x, n, y = (TxNode(tx_id=i, attempt=1) for i in range(3))
    graph_a.add_edge(x, n, "k", EdgeKind.ANTI)
    graph_a.add_edge(n, y, "k", EdgeKind.ANTI)
    graph_a.add_edge(x, y, "k", EdgeKind.ANTI)
    assert graph_a.has_path(x, n)
    n.status = NodeStatus.ABORTED
    graph_b.detach_node(n)
    assert graph_a._built_gen != graph_a._gen  # owner invalidated
    assert graph_a.index_repairs == 0
    assert not graph_a.has_path(x, n)
    assert graph_a.has_path(x, y)


# ------------------------------------------------------------- abort storms


@pytest.mark.usefixtures("graph_cls")
def test_controller_abort_storm_rebuilds_bounded():
    """Tens of aborts on a hot-key controller must not trigger tens of
    rebuilds: aborts repair in place."""
    rng = random.Random(17)
    cc = ConcurrencyController({f"k{i}": 0 for i in range(3)},
                               check_invariants=True)
    live = []
    for tx_id in range(90):
        node = cc.begin(tx_id)
        try:
            key = f"k{rng.randrange(3)}"
            cc.write(node, key, cc.read(node, key) + 1)
            live.append(tx_id)
        except TransactionAborted:
            continue
        if rng.random() < 0.33 and live:
            cc.abort_transaction(live.pop(rng.randrange(len(live))),
                                 reason="storm")
    stats = cc.stats
    assert stats.aborts >= 20, "storm did not materialize"
    assert stats.index_repairs >= stats.aborts // 2
    assert stats.index_rebuilds <= 1 + stats.repair_fallbacks
    assert stats.index_rebuilds <= 5
    assert cc.graph.is_acyclic()


@pytest.mark.usefixtures("graph_cls")
def test_executor_pool_abort_storm_rebuilds_collapse():
    """The acceptance criterion at test scale: a hot-key RMW batch through
    the real executor pool keeps ``index_rebuilds`` in single digits while
    re-executions number in the dozens."""
    registry = ContractRegistry()
    register_ycsb(registry)
    n = 120
    txs = [Transaction(i, YCSB_RMW, (i % 2, 1 + i % 7), (0,))
           for i in range(n)]
    env = Environment()
    runner = CERunner(registry,
                      CEConfig(executors=16),
                      make_rng(5))
    proc = runner.run_batch(env, txs, ycsb_state(2))
    env.run()
    assert proc.triggered
    stats = runner.last_state.cc.stats
    assert stats.aborts > 20, "storm did not materialize"
    assert stats.index_rebuilds <= 10
    assert stats.index_repairs >= stats.aborts - stats.repair_fallbacks - 10
    assert runner.last_state.cc.committed_count() == n


# ------------------------------------------------------------- pruning interop


@pytest.mark.usefixtures("graph_cls")
def test_streaming_prune_no_longer_rebuilds_every_boundary():
    """Boundary prunes punch holes in place; rebuilds fire only when the
    serial space goes hole-dominated — strictly fewer than one per batch.

    Driven through one session with ``run_stream``'s one-batch-ahead
    admission (the graph holds ~2 batches at every boundary, the
    pipelined worst case), so the bitset width can be probed on the live
    controller before close() clears ``last_cc``."""
    registry = default_registry()
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=64, read_probability=0.5, theta=0.9),
        ShardMap(1), seed=7)
    batches = [workload.batch(25) for _ in range(8)]
    env = Environment()
    runner = StreamingRunner(registry,
                             CEConfig(executors=8),
                             make_rng(7))
    session = runner.open_session(env, dict(initial_state(64)))
    session.admit(batches[0])
    session.admit(batches[1])

    def pump():
        upcoming = 2
        while session.in_flight:
            result = yield session.drain()
            assert result is not None
            if upcoming < len(batches):
                session.admit(batches[upcoming])
                upcoming += 1

    proc = env.process(pump())
    env.run()
    assert proc.triggered
    graph = session.cc.graph
    # Bitset width stays a small multiple of the plateau, not the stream.
    assert len(graph._indexed) < 4 * 25
    stats = session.close().stats
    assert stats.nodes_pruned == 8 * 25
    assert stats.index_rebuilds < len(batches), \
        "pruning still schedules a rebuild at every boundary"
    assert runner.last_cc is None


# ------------------------------------------------------------ counter plumbing


def test_repair_counters_flow_through_stats_and_metrics():
    cc = ConcurrencyController({"k": 0})
    t1 = cc.begin(1)
    cc.write(t1, "k", 1)
    t2 = cc.begin(2)
    cc.read(t2, "k")
    t3 = cc.begin(3)
    cc.read(t3, "k")
    node1, node3 = cc.graph.get(1), cc.graph.get(3)
    assert cc.graph.has_path(node1, node3)  # build the index
    cc.abort_transaction(2)                 # repaired in place
    stats = cc.stats
    assert stats.index_repairs == cc.graph.index_repairs == 1
    assert stats.repair_frontier_nodes == cc.graph.repair_frontier_nodes >= 1
    assert stats.repair_fallbacks == cc.graph.repair_fallbacks == 0
    assert stats.index_rebuilds == 1
    collector = MetricsCollector()
    collector.record_ce_batch(stats, graph_nodes=len(cc.graph.nodes))
    collector.record_ce_batch(stats)
    assert collector.cc_index_repairs == 2 * stats.index_repairs
    assert collector.cc_repair_frontier_nodes \
        == 2 * stats.repair_frontier_nodes
    assert collector.cc_repair_fallbacks == 0


def test_cluster_result_carries_repair_counters():
    from repro.core import ThunderboltConfig
    from repro.core.cluster import Cluster
    config = ThunderboltConfig(n_replicas=4, seed=3, batch_size=8)
    cluster = Cluster(config, WorkloadConfig(accounts=16, theta=0.9))
    result = cluster.run(0.05)
    assert result.cc_index_repairs >= 0
    assert result.cc_repair_fallbacks >= 0
    assert result.cc_repair_frontier_nodes >= 0
    assert result.cc_index_repairs == cluster.metrics.cc_index_repairs
