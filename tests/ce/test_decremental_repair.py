"""Tests for tombstoned aborts in the dependency graph's closure index.

A ``detach_node`` absorbs the departing node by tombstoning its serial —
clear its ``live`` bit, zero its rows — while the BRIDGE edges added in
the same pass keep survivor reachability identical.  The index is exact
from the first edge on and is never rebuilt except to compact holes.

Covered here:

* randomized detach/add interleavings where the closure must equal both
  the reference DFS and a from-scratch rebuild, with no compaction while
  holes stay below the live serials;
* abort storms: through the controller, ``index_rebuilds`` stays below
  a small bound while aborts number in the tens; through the executor
  pool, where every abort and every commit leaves a hole, each
  compaction renumbers fewer survivors than the holes it drops;
* eager compaction once holes outnumber live serials, and the one-owner
  rule: a node another graph indexes cannot be detached here;
* batch boundaries: the last commit of a batch empties its index in
  place, so the boundary check finds nothing to rebuild;
* counter plumbing through ``CCStats``, per-batch deltas, and
  :class:`MetricsCollector`.

Tests taking the ``graph_cls`` fixture run once per row backend id
(``tests/ce/word_rows.py``): on the plain graph, and with every closure
row held to a packed word-row reference after each mutation.
"""

import random

import pytest

from repro.ce import CEConfig, CERunner, ConcurrencyController
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
from tests.ce.graph_reference import has_path_dfs, is_acyclic


# ------------------------------------------------------- repair correctness


def reachability_matrix(graph, nodes, alive):
    return [[graph.has_path(nodes[a], nodes[b]) for b in alive]
            for a in alive]


@pytest.mark.parametrize("seed", range(10))
def test_repaired_closure_equals_scratch_closure(seed, graph_cls):
    """Random add/detach interleavings sized to keep holes below the live
    serials: every indexed detach is one tombstone, nothing compacts, and
    the closure agrees with the reference DFS *and* with a from-scratch
    rebuild over the post-removal adjacency."""
    rng = random.Random(seed * 7919 + 3)
    graph = graph_cls()
    n = 40
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n)]
    for node in nodes:
        graph.add_node(node)
    alive = list(range(n))
    graph.add_edge(nodes[0], nodes[1], "k", EdgeKind.ANTI)
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
            if nodes[victim]._index_serial is not None:
                indexed_detaches += 1  # edge-less victims cost nothing
            nodes[victim].status = NodeStatus.ABORTED
            graph.detach_node(nodes[victim])
        else:
            a, b = rng.choice(alive), rng.choice(alive)
            assert graph.has_path(nodes[a], nodes[b]) == \
                has_path_dfs(nodes[a], nodes[b])
    assert graph.index_rebuilds == 0
    assert graph.index_repairs == indexed_detaches
    # The tombstoned closure == the reference DFS, exhaustively ...
    for a in alive:
        for b in alive:
            assert graph.has_path(nodes[a], nodes[b]) == \
                has_path_dfs(nodes[a], nodes[b]), (seed, a, b)
    repaired = reachability_matrix(graph, nodes, alive)
    # ... and == a from-scratch rebuild over the same adjacency.
    graph._rebuild_index()
    assert graph.index_rebuilds == 1
    assert reachability_matrix(graph, nodes, alive) == repaired


def test_repair_handles_interleaved_bridges(graph_cls):
    """Detaching the middle of a chain tombstones its serial — its bit
    lingers in the survivors' rows, masked out by ``live`` — and the
    bridge insertion is an index no-op (the pair was already reachable)."""
    graph = graph_cls()
    a, mid, b = (TxNode(tx_id=i, attempt=1) for i in range(3))
    for node in (a, mid, b):
        graph.add_node(node)
    graph.add_edge(a, mid, "k", EdgeKind.READ_FROM)
    graph.add_edge(mid, b, "k", EdgeKind.READ_FROM)
    serial = mid._index_serial
    mid.status = NodeStatus.ABORTED
    graph.detach_node(mid)
    assert graph.index_repairs == 1
    assert not graph._live >> serial & 1
    assert graph._down[serial] == graph._up[serial] == 0
    assert graph.rows(a)[0] >> serial & 1  # the tombstone stays in a's row
    assert graph.has_path(a, b)            # bridged, answered in place
    assert graph.has_edge(a, b)
    assert not graph.has_path(b, a)
    assert graph.index_rebuilds == 0


# ------------------------------------------------------ compaction, owner


def chain_graph(n, graph_cls=DependencyGraph):
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n)]
    for node in nodes:
        graph.add_node(node)
    for i in range(n - 1):
        graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
    return graph, nodes


def test_hole_domination_falls_back_to_compacting_rebuild(graph_cls):
    """The detach that makes holes outnumber live serials compacts the
    serial space before it returns."""
    graph, nodes = chain_graph(10, graph_cls)
    for node in nodes[1:6]:  # five tombstones: holes 5, width 10
        node.status = NodeStatus.ABORTED
        graph.detach_node(node)
    assert graph.index_repairs == 5
    assert graph.index_rebuilds == 0
    assert graph._index_holes == 5
    nodes[6].status = NodeStatus.ABORTED
    graph.detach_node(nodes[6])  # holes 6 of width 10: dominated
    assert graph.index_repairs == 6
    assert graph.index_rebuilds == 1
    assert len(graph._indexed) == 4  # compacted to survivors 0, 7, 8, 9
    assert graph._index_holes == 0
    assert graph._live == 0b1111
    assert graph.has_path(nodes[0], nodes[9])  # bridged chain


# ------------------------------------------------------------- abort storms


@pytest.mark.usefixtures("graph_cls")
def test_controller_abort_storm_rebuilds_bounded():
    """Tens of aborts on a hot-key controller must not trigger tens of
    rebuilds: aborts repair in place."""
    rng = random.Random(17)
    cc = ConcurrencyController({f"k{i}": 0 for i in range(3)})
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
    assert stats.index_rebuilds <= 5
    assert is_acyclic(cc.graph)


@pytest.fixture
def compactions(monkeypatch):
    """``(survivors, holes)`` of the serial space at every compaction."""
    seen = []
    rebuild = DependencyGraph._rebuild_index

    def counted(graph):
        holes = graph._index_holes
        seen.append((len(graph._indexed) - holes, holes))
        rebuild(graph)

    monkeypatch.setattr(DependencyGraph, "_rebuild_index", counted)
    return seen


def assert_amortized(compactions, stats):
    """Each compaction renumbers fewer survivors than the holes it drops,
    which are at most the departures (indexed aborts and commits) of the
    batches ``stats`` covers, and the rows stay one 64-bit word wide."""
    assert compactions, "nothing compacted"
    assert all(survivors < holes for survivors, holes in compactions)
    assert sum(holes for _, holes in compactions) \
        <= sum(s.index_repairs + s.commits for s in stats)
    assert max(s.bitset_words for s in stats) == 1


@pytest.mark.usefixtures("graph_cls")
def test_executor_pool_abort_storm_rebuilds_collapse(compactions):
    """The acceptance criterion at test scale: a hot-key RMW batch through
    the real executor pool, with re-executions in the dozens, pays for
    its compactions in amortized O(1) rows per departure, and its rows
    stay one 64-bit word wide."""
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
    stats = runner.last_session.cc.stats
    assert stats.aborts > 20, "storm did not materialize"
    assert stats.index_rebuilds == len(compactions)
    assert_amortized(compactions, [stats])
    assert stats.index_repairs >= stats.aborts - 10
    assert stats.commits == len(proc.value.committed) == n


# ------------------------------------------------------------ batch boundaries


@pytest.mark.usefixtures("graph_cls")
def test_streaming_prune_no_longer_rebuilds_every_boundary(compactions):
    """A batch's last commit leaves every serial a hole, which resets the
    index in place: the boundary finds an empty index and rebuilds
    nothing.  Within each batch, compactions stay amortized.

    Driven through one session, batch k+1 admitted when batch k's drain
    returns, so each batch's index can be probed on its own controller
    at its boundary."""
    registry = default_registry()
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=64, read_probability=0.5, theta=0.9),
        ShardMap(1), seed=7)
    batches = [workload.batch(25) for _ in range(8)]
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=8), make_rng(7))
    session = runner.open_session(env)
    state = dict(initial_state(64))
    results = []

    def pump():
        for batch in batches:
            session.admit(batch, dict(state))
            result = yield session.drain()
            assert result is not None
            state.update(result.final_writes())
            graph = session.cc.graph
            assert graph.nodes == {}
            assert graph._indexed == [] and graph._live == 0  # reset
            results.append(result)

    proc = env.process(pump())
    env.run()
    assert proc.triggered
    session.close()
    assert sum(r.stats.commits for r in results) == 8 * 25
    assert sum(r.stats.index_rebuilds for r in results) == len(compactions)
    assert_amortized(compactions, [r.stats for r in results])
    assert runner.last_session.closed


# ------------------------------------------------------------ counter plumbing


def test_repair_counters_flow_through_stats_and_metrics():
    cc = ConcurrencyController({"k": 0})
    t1 = cc.begin(1)
    cc.write(t1, "k", 1)
    t2 = cc.begin(2)
    cc.read(t2, "k")
    t3 = cc.begin(3)
    cc.read(t3, "k")
    cc.abort_transaction(2)                 # one tombstone
    stats = cc.stats
    assert stats.index_repairs == cc.graph.index_repairs == 1
    assert stats.index_rebuilds == cc.graph.index_rebuilds == 0
    collector = MetricsCollector()
    collector.record_ce_batch(stats, graph_nodes=len(cc.graph.nodes))
    collector.record_ce_batch(stats)
    assert collector.cc_index_repairs == 2 * stats.index_repairs
    assert collector.cc_index_rebuilds == 0


def test_cluster_result_carries_repair_counters():
    from repro.core import ThunderboltConfig
    from repro.core.cluster import Cluster
    config = ThunderboltConfig(n_replicas=4, seed=3, batch_size=8)
    cluster = Cluster(config, WorkloadConfig(accounts=16, theta=0.9))
    result = cluster.run(0.05)
    assert result.cc_index_repairs >= 0
    assert result.cc_index_rebuilds >= 0
    assert result.cc_index_repairs == cluster.metrics.cc_index_repairs
    assert result.cc_index_rebuilds == cluster.metrics.cc_index_rebuilds
