"""Set-at-a-time closure updates and cohort rules against their point forms.

Two optimisations replace per-row and per-member work with row algebra;
each keeps its old form here, as a test-only reference, and is held to it:

* ``DependencyGraph._connect`` ORs only into the closure rows an edge
  changes (``up[src] & ~up[dst]`` and ``down[dst] & ~down[src]``).
  ``UnmaskedGraph._connect`` ORs into every live descendant's ``up`` row
  and every live ancestor's ``down`` row; under randomized churn with
  commits (evictions), aborts, boundary checks and compactions the two
  row tables and ``live`` sets must be bit-identical after every
  operation, and every query must match the reference DFS.
* The controller classifies a key's cohort with the node's rows (R1:
  ``up[node]``, R2: ``down[node] | up[chosen]``, R4: ``down[node]``).
  ``PointQueryController`` asks ``has_path`` per member, as the rules did
  before; over seeded theta = 0.99 schedules both must insert the same
  edges, abort the same attempts and commit the same order, with the
  same index repairs and compactions.  After every call of the direct
  schedule, the graph holds live attempts only: no committed or aborted
  node sits in a per-key index (``writers_of`` and ``readers_of`` copy
  those indexes without a status filter) or in the closure index, and
  no committed node sits in the node table.
"""

import random

import pytest

from repro.ce import CEConfig, CERunner, ConcurrencyController
from repro.ce import streaming as streaming_module
from repro.ce.depgraph import DependencyGraph, EdgeKind, NodeStatus, TxNode
from repro.contracts import default_registry, initial_state
from repro.core.shards import ShardMap
from repro.errors import TransactionAborted
from repro.sim import Environment, make_rng
from repro.workloads import SmallBankWorkload, WorkloadConfig
from tests.ce.graph_reference import has_path_dfs

THETA = 0.99


# ------------------------------------------------------------- references


class UnmaskedGraph(DependencyGraph):
    """``_connect`` without the skip of rows that already hold the edge."""

    def _connect(self, src, dst):
        down = self._down
        up = self._up
        ancestors = up[src] & self._live
        descendants = down[dst] & self._live
        remaining = ancestors
        while remaining:
            low = remaining & -remaining
            down[low.bit_length() - 1] |= descendants
            remaining ^= low
        remaining = descendants
        while remaining:
            low = remaining & -remaining
            up[low.bit_length() - 1] |= ancestors
            remaining ^= low


class RecordingController(ConcurrencyController):
    """Records every edge insertion and every abort, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.edges = []
        self.aborts = []
        add_edge = self.graph.add_edge

        def recording_add_edge(src, dst, key, kind):
            self.edges.append((src.tx_id, src.attempt, dst.tx_id,
                               dst.attempt, key, kind.value))
            add_edge(src, dst, key, kind)

        self.graph.add_edge = recording_add_edge
        on_abort = self._on_abort

        def recording_on_abort(tx_id):
            self.aborts.append((tx_id, self._attempts[tx_id]))
            if on_abort is not None:
                on_abort(tx_id)

        self._on_abort = recording_on_abort

    def outcome(self):
        stats = self.stats
        return {
            "edges": self.edges,
            "aborts": self.aborts,
            "order": self.execution_order(),
            "writes": self.final_writes(),
            "index": (stats.index_rebuilds, stats.index_repairs),
        }


class PointQueryController(RecordingController):
    """R1, R2's pinning and R4 as they were before cohort classification:
    one ``has_path`` per cohort member."""

    def _pin_other_writers(self, node, key, chosen):
        for writer in self.graph.writers_of(key):
            if node.status is NodeStatus.ABORTED:
                raise TransactionAborted(node.tx_id, f"cascade during {key}")
            if writer is node or writer is chosen or not writer.alive:
                continue
            if chosen is not None and self.graph.has_path(writer, chosen):
                continue
            if self.graph.has_path(node, writer):
                continue
            if chosen is not None \
                    and not self.graph.has_path(chosen, writer) \
                    and not self.graph.has_path(writer, node):
                self.graph.add_edge(writer, chosen, key, EdgeKind.PIN)
                continue
            if not self.graph.has_path(writer, node):
                self.graph.add_edge(node, writer, key, EdgeKind.ANTI)
                continue
            if not node.has_any_write():
                self._abort(node, reason=f"read cycle on {key}",
                            cascading=True)
                raise TransactionAborted(node.tx_id, f"read cycle on {key}")
            self._abort(writer, reason=f"write cycle on {key}",
                        cascading=True)

    def _order_readers_before_writer(self, node, key):
        for reader in self.graph.readers_of(key):
            if node.status is NodeStatus.ABORTED:
                raise TransactionAborted(node.tx_id, f"cascade during {key}")
            if reader is node or not reader.alive:
                continue
            record = reader.records.get(key)
            if record is None or not record.has_read:
                continue
            if record.read_from is node:
                continue
            if self.graph.has_path(reader, node):
                continue
            if self.graph.has_path(node, reader):
                self._abort(reader, reason=f"stale read of {key}",
                            cascading=True)
                continue
            self.graph.add_edge(reader, node, key, EdgeKind.ANTI)

    def _order_later_writers(self, node):
        for key, record in node.records.items():
            if not record.wrote:
                continue
            for writer in self.graph.writers_of(key):
                if writer is node:
                    continue
                if not self.graph.has_path(node, writer):
                    self.graph.add_edge(node, writer, key,
                                        EdgeKind.WRITE_WRITE)


# ---------------------------------------------------------- masked connect


def churn(rng, graphs, n_nodes=36, n_ops=400):
    """Apply one random operation sequence to every graph in ``graphs``
    and yield after each operation: edge inserts (low -> high, so the
    graph stays acyclic, and never touching a committed node), aborts of
    uncommitted nodes (detach with bridging, then a fresh attempt),
    commits of nodes without in-edges (evicted), the boundary check once
    every node is committed (then a fresh cohort of nodes, as the next
    batch), forced compactions, and queries (held to the reference
    DFS)."""
    nodes = [[] for _ in graphs]
    alive = []

    def begin(index, attempt):
        for graph, own in zip(graphs, nodes):
            node = TxNode(tx_id=index, attempt=attempt)
            if index < len(own):
                own[index] = node
            else:
                own.append(node)
            graph.add_node(node)

    def new_cohort():
        first = len(nodes[0])
        alive[:] = range(first, first + n_nodes)
        for index in alive:
            begin(index, 1)

    new_cohort()
    for _ in range(n_ops):
        action = rng.random()
        if action < 0.55:
            a, b = sorted(rng.sample(alive, 2))
            if not (nodes[0][a].alive and nodes[0][b].alive):
                continue  # the graph refuses an edge touching a commit
            for graph, own in zip(graphs, nodes):
                graph.add_edge(own[a], own[b], "k", EdgeKind.ANTI)
        elif action < 0.70:
            victim = rng.choice(alive)
            if nodes[0][victim].status is NodeStatus.COMMITTED:
                continue  # the controller never aborts these
            for graph, own in zip(graphs, nodes):
                own[victim].status = NodeStatus.ABORTED
                graph.detach_node(own[victim])
            begin(victim, nodes[0][victim].attempt + 1)
        elif action < 0.78:
            pending = [index for index in alive if nodes[0][index].status
                       is not NodeStatus.COMMITTED]
            for index in rng.sample(pending, min(len(pending), 4)):
                if nodes[0][index].in_edges:
                    continue  # commits wait for their dependencies
                for graph, own in zip(graphs, nodes):
                    own[index].status = NodeStatus.COMMITTED
                    graph.evict(own[index])
            if all(nodes[0][index].status is NodeStatus.COMMITTED
                   for index in alive):
                for graph in graphs:
                    graph.prune_committed()
                new_cohort()
        elif action < 0.82:
            for graph in graphs:
                graph._rebuild_index()
        else:
            a, b = rng.choice(alive), rng.choice(alive)
            answers = {graph.has_path(own[a], own[b])
                       for graph, own in zip(graphs, nodes)}
            assert answers == {has_path_dfs(nodes[0][a], nodes[0][b])}
        yield


@pytest.mark.parametrize("seed", range(8))
def test_masked_connect_rows_equal_the_unmasked_reference(seed):
    masked, unmasked = DependencyGraph(), UnmaskedGraph()
    prunes = []

    def counted_prune(prune=masked.prune_committed):
        prunes.append(len(masked._indexed))
        prune()

    masked.prune_committed = counted_prune
    steps = 0
    for _ in churn(random.Random(seed * 7 + 1), [masked, unmasked]):
        steps += 1
        assert masked._down == unmasked._down, (seed, steps)
        assert masked._up == unmasked._up, (seed, steps)
        assert masked._live == unmasked._live, (seed, steps)
    assert steps > 50
    assert masked.index_rebuilds > 1 and masked.index_repairs > 0
    assert prunes, "no churn step reached a boundary"
    assert prunes == [0] * len(prunes)  # the last commit emptied the index


class RowSpy(list):
    """A row table that records which rows are written."""

    def __init__(self, rows):
        super().__init__(rows)
        self.written = []

    def __setitem__(self, index, value):
        self.written.append(index)
        super().__setitem__(index, value)


def test_connect_skips_the_rows_that_already_hold_the_edge():
    """With a -> c and b -> c in place, a new edge a -> b ORs ``up[a]``
    into ``up[b]`` only: c already has a as an ancestor.  The unmasked
    form also rewrites ``up[c]``."""
    for graph_cls, up_written in ((DependencyGraph, ["b"]),
                                  (UnmaskedGraph, ["b", "c"])):
        graph = graph_cls()
        a, b, c = (TxNode(tx_id=i, attempt=1) for i in range(3))
        graph.add_edge(a, c, "k", EdgeKind.ANTI)
        graph.add_edge(b, c, "k", EdgeKind.ANTI)
        graph._down, graph._up = RowSpy(graph._down), RowSpy(graph._up)
        graph.add_edge(a, b, "k", EdgeKind.ANTI)
        serial = {"a": a._index_serial, "b": b._index_serial,
                  "c": c._index_serial}
        assert graph._down.written == [serial["a"]]
        assert sorted(graph._up.written) \
            == sorted(serial[name] for name in up_written)
        assert graph.has_path(a, b) and graph.has_path(a, c)


# ------------------------------------------------------- cohort classifier


def assert_live_holders_only(graph):
    for index in (graph._writers, graph._readers):
        for key, holders in index.items():
            for node in holders:
                assert node.alive, (key, node.tx_id, node.attempt)
    for node in graph._indexed:
        assert node is None or node.alive, (node.tx_id, node.attempt)
    for node in graph.nodes.values():
        assert node.status is not NodeStatus.COMMITTED, node.tx_id


def drive(controller_cls, seed, n_tx=45, n_keys=5, max_open=6):
    """One seeded interleaving of begin/read/write/finish/abort calls on a
    fresh controller, keys drawn Zipf(theta); restarts aborted attempts
    until every transaction commits.  Returns every call's outcome plus
    the controller's recorded edges, aborts and commit order.

    After every call, the graph holds live attempts only (and aborted
    attempts in its node table, until they restart)."""
    rng = random.Random(seed)
    keys = [f"k{rank}" for rank in range(n_keys)]
    weights = [1 / (rank + 1) ** THETA for rank in range(n_keys)]
    cc = controller_cls({key: 0 for key in keys})
    calls = []
    running = {}   # tx id -> attempt still issuing operations
    started = 0
    for _ in range(4000):
        for tx_id, node in sorted(cc.graph.nodes.items()):
            if node.status is NodeStatus.ABORTED:
                running[tx_id] = cc.begin(tx_id)
                calls.append(("restart", tx_id))
        if started < n_tx and (not running or (
                len(running) < max_open and rng.random() < 0.35)):
            running[started] = cc.begin(started)
            started += 1
            continue
        if not running:
            break
        tx_id = rng.choice(sorted(running))
        node = running[tx_id]
        key = rng.choices(keys, weights)[0]
        action = rng.random()
        try:
            if action < 0.40:
                calls.append(("read", tx_id, key, cc.read(node, key)))
            elif action < 0.75:
                value = rng.randrange(1000)
                cc.write(node, key, value)
                calls.append(("write", tx_id, key, value))
            elif action < 0.97:
                del running[tx_id]
                calls.append(("finish", tx_id, cc.finish(node, tx_id)))
            else:
                calls.append(("abort", tx_id))
                cc.abort_transaction(tx_id, reason="external")
        except TransactionAborted:
            calls.append(("aborted", tx_id))
        assert_live_holders_only(cc.graph)
    assert cc.committed_count() == n_tx, "schedule did not drain"
    return calls, cc


@pytest.mark.parametrize("seed", range(24))
def test_cohort_rows_match_point_queries_on_a_direct_schedule(seed):
    calls, cc = drive(RecordingController, seed)
    ref_calls, ref_cc = drive(PointQueryController, seed)
    assert calls == ref_calls
    assert cc.outcome() == ref_cc.outcome()
    assert ref_cc.aborts, "no conflict in this schedule"
    # The classified rules ask far fewer has_path questions.
    assert cc.graph.path_queries < ref_cc.graph.path_queries / 2


def run_batch(monkeypatch, controller_cls, seed, n_tx=60):
    monkeypatch.setattr(streaming_module, "ConcurrencyController",
                        controller_cls)
    workload = SmallBankWorkload(WorkloadConfig(accounts=8, theta=THETA),
                                 ShardMap(1), seed=seed)
    runner = CERunner(default_registry(), CEConfig(executors=8),
                      make_rng(seed))
    env = Environment()
    proc = runner.run_batch(env, workload.batch(n_tx), initial_state(8))
    env.run()
    cc = runner.last_session.cc
    assert isinstance(cc, controller_cls)
    # The session harvests the committed entries at the batch boundary,
    # so the committed order and writes come from the batch result.
    return (cc.outcome(), proc.value.order, proc.value.final_writes(),
            env.events_processed)


@pytest.mark.parametrize("seed", range(6))
def test_cohort_rows_match_point_queries_through_the_executor_pool(
        monkeypatch, seed):
    outcome, order, writes, events = run_batch(
        monkeypatch, RecordingController, seed)
    reference, ref_order, ref_writes, ref_events = run_batch(
        monkeypatch, PointQueryController, seed)
    assert outcome == reference
    assert (order, writes, events) == (ref_order, ref_writes, ref_events)
    assert len(reference["aborts"]) > 5, "storm did not materialize"
