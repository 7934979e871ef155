"""The closure rows held to packed word-row references.

The reachability index (``repro.ce.depgraph``) keeps one Python int per
closure row; determinism of the whole executor rests on those rows being
the exact transitive closure.  ``tests/ce/word_rows.py`` keeps the same
closure as rows of 8-bit (``packed``) and 64-bit (``packed-array``)
words, updated by the textbook operations.  Covered here:

* op-level parity: identical random append/connect/close/tombstone/
  rebuild sequences leave the int rows, the ``live`` and ``open`` sets
  and both word layouts with the same bits;
* word-boundary growth: rows widen correctly past 64/128 serials and
  ``peak_bitset_words`` is a high-water mark that survives an emptied
  index;
* bridge planning (``DependencyGraph._bridge_plan_from_index``) against
  a reference per-predecessor DFS (``bridge_by_dfs``) under randomized
  churn, and the refused cycle-closing edge that would make a cone
  cyclic; and
* end-to-end fingerprints: ``engine="ce"`` cluster runs commit
  their pinned logs, and the same logs with every row checked against
  the word layouts.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest

from repro.ce import CEConfig
from repro.ce import controller as controller_module
from repro.ce.depgraph import DependencyGraph, EdgeKind, NodeStatus, TxNode
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.errors import SerializationError
from repro.workloads import WorkloadConfig
from tests.ce.graph_reference import has_path_dfs, is_acyclic
from tests.ce.word_rows import BACKENDS, TYPECODES, WordRows, graph_class


# ------------------------------------------------------------ op-level parity


def component(graph, serial):
    """Every serial connected to ``serial`` through the closure rows."""
    members = {serial}
    frontier = [serial]
    while frontier:
        current = frontier.pop()
        row = graph._down[current] | graph._up[current]
        while row:
            low = row & -row
            other = low.bit_length() - 1
            row ^= low
            if other not in members:
                members.add(other)
                frontier.append(other)
    return sorted(members)


@pytest.mark.parametrize("seed", range(5))
def test_backend_ops_parity(seed):
    """One random op sequence on the graph's int rows and on both word
    layouts: identical bits after every mutation kind, including closes
    (a closed ``down`` row stops growing) and mid-sequence rebuilds."""
    rng = random.Random(seed * 104729 + 1)
    graph = DependencyGraph()
    references = [WordRows(typecode) for typecode in TYPECODES.values()]
    count = 0
    live = []
    edges = set()

    def assert_rows_agree(context):
        for reference in references:
            assert reference.live_int() == graph._live, \
                (context, reference.typecode)
            assert reference.open_int() == graph._open, \
                (context, reference.typecode)
            assert reference.as_ints() == (graph._down, graph._up), \
                (context, reference.typecode)

    def rebuild_all():
        out_serials = [[] for _ in range(count)]
        in_serials = [[] for _ in range(count)]
        for src, dst in sorted(edges):
            out_serials[src].append(dst)
            in_serials[dst].append(src)
        topo = list(range(count))  # edges always run low -> high
        open_ = sum(1 << serial for serial in range(count)
                    if rng.random() < 0.7)
        graph._rebuild_rows(count, topo, out_serials, in_serials, open_)
        for reference in references:
            reference.rebuild(count, topo, out_serials, in_serials, open_)

    def tombstone(victims):
        nonlocal edges
        for victim in victims:
            live.remove(victim)
            graph._tombstone(victim)
            for reference in references:
                reference.discard(victim)
        edges = {(a, b) for (a, b) in edges
                 if a not in victims and b not in victims}

    for step in range(250):
        action = rng.random()
        if action < 0.30 or len(live) < 2:
            graph._append_singleton()
            for reference in references:
                reference.append_singleton()
            live.append(count)
            count += 1
        elif action < 0.62:
            src, dst = sorted(rng.sample(live, 2))
            # The graph pre-checks redundancy on ``up`` and refuses an
            # edge into a closed destination.
            if not graph._up[dst] >> src & 1 and graph._open >> dst & 1:
                edges.add((src, dst))
                graph._connect(src, dst)
                for reference in references:
                    reference.connect(src, dst)
        elif action < 0.70:
            serial = rng.choice(live)  # a commit
            graph.close(SimpleNamespace(_index_serial=serial))
            for reference in references:
                reference.close(serial)
        elif action < 0.85:
            tombstone([rng.choice(live)])  # a detach
        else:
            # A closed component's live serials tombstoned together: the
            # word rows must agree under any set of tombstones.
            members = component(graph, rng.choice(live))
            tombstone([serial for serial in members if serial in live])
        assert_rows_agree((seed, step))
        if step % 50 == 49 and rng.random() < 0.5:
            rebuild_all()
            live = list(range(count))
            assert_rows_agree((seed, step, "rebuilt"))
    assert_rows_agree((seed, "final"))


def chain_graph(n, graph_cls=DependencyGraph):
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n)]
    for i in range(n - 1):
        graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
    return graph, nodes


def bits(*nodes):
    """The row bits of ``nodes`` (all indexed by the graph under test)."""
    return sum(1 << node._index_serial for node in nodes)


def test_growth_across_word_boundaries():
    """A chain extended edge by edge past 64 and 128 serials: every new
    serial gets its row incrementally, bits land in later words, and the
    peak row width is a high-water mark that survives an emptied index."""
    for name in BACKENDS:
        graph, nodes = chain_graph(2, graph_class(name))
        n = 150
        nodes += [TxNode(tx_id=i, attempt=1) for i in range(2, n)]
        for i in range(1, n - 1):
            graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
        assert graph.index_rebuilds == 0, name
        assert graph.has_path(nodes[0], nodes[n - 1]), name
        assert graph.has_path(nodes[63], nodes[64]), name
        assert graph.has_path(nodes[0], nodes[127]), name
        assert not graph.has_path(nodes[n - 1], nodes[0]), name
        down, _ = graph.rows(nodes[n - 3])
        assert down == bits(*nodes[n - 3:]), name
        _, up = graph.rows(nodes[2])
        assert up == bits(*nodes[:3]), name
        assert graph.peak_bitset_words == (n + 63) // 64 == 3, name
        graph._index_reset_empty()
        assert graph._down == graph._up == [], name
        assert graph.peak_bitset_words == 3, name  # high-water mark survives


# ------------------------------------------------- bridge planning regression


def planner_graph(graph_cls):
    """``graph_cls`` counting the index planner's plans."""

    class PlannerGraph(graph_cls):
        plans = 0

        def _bridge_plan_from_index(self, node, predecessors, successors):
            self.plans += 1
            return super()._bridge_plan_from_index(node, predecessors,
                                                   successors)

    return PlannerGraph


def bridge_by_dfs(node, predecessors, successors):
    """The reference bridge plan: one incremental DFS per predecessor over
    the adjacency without ``node``, grown by every bridge planned so far
    (a predecessor that reaches an earlier one reaches its bridges too)."""
    planned = {}

    def descend(reached, src):
        stack = [src]
        while stack:
            current = stack.pop()
            for child in [*current.out_edges, *planned.get(current, ())]:
                if child is not node and child not in reached:
                    reached[child] = None
                    stack.append(child)
        return reached

    plan = []
    for predecessor in predecessors:
        reached = descend({}, predecessor)
        for successor in successors:
            if predecessor is successor or successor in reached:
                continue
            plan.append((predecessor, successor))
            planned.setdefault(predecessor, []).append(successor)
            reached[successor] = None
            descend(reached, successor)
    return plan


def dfs_bridged_graph(graph_cls):
    """``graph_cls`` bridging every detach with the reference DFS."""

    class DfsBridgedGraph(graph_cls):
        def _bridge_plan_from_index(self, node, predecessors, successors):
            return bridge_by_dfs(node, predecessors, successors)

    return DfsBridgedGraph


def churn_with_bridges(rng, graph_cls, n_nodes=28, n_ops=220):
    """Detach-heavy churn (compared to the reachability suite) so most
    detaches hit the bridging path; returns the graph, its nodes, the
    survivor ids, and every bridge edge in insertion order."""
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n_nodes)]
    for node in nodes:
        graph.add_node(node)
    alive = list(range(n_nodes))
    bridges = []
    for _ in range(n_ops):
        action = rng.random()
        if action < 0.50 and len(alive) >= 2:
            a, b = sorted(rng.sample(alive, 2))
            graph.add_edge(nodes[a], nodes[b], f"k{rng.randrange(3)}",
                           EdgeKind.ANTI)
        elif action < 0.75 and len(alive) > 2:
            victim = alive.pop(rng.randrange(len(alive)))
            nodes[victim].status = NodeStatus.ABORTED
            graph.detach_node(nodes[victim])
        else:
            a, b = rng.choice(alive), rng.choice(alive)
            graph.has_path(nodes[a], nodes[b])
    for node in (nodes[i] for i in sorted(alive)):
        for neighbor, labels in node.out_edges.items():
            for position, (key, kind) in enumerate(labels):
                if kind is EdgeKind.BRIDGE:
                    bridges.append((node.tx_id, neighbor.tx_id, position))
    return graph, nodes, alive, bridges


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(6))
def test_bridge_plan_matches_dfs_reference(seed, backend):
    """Satellite regression for the detach fast path: planning bridges
    from the closure before removal must produce exactly the edges the
    per-predecessor DFS reference produces, in the same positions, and an
    identical surviving closure."""
    graph_cls = graph_class(backend)
    reference = churn_with_bridges(random.Random(seed * 31 + 7),
                                   dfs_bridged_graph(graph_cls))
    planned = churn_with_bridges(random.Random(seed * 31 + 7),
                                 planner_graph(graph_cls))
    ref_graph, ref_nodes, ref_alive, ref_bridges = reference
    graph, nodes, alive, bridges = planned
    assert graph.plans > 0, "planner was never exercised"
    assert alive == ref_alive
    assert bridges == ref_bridges, (seed, backend)
    for a in alive:
        for b in alive:
            assert graph.has_path(nodes[a], nodes[b]) == \
                ref_graph.has_path(ref_nodes[a], ref_nodes[b]), (seed, a, b)
            assert graph.has_path(nodes[a], nodes[b]) == \
                has_path_dfs(nodes[a], nodes[b]), (seed, a, b)


def test_cycle_closing_edge_is_refused():
    """The closure refuses the edge that would close ``a -> mid -> b ->
    a`` and names both transactions, so no detach ever meets a cyclic
    cone; the graph is left as it was."""
    graph = planner_graph(DependencyGraph)()
    a, mid, b = (TxNode(tx_id=i, attempt=1) for i in range(3))
    for node in (a, mid, b):
        graph.add_node(node)
    graph.add_edge(a, mid, "k", EdgeKind.READ_FROM)
    graph.add_edge(mid, b, "k", EdgeKind.READ_FROM)
    with pytest.raises(SerializationError,
                       match=r"edge 2 -> 0 \(key k, ar\) closes a cycle"):
        graph.add_edge(b, a, "k", EdgeKind.ANTI)
    assert not graph.has_edge(b, a) and not graph.has_path(b, a)
    mid.status = NodeStatus.ABORTED
    graph.detach_node(mid)
    assert graph.plans == 1 and graph.has_edge(a, b)  # bridged
    assert is_acyclic(graph)


# ------------------------------------------------------ cluster fingerprints

#: Commit-log fingerprints of short ``ce`` cluster runs, taken
#: before the closure rows moved into the graph and the controller's
#: cohort rules began reading them; any schedule change moves them.
STREAMING_FINGERPRINTS = {3: "d38b871232d2ced1", 11: "0bf632830f9a6060",
                          29: "8178ded78702093e"}


def streaming_digests(monkeypatch, backend, seed):
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=seed,
                               ce=CEConfig(executors=8))
    with monkeypatch.context() as patch:
        patch.setattr(controller_module, "DependencyGraph",
                      graph_class(backend))
        cluster = Cluster(config, WorkloadConfig(accounts=200,
                                                 cross_shard_ratio=0.1,
                                                 theta=0.9))
        result = cluster.run(0.2)
    assert result.executed > 0
    assert result.cc_bitset_words >= 1
    return tuple(tuple(r.commit_log.digests()) for r in cluster.replicas)


def assert_fingerprints(monkeypatch, seed):
    reference = streaming_digests(monkeypatch, "pyint", seed)
    assert hashlib.sha256(repr(reference).encode()).hexdigest()[:16] \
        == STREAMING_FINGERPRINTS[seed]
    for name in ("packed", "packed-array"):
        assert streaming_digests(monkeypatch, name, seed) == reference, \
            (seed, name)


@pytest.mark.parametrize("seed", [3])
def test_streaming_commit_logs_identical_across_backends(monkeypatch, seed):
    """The acceptance fingerprint: a ``ce`` cluster run commits
    its pinned logs, and the same logs with every closure row checked
    against the word layouts."""
    assert_fingerprints(monkeypatch, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 29])
def test_streaming_fingerprints_more_seeds(monkeypatch, seed):
    assert_fingerprints(monkeypatch, seed)
