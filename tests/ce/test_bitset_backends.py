"""The closure rows held to packed word-row references.

The reachability index (``repro.ce.depgraph``) keeps one Python int per
closure row; determinism of the whole executor rests on those rows being
the exact transitive closure.  ``tests/ce/word_rows.py`` keeps the same
closure as rows of 8-bit (``packed``) and 64-bit (``packed-array``)
words, updated by the textbook unmasked operations.  Covered here:

* op-level parity: identical random append/connect/discard/zero/rebuild
  sequences leave the int rows and both word layouts with the same bits,
  including ``_discard``'s refuse-without-mutating contract;
* word-boundary growth: rows widen correctly past 64/128 serials and
  ``peak_bitset_words`` is a high-water mark that survives an emptied
  index;
* bridge planning (``DependencyGraph._bridge_plan_from_index``) against
  the reference per-predecessor DFS under randomized churn; and
* end-to-end fingerprints: ``engine="ce-streaming"`` cluster runs commit
  their pinned logs, and the same logs with every row checked against
  the word layouts.
"""

import hashlib
import random

import pytest

from repro.ce import CEConfig
from repro.ce import controller as controller_module
from repro.ce.depgraph import DependencyGraph, EdgeKind, NodeStatus, TxNode
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.workloads import WorkloadConfig
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
    layouts: identical bits after every mutation kind, including
    mid-sequence rebuilds."""
    rng = random.Random(seed * 104729 + 1)
    graph = DependencyGraph()
    references = [WordRows(typecode) for typecode in TYPECODES.values()]
    count = 0
    edges = set()

    def assert_rows_agree(context):
        for reference in references:
            assert reference.as_ints() == (graph._down, graph._up), \
                (context, reference.typecode)

    def rebuild_all():
        out_serials = [[] for _ in range(count)]
        in_serials = [[] for _ in range(count)]
        for src, dst in sorted(edges):
            out_serials[src].append(dst)
            in_serials[dst].append(src)
        topo = list(range(count))  # edges always run low -> high
        graph._rebuild_rows(count, topo, out_serials, in_serials)
        for reference in references:
            reference.rebuild(count, topo, out_serials, in_serials)

    for step in range(250):
        action = rng.random()
        if action < 0.30 or count < 2:
            graph._append_singleton()
            for reference in references:
                reference.append_singleton()
            count += 1
        elif action < 0.70:
            src, dst = sorted(rng.sample(range(count), 2))
            if not graph._down[src] >> dst & 1:  # depgraph pre-checks
                edges.add((src, dst))
                graph._connect(src, dst)
                for reference in references:
                    reference.connect(src, dst)
        elif action < 0.85:
            victim = rng.randrange(count)
            max_cone = rng.choice([0, 2, 10_000])
            cones = [graph._discard(victim, max_cone)] + [
                reference.discard(victim, max_cone)
                for reference in references]
            assert len(set(cones)) == 1, (seed, step, cones)
            if cones[0] is not None:
                edges = {(a, b) for (a, b) in edges
                         if a != victim and b != victim}
        else:
            # Eviction as prune_committed does it: a closed component's
            # rows are zeroed, and no surviving row carries its bits.
            victims = component(graph, rng.randrange(count))
            for victim in victims:
                graph._down[victim] = graph._up[victim] = 0
                for reference in references:
                    reference.zero_node(victim)
            edges = {(a, b) for (a, b) in edges
                     if a not in victims and b not in victims}
        assert_rows_agree((seed, step))
        if step % 50 == 49 and rng.random() < 0.5:
            rebuild_all()
            assert_rows_agree((seed, step, "rebuilt"))
    assert_rows_agree((seed, "final"))


def chain_graph(n, graph_cls=DependencyGraph):
    graph = graph_cls()
    nodes = [TxNode(tx_id=i, attempt=1) for i in range(n)]
    for i in range(n - 1):
        graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
    return graph, nodes


def test_discard_over_threshold_mutates_nothing():
    """``_discard`` must refuse (return None) without touching any row
    when the cone exceeds ``max_cone`` — the detach falls back to a
    rebuild, and a half-cleared cone would corrupt the closure."""
    for name in BACKENDS:
        graph, nodes = chain_graph(5, graph_class(name))
        assert graph.has_path(nodes[0], nodes[4]), name  # builds the rows
        rows = (list(graph._down), list(graph._up))
        serial = nodes[2]._index_serial
        assert graph._discard(serial, 1) is None, name  # cone = 2 + 2 > 1
        assert (graph._down, graph._up) == rows, name
        assert graph._discard(serial, 4) == 4, name     # now it repairs
        assert not graph._down[nodes[0]._index_serial] >> serial & 1, name
        assert graph.has_path(nodes[0], nodes[4]), name  # survivors keep order


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
        assert graph.has_path(nodes[0], nodes[1]), name  # the only build
        for i in range(1, n - 1):
            graph.add_edge(nodes[i], nodes[i + 1], "k", EdgeKind.ANTI)
        assert graph.index_rebuilds == 1, name
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


def churn_with_bridges(rng, graph_cls, via_index, n_nodes=28, n_ops=220):
    """Detach-heavy churn (compared to the reachability suite) so most
    detaches hit the bridging path; returns the graph, its nodes, the
    survivor ids, and every bridge edge in insertion order."""
    graph = graph_cls()
    graph.bridge_via_index = via_index
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
            graph.has_path(nodes[a], nodes[b])  # keeps the index warm
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
    from the pre-removal closure snapshot must produce exactly the edges
    the per-predecessor DFS reference produces, in the same positions,
    and an identical surviving closure."""
    graph_cls = graph_class(backend)
    reference = churn_with_bridges(random.Random(seed * 31 + 7),
                                   graph_cls, via_index=False)
    planned = churn_with_bridges(random.Random(seed * 31 + 7),
                                 graph_cls, via_index=True)
    ref_graph, ref_nodes, ref_alive, ref_bridges = reference
    graph, nodes, alive, bridges = planned
    assert ref_graph.bridge_plans == ref_graph.bridge_fallbacks == 0
    assert graph.bridge_plans > 0, "planner was never exercised"
    assert alive == ref_alive
    assert bridges == ref_bridges, (seed, backend)
    for a in alive:
        for b in alive:
            assert graph.has_path(nodes[a], nodes[b]) == \
                ref_graph.has_path(ref_nodes[a], ref_nodes[b]), (seed, a, b)
            assert graph.has_path(nodes[a], nodes[b]) == \
                graph._has_path_dfs(nodes[a], nodes[b]), (seed, a, b)


def test_bridge_plan_falls_back_when_index_is_stale():
    """No closure snapshot exists before the first build, so the very
    first detach must take the reference DFS path (and count it)."""
    graph = DependencyGraph()
    a, mid, b = (TxNode(tx_id=i, attempt=1) for i in range(3))
    for node in (a, mid, b):
        graph.add_node(node)
    graph.add_edge(a, mid, "k", EdgeKind.READ_FROM)
    graph.add_edge(mid, b, "k", EdgeKind.READ_FROM)
    mid.status = NodeStatus.ABORTED
    graph.detach_node(mid)  # index never built: planner must decline
    assert graph.bridge_fallbacks == 1
    assert graph.has_path(a, b)  # DFS bridging still bridged correctly


# ------------------------------------------------------ cluster fingerprints

#: Commit-log fingerprints of short ``ce-streaming`` cluster runs, taken
#: before the closure rows moved into the graph and the controller's
#: cohort rules began reading them; any schedule change moves them.
STREAMING_FINGERPRINTS = {3: "d38b871232d2ced1", 11: "0bf632830f9a6060",
                          29: "8178ded78702093e"}


def streaming_digests(monkeypatch, backend, seed):
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=seed,
                               engine="ce-streaming",
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
    """The acceptance fingerprint: a ``ce-streaming`` cluster run commits
    its pinned logs, and the same logs with every closure row checked
    against the word layouts."""
    assert_fingerprints(monkeypatch, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 29])
def test_streaming_fingerprints_more_seeds(monkeypatch, seed):
    assert_fingerprints(monkeypatch, seed)
