"""Abort-storm benchmark — what one abort costs the reachability index.

``bench_depgraph_reachability.py`` measures the end-to-end acceptance
scenario; this module isolates the *deletion* path.  Under contention
almost every transaction aborts at least once.  Each abort tombstones the
departing node's serial in O(1) — clear its ``live`` bit, zero its rows —
whatever its ancestor/descendant cone (see :mod:`repro.ce.depgraph` and
``docs/REACHABILITY.md``); rebuilds happen only to compact holes.

Two measurements:

* **index-maintenance storm** — a batch-shaped DAG where victims detach
  one by one with controller-style queries between detaches; answers
  spot-checked against the reference DFS, wall clock per detach and the
  rebuild/repair counters reported.
* **counter smoke** — a tiny controller-driven hot-key storm asserting
  the counter plumbing end to end (graph -> ``CCStats`` ->
  ``MetricsCollector``).  This test needs no benchmark fixture and runs
  in well under a second: CI's fast lane invokes it so the plumbing
  cannot silently rot.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.ce import ConcurrencyController
from repro.ce.depgraph import DependencyGraph, NodeStatus
from repro.errors import TransactionAborted
from repro.metrics import MetricsCollector

from benchmarks.bench_depgraph_reachability import build_batch_graph
from benchmarks.conftest import scaled
from tests.ce.graph_reference import edge_count, has_path_dfs, is_acyclic

#: Storm sizing: DAG nodes / victims detached / queries between detaches.
STORM_NODES = scaled(1200, 600, 120)
STORM_DETACHES = scaled(300, 150, 25)
STORM_QUERIES = scaled(40, 30, 10)


def run_storm(graph_cls, nodes: int, detaches: int, queries: int,
              seed: int) -> dict:
    """Detach victims one at a time, querying survivors in between."""
    graph = graph_cls()
    txs = build_batch_graph(graph, nodes, seed=seed)
    rng = random.Random(seed * 13 + 1)
    alive = list(range(nodes))
    checksum = 0
    started = time.perf_counter()
    for _ in range(detaches):
        victim = alive.pop(rng.randrange(len(alive)))
        txs[victim].status = NodeStatus.ABORTED
        graph.detach_node(txs[victim])
        for _ in range(queries):
            a = txs[alive[rng.randrange(len(alive))]]
            b = txs[alive[rng.randrange(len(alive))]]
            checksum += graph.has_path(a, b)
    wall = time.perf_counter() - started
    # Spot-check the final closure against the reference DFS.
    for offset in range(0, len(alive) - 1, max(1, len(alive) // 40)):
        a, b = txs[alive[offset]], txs[alive[offset + 1]]
        assert graph.has_path(a, b) == has_path_dfs(a, b)
    return {
        "wall": wall,
        "checksum": checksum,
        "rebuilds": graph.index_rebuilds,
        "repairs": graph.index_repairs,
        "edge_count": edge_count(graph),
    }


@pytest.mark.benchmark(group="abort-storm")
def test_abort_storm_index_maintenance(benchmark, fig_table):
    """Tombstoned detaches under a storm, with queries in between."""
    def run():
        return run_storm(DependencyGraph, STORM_NODES, STORM_DETACHES,
                         STORM_QUERIES, seed=11)

    storm = benchmark.pedantic(run, rounds=1, iterations=1)
    fig_table.add("tombstone", STORM_NODES, STORM_DETACHES,
                  round(storm["wall"] * 1e6 / STORM_DETACHES),
                  storm["rebuilds"], storm["repairs"])
    fig_table.show(
        f"Abort storm - {STORM_DETACHES} detaches over a "
        f"{STORM_NODES}-node batch DAG, {STORM_QUERIES} queries between",
        ["graph", "nodes", "detaches", "us/detach", "rebuilds", "repairs"])
    benchmark.extra_info["us_per_detach"] = round(
        storm["wall"] * 1e6 / STORM_DETACHES)
    # Every indexed victim is one tombstone (a few never touched an edge
    # and cost nothing, hence the 90% floor); fewer than a quarter of the
    # serials die, so holes never dominate and nothing compacts.
    assert storm["repairs"] >= STORM_DETACHES * 9 // 10
    assert storm["rebuilds"] == 0


def test_abort_storm_counter_smoke(fig_table):
    """Tiny hot-key storm: counter plumbing graph -> CCStats -> collector.

    Kept free of the ``benchmark`` fixture so CI's fast lane can run it
    without pytest-benchmark installed.
    """
    rng = random.Random(29)
    cc = ConcurrencyController({"h0": 0, "h1": 0})
    live = []
    for tx_id in range(40):
        node = cc.begin(tx_id)
        try:
            key = f"h{rng.randrange(2)}"
            cc.write(node, key, cc.read(node, key) + 1)
            live.append(tx_id)
        except TransactionAborted:
            continue
        if rng.random() < 0.4 and live:
            cc.abort_transaction(live.pop(rng.randrange(len(live))),
                                 reason="storm")
    stats = cc.stats
    fig_table.add(stats.aborts, stats.index_repairs, stats.index_rebuilds)
    fig_table.show("Abort-storm smoke - controller counters",
                   ["aborts", "repairs", "rebuilds"])
    assert stats.aborts >= 5, "storm did not materialize"
    assert stats.index_repairs >= 1
    # One tombstone per indexed detach; edge-less victims cost nothing.
    assert stats.index_repairs <= stats.aborts
    # In a 40-tx graph where most nodes abort, the serial space *should*
    # go hole-dominated and compact a few times — never more often than
    # once per detach.
    assert 1 <= stats.index_rebuilds <= stats.index_repairs
    assert is_acyclic(cc.graph)
    collector = MetricsCollector()
    collector.record_ce_batch(stats, graph_nodes=len(cc.graph.nodes))
    assert collector.cc_index_repairs == stats.index_repairs
    assert collector.cc_index_rebuilds == stats.index_rebuilds
