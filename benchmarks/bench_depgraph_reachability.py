"""Reachability-index benchmark — repeated-DFS vs the incremental closure.

The concurrency controller answers a ``has_path`` query on almost every
operation (read-source choice, writer pinning, R1 anti-edges, the R4 commit
loop).  The seed implementation ran a full DFS per query, so a contended
batch of n transactions cost O(n^3); the graph now maintains an incremental
transitive-closure index (see :mod:`repro.ce.depgraph`) answering each query
with one bit test.

Two measurements:

* **micro** — a layered random DAG shaped like a contended batch graph,
  hit with the controller's query mix; per-query latency of the index vs
  the reference DFS (``has_path_dfs`` in ``tests/ce/graph_reference.py``).
* **cc-stress** — a 500-transaction high-contention YCSB-F batch (50%
  reads / 50% read-modify-writes over 4 hot records, theta = 0.99) through
  the real DES executor pool, two ways: a seed-faithful graph (DFS
  queries + bridge-every-pair detach, no closure rows) under the
  point-query controller of ``tests/ce/test_cohort_rows.py`` (one
  ``has_path`` per cohort member, as the rules asked before they read
  closure rows), and the closure index with tombstoned aborts under the
  library controller.  Committed results must be identical; the wall-clock
  ratio vs seed is the end-to-end win (asserted >= 5x), and the index
  may compact its serial space at most 10 times.

Measured on the reference container (default scale): micro ~20x per query
(~18000ns -> ~900ns); cc-stress ~27x end-to-end for the index with
in-place detach repair (~0.2s, ~480 repairs), with ~480 re-executions
and ~107k path queries.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.ce import CEConfig, CERunner
from repro.ce.depgraph import DependencyGraph, EdgeKind, NodeStatus, TxNode
import repro.ce.controller as controller_module
import repro.ce.streaming as streaming_module
from repro.ce.controller import ConcurrencyController
from repro.contracts.contract import ContractRegistry
from repro.core.shards import ShardMap
from repro.errors import SerializationError
from repro.sim import Environment, make_rng
from repro.workloads.ycsb import (YCSBConfig, YCSBWorkload, initial_state,
                                  register_ycsb)

from benchmarks.conftest import scaled
from tests.ce.graph_reference import has_path_dfs
from tests.ce.test_cohort_rows import PointQueryController

#: Microbench sizing: nodes in the synthetic batch graph / queries issued.
MICRO_NODES = scaled(800, 500, 200)
MICRO_QUERIES = scaled(40_000, 20_000, 5_000)
#: CC stress sizing (the acceptance-criteria scenario is the default).
STRESS_TXS = scaled(800, 500, 150)
STRESS_RECORDS = 4
STRESS_THETA = 0.99
#: End-to-end speedup floor vs the seed DFS.  The win grows with batch
#: size (the DFS is the O(n^3) term), so the quick smoke scale only
#: supports a modest floor.
STRESS_SPEEDUP_FLOOR = scaled(5.0, 5.0, 1.3)


class SeedDependencyGraph(DependencyGraph):
    """The seed behavior: DFS per query, bridge every pair on detach, no
    index maintenance (so the baseline pays no closure-update costs)."""

    def has_path(self, src: TxNode, dst: TxNode) -> bool:
        self.path_queries += 1
        return has_path_dfs(src, dst)

    def add_edge(self, src: TxNode, dst: TxNode, key: str,
                 kind: EdgeKind) -> None:
        if src is dst:
            raise SerializationError(f"self-edge on {src.tx_id}")
        src.out_edges.setdefault(dst, {})[(key, kind)] = None
        dst.in_edges.setdefault(src, {})[(key, kind)] = None

    def detach_node(self, node: TxNode):
        for key, record in node.records.items():
            if record.read_from is not None:
                source = record.read_from.records.get(key)
                if source is not None:
                    source.readers.pop(node, None)
            self._writers.get(key, {}).pop(node, None)
            self._readers.get(key, {}).pop(node, None)
        former_out = list(node.out_edges)
        predecessors = [p for p in node.in_edges
                        if p.status is not NodeStatus.ABORTED]
        successors = [s for s in former_out
                      if s.status is not NodeStatus.ABORTED]
        for neighbor in former_out:
            neighbor.in_edges.pop(node, None)
        for neighbor in list(node.in_edges):
            neighbor.out_edges.pop(node, None)
        node.out_edges.clear()
        node.in_edges.clear()
        for predecessor in predecessors:
            for successor in successors:
                if predecessor is not successor:
                    self.add_edge(predecessor, successor, "", EdgeKind.BRIDGE)
        return former_out


def build_batch_graph(graph: DependencyGraph, nodes: int,
                      seed: int) -> list:
    """A layered DAG shaped like a contended batch: each node depends on a
    few earlier ones, with a long rf/ww spine through a hot key."""
    rng = random.Random(seed)
    txs = []
    for i in range(nodes):
        node = TxNode(tx_id=i, attempt=1)
        graph.add_node(node)
        if txs:
            # hot-key spine: half the nodes chain on the previous writer
            if rng.random() < 0.5:
                graph.add_edge(txs[-1], node, "hot", EdgeKind.READ_FROM)
            for _ in range(rng.randrange(3)):
                src = txs[rng.randrange(len(txs))]
                if src is not node and not graph.has_edge(src, node):
                    graph.add_edge(src, node, f"k{rng.randrange(8)}",
                                   EdgeKind.ANTI)
        txs.append(node)
    return txs


def query_mix(txs: list, queries: int, seed: int) -> list:
    """(src, dst) pairs biased to nearby nodes, like writer pinning."""
    rng = random.Random(seed)
    pairs = []
    n = len(txs)
    for _ in range(queries):
        a = rng.randrange(n)
        b = min(n - 1, a + rng.randrange(1, max(2, n // 4)))
        pairs.append((txs[a], txs[b]) if rng.random() < 0.5
                     else (txs[b], txs[a]))
    return pairs


def run_stress(graph_cls, controller_cls) -> dict:
    """The 500-tx high-contention YCSB-F batch through the DES pool, with
    ``graph_cls`` and ``controller_cls`` patched into the session."""
    registry = ContractRegistry()
    register_ycsb(registry)
    workload = YCSBWorkload(
        YCSBConfig.workload_f(records=STRESS_RECORDS, theta=STRESS_THETA),
        ShardMap(1), seed=7)
    txs = [workload.next_transaction() for _ in range(STRESS_TXS)]
    original = (controller_module.DependencyGraph,
                streaming_module.ConcurrencyController)
    controller_module.DependencyGraph = graph_cls
    streaming_module.ConcurrencyController = controller_cls
    try:
        env = Environment()
        runner = CERunner(registry, CEConfig(executors=16), make_rng(3))
        started = time.perf_counter()
        proc = runner.run_batch(env, txs, initial_state(STRESS_RECORDS))
        env.run()
        wall = time.perf_counter() - started
    finally:
        (controller_module.DependencyGraph,
         streaming_module.ConcurrencyController) = original
    result = proc.value
    return {
        "wall": wall,
        "order": result.order,
        "writes": sorted(result.final_writes().items()),
        "re_exec": result.re_executions,
        "path_queries": result.stats.path_queries,
        "index_rebuilds": result.stats.index_rebuilds,
        "index_repairs": result.stats.index_repairs,
    }


@pytest.mark.benchmark(group="depgraph-reachability")
def test_reachability_micro(benchmark, fig_table):
    """Per-query latency: incremental index vs reference DFS."""
    def run():
        graph = DependencyGraph()
        txs = build_batch_graph(graph, MICRO_NODES, seed=11)
        pairs = query_mix(txs, MICRO_QUERIES, seed=13)
        started = time.perf_counter()
        indexed = [graph.has_path(a, b) for a, b in pairs]
        indexed_wall = time.perf_counter() - started
        started = time.perf_counter()
        reference = [has_path_dfs(a, b) for a, b in pairs]
        dfs_wall = time.perf_counter() - started
        assert indexed == reference, "index diverges from DFS"
        return indexed_wall, dfs_wall

    indexed_wall, dfs_wall = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = dfs_wall / indexed_wall
    fig_table.add("dfs", MICRO_NODES, MICRO_QUERIES,
                  round(dfs_wall * 1e9 / MICRO_QUERIES), "1.0x")
    fig_table.add("index", MICRO_NODES, MICRO_QUERIES,
                  round(indexed_wall * 1e9 / MICRO_QUERIES),
                  f"{speedup:.1f}x")
    fig_table.show("Reachability microbench - has_path on a batch-shaped DAG",
                   ["impl", "nodes", "queries", "ns/query", "speedup"])
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= 5.0, f"index only {speedup:.1f}x faster than DFS"


@pytest.mark.benchmark(group="depgraph-reachability")
def test_cc_stress_high_contention(benchmark, fig_table):
    """End-to-end: the acceptance scenario — seed DFS under point queries
    vs the tombstoning index under row tests, byte-identical committed
    orders."""
    def run():
        return (run_stress(SeedDependencyGraph, PointQueryController),
                run_stress(DependencyGraph, ConcurrencyController))

    seed_run, index_run = benchmark.pedantic(run, rounds=1, iterations=1)
    assert index_run["order"] == seed_run["order"], \
        "index changed the committed execution order"
    assert index_run["writes"] == seed_run["writes"]
    assert index_run["re_exec"] == seed_run["re_exec"]
    speedup = seed_run["wall"] / index_run["wall"]
    for label, run_info in (("seed-dfs", seed_run), ("index", index_run)):
        fig_table.add(label, STRESS_TXS, round(run_info["wall"], 3),
                      run_info["path_queries"], run_info["index_rebuilds"],
                      run_info["index_repairs"],
                      f"{seed_run['wall'] / run_info['wall']:.1f}x")
    fig_table.show(
        f"CC stress - {STRESS_TXS} tx YCSB-F, {STRESS_RECORDS} records, "
        f"theta={STRESS_THETA}, 16 executors",
        ["graph", "txs", "wall_s", "path_queries", "rebuilds", "repairs",
         "speedup"])
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["seed_wall"] = round(seed_run["wall"], 3)
    benchmark.extra_info["index_wall"] = round(index_run["wall"], 3)
    benchmark.extra_info["index_rebuilds"] = index_run["index_rebuilds"]
    assert speedup >= STRESS_SPEEDUP_FLOOR, \
        f"CC stress only {speedup:.1f}x faster"
    # Aborts never invalidate the closure: rebuilds are hole compactions.
    assert index_run["index_rebuilds"] <= 10, index_run
