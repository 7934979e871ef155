"""Bench-regression harness — ``BENCH_fig_regression.json``.

Runs the depgraph/abort-storm/streaming performance scenarios the repo
already benchmarks and writes one schema-versioned JSON record so every
change leaves a comparable performance fingerprint:

* **closure-churn** — the dependency graph's closure rows driven
  directly with the contention shape of the acceptance scenario (a
  500-tx theta=0.99 YCSB-F batch is a near-total order; with
  re-executions the graph holds roughly three attempt nodes per
  transaction, hence the ~1500-serial default): build the dense closure
  edge by edge, tombstone a 30% abort storm, rebuild over the survivors.
* **depgraph-storm** — the same storm through the real
  :class:`~repro.ce.depgraph.DependencyGraph` (bridging, tombstones,
  compaction, counters included).
* **streaming** — a short ``engine="ce"`` cluster run (one execution
  session per replica epoch), pinned by its commit-log digest.

Wall-clock figures (``ops_per_sec``, ``wall_ms``) are recorded for the
curious but never compared: they depend on the host and jitter at quick
scale.  Regression gating uses the ``exact`` block of deterministic
counters and digests, which must reproduce bit-for-bit anywhere, plus
the ``ratios`` block of simulated-time speedups (deterministic and
machine-independent).  ``ratios`` is empty for now: the figure floors
(Thunderbolt/OCC throughput, the cross-shard curve, ...) are still to be
added, and :func:`compare` gates whatever it holds:

    python benchmarks/bench_regression.py --quick \\
        --baseline BENCH_fig_regression.quick.json --tolerance 0.25

exits nonzero when a ratio fell more than ``--tolerance`` below the
baseline or any deterministic value changed.  CI runs exactly that
(see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Dict, List, Optional

from repro.ce import CEConfig, ConcurrencyController
from repro.ce.depgraph import DependencyGraph
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.errors import TransactionAborted
from repro.workloads import WorkloadConfig

SCHEMA = "bench-regression/v1"

#: (nodes, storm transactions, streaming duration) per scale.
SCALES = {
    "default": {"nodes": 1400, "storm_txs": 900, "stream_duration": 0.3},
    "quick": {"nodes": 700, "storm_txs": 300, "stream_duration": 0.1},
}


# ------------------------------------------------------------- closure churn


def closure_churn(n_nodes: int, seed: int = 7) -> Dict:
    """Drive the closure rows through the dense-closure lifecycle: hot-key
    spine build, random shortcut edges, a 30% tombstone storm, and three
    from-scratch rebuilds over the survivors."""
    rng = random.Random(seed)
    graph = DependencyGraph()
    started = time.perf_counter()
    for _ in range(n_nodes):
        graph._append_singleton()
    connects = 0
    for i in range(n_nodes - 1):
        if not graph._down[i] >> (i + 1) & 1:
            graph._connect(i, i + 1)
            connects += 1
    for _ in range(n_nodes):
        src, dst = sorted(rng.sample(range(n_nodes), 2))
        if not graph._down[src] >> dst & 1:
            graph._connect(src, dst)
            connects += 1
    build_wall = time.perf_counter() - started
    victims = rng.sample(range(n_nodes), n_nodes * 3 // 10)
    started = time.perf_counter()
    for victim in victims:
        graph._tombstone(victim)
    repair_wall = time.perf_counter() - started
    live = graph._live
    live_closure_bits = sum((graph._down[serial] & live).bit_count()
                            for serial in range(n_nodes))
    survivors = sorted(set(range(n_nodes)) - set(victims))
    out_serials: List[List[int]] = [[] for _ in range(n_nodes)]
    in_serials: List[List[int]] = [[] for _ in range(n_nodes)]
    for src, dst in zip(survivors, survivors[1:]):
        out_serials[src].append(dst)
        in_serials[dst].append(src)
    topo = list(range(n_nodes))
    started = time.perf_counter()
    for _ in range(3):
        graph._rebuild_rows(n_nodes, topo, out_serials, in_serials)
    rebuild_wall = time.perf_counter() - started
    total = build_wall + repair_wall + rebuild_wall
    ops = connects + len(victims) + 3
    return {
        "nodes": n_nodes,
        "connects": connects,
        "repairs": len(victims),
        "live_closure_bits": live_closure_bits,
        "peak_words": graph.peak_bitset_words,
        "wall_ms": {
            "build": round(build_wall * 1000, 2),
            "repair": round(repair_wall * 1000, 2),
            "rebuild": round(rebuild_wall * 1000, 2),
            "total": round(total * 1000, 2),
        },
        "ops_per_sec": round(ops / total) if total else 0,
    }


# ------------------------------------------------------------ depgraph storm


def depgraph_storm(n_txs: int, seed: int = 17) -> Dict:
    """Hot-key read-modify-write storm through the real dependency graph:
    a third of the in-flight transactions abort mid-stream, so detach
    bridging, tombstones and compaction carry the load."""
    rng = random.Random(seed)
    cc = ConcurrencyController({f"k{i}": 0 for i in range(3)})
    live: List[int] = []
    started = time.perf_counter()
    for tx_id in range(n_txs):
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
    wall = time.perf_counter() - started
    stats = cc.stats
    return {
        "transactions": n_txs,
        "aborts": stats.aborts,
        "path_queries": stats.path_queries,
        "index_rebuilds": stats.index_rebuilds,
        "index_repairs": stats.index_repairs,
        "peak_words": stats.bitset_words,
        "wall_ms": round(wall * 1000, 2),
        "ops_per_sec": round(n_txs / wall) if wall else 0,
    }


# ---------------------------------------------------------------- streaming


def streaming_run(duration: float, seed: int = 3) -> Dict:
    """A short ``ce`` cluster run, fingerprinted by the last commit-log
    digest."""
    config = ThunderboltConfig(
        n_replicas=4, batch_size=10, seed=seed, engine="ce",
        ce=CEConfig(executors=8))
    cluster = Cluster(config, WorkloadConfig(accounts=200,
                                             cross_shard_ratio=0.1,
                                             theta=0.9))
    started = time.perf_counter()
    result = cluster.run(duration)
    wall = time.perf_counter() - started
    digests = [digest for replica in cluster.replicas
               for digest in replica.commit_log.digests()]
    return {
        "executed": result.executed,
        "throughput_tps": round(result.throughput),
        "blocks_committed": result.blocks_committed,
        "cc_index_rebuilds": result.cc_index_rebuilds,
        "cc_index_repairs": result.cc_index_repairs,
        "peak_graph_nodes": result.ce_peak_graph_nodes,
        "peak_words": result.cc_bitset_words,
        "digest": digests[-1] if digests else "",
        "wall_ms": round(wall * 1000, 2),
    }


# ------------------------------------------------------------- orchestration


def run_all(scale: str) -> Dict:
    sizes = SCALES[scale]
    churn = closure_churn(sizes["nodes"])
    storm = depgraph_storm(sizes["storm_txs"])
    stream = streaming_run(sizes["stream_duration"])
    return {
        "schema": SCHEMA,
        "scale": scale,
        "benches": {"closure_churn": churn, "depgraph_storm": storm,
                    "streaming": stream},
        "ratios": {},
        # Deterministic values: identical on any host at the same scale.
        "exact": {
            "storm_aborts": storm["aborts"],
            "storm_rebuilds": storm["index_rebuilds"],
            "storm_repairs": storm["index_repairs"],
            "stream_executed": stream["executed"],
            "stream_digest": stream["digest"],
            "churn_live_closure_bits": churn["live_closure_bits"],
            "churn_peak_words": churn["peak_words"],
        },
    }


def compare(record: Dict, baseline: Dict, tolerance: float) -> List[str]:
    """Regressions of ``record`` against ``baseline``; empty means pass.

    Ratios (machine-independent speedups) may fall at most ``tolerance``
    below the baseline; ``exact`` values must match bit-for-bit."""
    problems = []
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}"]
    if baseline.get("scale") != record["scale"]:
        return [f"baseline scale {baseline.get('scale')!r} != "
                f"{record['scale']!r}; regenerate the baseline"]
    for key, old in baseline.get("ratios", {}).items():
        new = record["ratios"].get(key)
        if new is None:
            problems.append(f"ratio {key} disappeared")
        elif new < old * (1.0 - tolerance):
            problems.append(
                f"ratio {key} regressed: {new:.3f} < {old:.3f} "
                f"- {tolerance:.0%}")
    for key, old in baseline.get("exact", {}).items():
        new = record["exact"].get(key)
        if new != old:
            problems.append(
                f"deterministic value {key} changed: {new!r} != {old!r}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI scale (seconds, not minutes)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_fig_regression"
                             ".json, or .quick.json with --quick)")
    parser.add_argument("--baseline", default=None,
                        help="previous BENCH_fig_regression file to gate "
                             "against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative drop in ratio metrics "
                             "(default 0.25)")
    args = parser.parse_args(argv)
    scale = "quick" if args.quick else "default"
    out = args.out or ("BENCH_fig_regression.quick.json" if args.quick
                       else "BENCH_fig_regression.json")
    record = run_all(scale)
    with open(out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} (scale={scale})")
    for key in sorted(record["ratios"]):
        print(f"  {key} = {record['ratios'][key]:.2f}x")
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        problems = compare(record, baseline, args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
