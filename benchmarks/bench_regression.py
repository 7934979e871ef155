"""Bench-regression harness — per-PR ``BENCH_fig_regression.json``.

Runs the depgraph/abort-storm/streaming performance scenarios the repo
already benchmarks and writes one schema-versioned JSON record so every
PR leaves a comparable performance fingerprint:

* **closure-churn** — the dependency graph's closure rows driven
  directly with the contention shape of the acceptance scenario (a
  500-tx theta=0.99 YCSB-F batch is a near-total order; with
  re-executions the graph holds roughly three attempt nodes per
  transaction, hence the ~1500-serial default): build the dense closure
  edge by edge, repair a 30% abort storm in place, rebuild over the
  survivors.
* **depgraph-storm** — the same storm through the real
  :class:`~repro.ce.depgraph.DependencyGraph` (bridging, repair
  decision rule, counters included).
* **streaming** — a short ``engine="ce-streaming"`` cluster run, pinned
  by its commit-log digest.
* **cross-shard-pipeline** — the same deterministic work trace (the
  Fig. 14 60% cross-shard mix) replayed through the batch-synchronous
  cross-shard discipline and through the
  :class:`~repro.core.cross_shard.ShardLanePipeline`, identical
  per-transaction costs in both arms.  Conflicting transactions share a
  lane, so both arms commit the same serial order per conflict chain and
  must end in checksum-identical stores; the sim-time makespan speedup
  (lane overlap only) gates in ``ratios`` and the lane/oracle counters
  in ``exact``.

Wall-clock figures (``ops_per_sec``, ``wall_ms``) are recorded for the
curious but never compared: they depend on the host and jitter at quick
scale.  Regression gating uses the ``ratios`` block — simulated-time
speedups, deterministic and machine-independent — plus the ``exact``
block of deterministic counters and digests, which must reproduce
bit-for-bit anywhere:

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
from repro.contracts import ReplayMemo, default_registry, initial_state
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.core.cross_shard import CrossShardExecutor, ShardLanePipeline
from repro.core.shards import ShardMap
from repro.errors import TransactionAborted
from repro.sim import Environment
from repro.storage.kvstore import KVStore
from repro.workloads import SmallBankWorkload, WorkloadConfig

SCHEMA = "bench-regression/v1"

#: Shard counts for the cross-shard-pipeline trace replay; 16 scales
#: past the paper's largest evaluated configuration.  The speedup grows
#: with the lane count (1.1x -> 3x over this range): at 4 shards a
#: two-shard transaction occupies half the lanes, so convoys cap the
#: overlap, while wider clusters approach the packing bound.  The
#: acceptance floor (>= 1.2x at the 60% mix) is asserted from
#: ``PIPELINE_FLOOR_SHARDS`` up.
PIPELINE_SHARDS = (4, 8, 16)
PIPELINE_FLOOR_SHARDS = 8

#: (nodes, storm transactions, streaming duration, pipeline-trace
#: transactions) per scale.
SCALES = {
    "default": {"nodes": 1400, "storm_txs": 900, "stream_duration": 0.3,
                "pipeline_txs": 600},
    "quick": {"nodes": 700, "storm_txs": 300, "stream_duration": 0.1,
              "pipeline_txs": 240},
}


# ------------------------------------------------------------- closure churn


def closure_churn(n_nodes: int, seed: int = 7) -> Dict:
    """Drive the closure rows through the dense-closure lifecycle: hot-key
    spine build, random shortcut edges, a 30% repair storm, and three
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
    cone_total = 0
    for victim in victims:
        cone = graph._discard(victim, 1 << 30)
        assert cone is not None
        cone_total += cone
    repair_wall = time.perf_counter() - started
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
        "repair_cone_nodes": cone_total,
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
    bridging and the repair decision rule carry the load."""
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
        "repair_fallbacks": stats.repair_fallbacks,
        "bridge_plans": cc.graph.bridge_plans,
        "bridge_fallbacks": cc.graph.bridge_fallbacks,
        "peak_words": stats.bitset_words,
        "wall_ms": round(wall * 1000, 2),
        "ops_per_sec": round(n_txs / wall) if wall else 0,
    }


# ---------------------------------------------------------------- streaming


def streaming_run(duration: float, seed: int = 3) -> Dict:
    """A short ``ce-streaming`` cluster run, fingerprinted by the last
    commit-log digest."""
    config = ThunderboltConfig(
        n_replicas=4, batch_size=10, seed=seed, engine="ce-streaming",
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


# ----------------------------------------------------- cross-shard pipeline


def cross_shard_pipeline(n_shards: int, n_txs: int, seed: int = 21,
                         cross_ratio: float = 0.6) -> Dict:
    """Batch-synchronous vs pipelined cross-shard drain on one trace.

    One deterministic SmallBank trace at the Fig. 14 60% cross-shard mix
    is replayed twice with identical per-transaction costs:

    * **batch-synchronous** — the strict discipline's timing model: per
      batch, shard-local transactions drain in parallel across shards
      (serial within a shard), then the batch's cross-shard transactions
      execute serially as a global barrier.
    * **pipelined** — every batch is a :class:`ShardLanePipeline` wave;
      a transaction occupies only the lanes of the shards it touches, so
      disjoint cross-shard transactions overlap instead of serializing.

    Any two conflicting transactions share a shard — SmallBank keys are
    per-account and an account lives on one shard — hence share a lane
    and replay in the same order in both arms, so the two stores must
    end checksum-identical: the speedup is pure lane overlap, never a
    different schedule.  Everything here is simulated time, so the ratio
    is deterministic and machine-independent."""
    accounts, batch_size = 256, 40
    registry = default_registry()
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=accounts, cross_shard_ratio=cross_ratio,
                       theta=0.6),
        ShardMap(n_shards), seed=seed)
    batches = [workload.batch(batch_size)
               for _ in range(max(2, n_txs // batch_size))]
    wall = 0.0

    # Arm 1: batch-synchronous replay (plain arithmetic over the same
    # replay costs — the strict path's lane plan needs no event loop).
    store_sync = KVStore()
    store_sync.apply_batch(initial_state(accounts))
    executor = CrossShardExecutor(registry, ReplayMemo())
    started = time.perf_counter()
    sync_makespan = 0.0
    order = 0
    for batch in batches:
        local_cost: Dict[int, float] = {}
        cross_cost = 0.0
        for tx in batch:
            entry, cost = executor.replay_one(tx, store_sync, order)
            order += 1
            store_sync.apply_batch(entry.write_set)
            if len(set(tx.shard_ids)) > 1:
                cross_cost += cost
            else:
                local_cost[tx.home_shard] = \
                    local_cost.get(tx.home_shard, 0.0) + cost
        sync_makespan += max(local_cost.values(), default=0.0) + cross_cost
    wall += time.perf_counter() - started

    # Arm 2: the same batches as pipeline waves, all submitted up front —
    # lane tails chain them in order, cross segments overlap when their
    # shard sets are disjoint.
    env = Environment()
    store_piped = KVStore()
    store_piped.apply_batch(initial_state(accounts))
    pipeline = ShardLanePipeline(env,
                                 CrossShardExecutor(registry, ReplayMemo()),
                                 store_piped)
    committed: List[int] = []
    started = time.perf_counter()
    for batch in batches:
        pipeline.submit_wave(list(batch),
                             lambda tx, entry: committed.append(tx.tx_id))
    env.run()
    wall += time.perf_counter() - started
    piped_makespan = env.now

    assert store_piped.checksum() == store_sync.checksum(), \
        "pipelined replay diverged from the batch-synchronous schedule"
    assert len(committed) == sum(len(batch) for batch in batches)
    assert pipeline.oracle.checks == len(batches)
    return {
        "shards": n_shards,
        "transactions": len(committed),
        "cross_ratio": cross_ratio,
        "sync_sim_makespan_us": round(sync_makespan * 1e6, 3),
        "piped_sim_makespan_us": round(piped_makespan * 1e6, 3),
        "sim_speedup": round(sync_makespan / piped_makespan, 4),
        "lane_segments": pipeline.segments,
        "waves": pipeline.waves,
        "lane_oracle_checks": pipeline.oracle.checks,
        "stall_time_us": round(pipeline.stall_time * 1e6, 3),
        "store_checksum": store_piped.checksum(),
        "wall_ms": round(wall * 1000, 2),
        "_wall": wall,
    }


# ------------------------------------------------------------- orchestration


def run_all(scale: str) -> Dict:
    sizes = SCALES[scale]
    churn = closure_churn(sizes["nodes"])
    storm = depgraph_storm(sizes["storm_txs"])
    stream = streaming_run(sizes["stream_duration"])
    record: Dict = {
        "schema": SCHEMA,
        "scale": scale,
        "benches": {"closure_churn": churn, "depgraph_storm": storm,
                    "streaming": stream},
        "ratios": {},
        "exact": {},
    }
    pipe = {shards: cross_shard_pipeline(shards, sizes["pipeline_txs"])
            for shards in PIPELINE_SHARDS}
    record["benches"]["cross_shard_pipeline"] = {
        str(shards): {key: value for key, value in pipe[shards].items()
                      if not key.startswith("_")}
        for shards in PIPELINE_SHARDS
    }
    for shards in PIPELINE_SHARDS:
        speedup = pipe[shards]["sim_speedup"]
        # The acceptance floor: the pipelined discipline beats
        # batch-synchronous by >= 1.2x at the 60% cross-shard mix (from
        # PIPELINE_FLOOR_SHARDS lanes up; narrower clusters are recorded
        # for the scale-out curve and gated against baseline only).
        if shards >= PIPELINE_FLOOR_SHARDS:
            assert speedup >= 1.2, \
                f"pipeline speedup {speedup} < 1.2 at {shards} shards"
        record["ratios"][f"cross_shard_pipeline.sim_speedup_s{shards}"] = \
            speedup
    # Deterministic values: identical on any host at the same scale.
    record["exact"] = {
        "storm_aborts": storm["aborts"],
        "storm_rebuilds": storm["index_rebuilds"],
        "storm_repairs": storm["index_repairs"],
        "storm_bridge_plans": storm["bridge_plans"],
        "stream_executed": stream["executed"],
        "stream_digest": stream["digest"],
        "churn_repair_cone_nodes": churn["repair_cone_nodes"],
        "churn_peak_words": churn["peak_words"],
    }
    for shards in PIPELINE_SHARDS:
        record["exact"][f"pipeline_lane_segments_s{shards}"] = \
            pipe[shards]["lane_segments"]
        record["exact"][f"pipeline_waves_s{shards}"] = \
            pipe[shards]["waves"]
        record["exact"][f"pipeline_oracle_checks_s{shards}"] = \
            pipe[shards]["lane_oracle_checks"]
        record["exact"][f"pipeline_store_checksum_s{shards}"] = \
            pipe[shards]["store_checksum"]
    return record


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
