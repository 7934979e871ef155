"""One seeded run of one workload: build the cluster, run it, check its
outputs, compute every metric.  ``python -m benchmarks.e2e.iteration ARGS``
does this in a fresh process and prints the record as one JSON line, so
set-up time includes the interpreter start and ``import repro``, and peak
RSS belongs to this run alone.

Clocks: ``sim_*`` and every count are on the DES clock and repeat exactly
for a seed.  ``setup_s`` and ``slice_cpu_s`` are CPU seconds of this process
(``time.process_time``): the program is single-threaded and does no I/O, so
that is the host time it costs, without the time a busy neighbour on a
shared box keeps it off the processor.  ``run_s`` and every ``*_share`` are
wall-clock (``time.perf_counter``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.contracts import smallbank
from repro.core.cluster import Cluster
from repro.crypto.digest import digest_of
from repro.scenarios import SafetyChecker
from repro.workloads.smallbank_workload import SmallBankWorkload

from benchmarks.e2e.tracer import Tracer, wrappers_installed
from benchmarks.e2e.workloads import WORKLOADS, Workload

#: tx id -> (simulated submit time, shard whose client stream issued it)
Stamps = Dict[int, Tuple[float, int]]


class StampingSource:
    """A shard's client stream that remembers when it issued each
    transaction: the one place a transaction's submit time is known (the
    replica that executes it first is usually not its proposer, which is
    why ``ClusterResult.p50_latency`` reads 0)."""

    def __init__(self, inner, shard: int, stamps: Stamps) -> None:
        self._inner = inner
        self._shard = shard
        self._stamps = stamps

    def batch(self, count: int, now: float) -> list:
        transactions = self._inner.batch(count, now)
        for tx in transactions:
            self._stamps[tx.tx_id] = (now, self._shard)
        return transactions


def build_cluster(workload: Workload, seed: int, duration: float,
                  stamps: Stamps) -> Cluster:
    """The cluster under test, fed by the per-shard streams ``Cluster``
    itself would build (same seeds, same id striding), stamped."""
    workload_config = workload.workload_config()

    def source(cluster, shard):
        config = cluster.config
        return StampingSource(
            SmallBankWorkload(
                workload_config, cluster.shard_map,
                seed=(config.seed << 10) ^ (shard * 7919 + 13),
                start_tx_id=shard, shard=shard,
                tx_id_stride=config.n_replicas),
            shard, stamps)

    return Cluster(workload.config(seed), workload_config,
                   crash_replicas=workload.crash_replicas,
                   crash_at=duration / 3, source_factory=source)


#: Slices of the load window.  The drain goes on in slices as long.
SLICES = 64


def run_and_drain(cluster, duration: float, max_drain: float,
                  stamps: Stamps) -> List[float]:
    """Load the cluster for ``duration`` simulated seconds, then close the
    client streams and keep simulating until every live replica has
    executed every issued transaction, or ``max_drain`` has passed: a
    drain as long as this seed needs, so that no seed loses a transaction
    to a drain cut short and none pays for idle rounds.

    The simulation advances in slices of ``duration / SLICES`` and the CPU
    seconds of each are returned.  A slice is the same deterministic work
    in every repeat of a seed, so the parent can take each slice's fastest
    repeat: on a shared box a neighbour slows a child for a second at a
    time, rarely the same slice twice.
    """
    env, slices, index = cluster.env, [], 0
    replicas = None
    while True:
        index += 1
        until = duration * index / SLICES
        began = time.process_time()
        if index == 1:
            cluster.run(until)  # starts the replicas and the crash timer
        else:
            env.run(until=until)
        slices.append(time.process_time() - began)
        if index == SLICES:
            cluster.stop_sources()
            replicas = cluster.live_replicas()
        if replicas is not None and (
                until >= duration + max_drain or not any(
                    len(replica.executed) < len(stamps)
                    for replica in replicas)):
            return slices


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def longest_stall(executions, stamps: Stamps, shards: int,
                  duration: float) -> float:
    """Longest time, inside the load window, that some shard's clients saw
    none of their transactions execute; the window's ends close a gap."""
    times: List[List[float]] = [[0.0] for _ in range(shards)]
    for sample in executions:
        if sample.executed_at <= duration:
            times[stamps[sample.tx_id][1]].append(sample.executed_at)
    worst = 0.0
    for series in times:
        series.sort()
        series.append(duration)
        worst = max(worst, max(b - a for a, b in zip(series, series[1:])))
    return worst


def simulated_metrics(cluster, stamps: Stamps,
                      duration: float) -> Dict[str, float]:
    """What the DES clock decides about a finished run: exact for a seed,
    whether or not the run was traced."""
    executions = cluster.metrics.executions
    latencies = sorted(sample.executed_at - stamps[sample.tx_id][0]
                       for sample in executions)
    return {
        # Over the whole makespan, not the load window: executions come in
        # block-sized bursts, and counting those that fall inside a window
        # of a few rounds moves by a whole burst from seed to seed.
        "sim_tps": len(executions) / max(sample.executed_at
                                         for sample in executions),
        "sim_commit_mean_ms": sum(latencies) / len(latencies) * 1e3,
        "sim_commit_p50_ms": percentile(latencies, 0.50) * 1e3,
        "sim_commit_p95_ms": percentile(latencies, 0.95) * 1e3,
        "sim_commit_p99_ms": percentile(latencies, 0.99) * 1e3,
        "sim_max_shard_stall_ms": longest_stall(
            executions, stamps, cluster.config.n_replicas, duration) * 1e3,
        "committed_share": len(executions) / len(stamps),
        "failed_share": 1 - len(executions) / len(stamps),
        "events_per_tx": cluster.env.events_processed / len(executions),
    }


def commit_digest(cluster) -> str:
    """Fingerprint of what the modelled protocol decided: a digest of
    replica 0's whole commit log, and its store checksum."""
    replica = cluster.replicas[0]
    return (f"{digest_of(replica.commit_log.digests())}:"
            f"{replica.store.checksum()}")


def smallbank_total(accounts: int):
    def total(state) -> int:
        return sum(state.get(smallbank.checking_key(account), 0)
                   + state.get(smallbank.savings_key(account), 0)
                   for account in range(accounts))
    return total


def check_outputs(workload: Workload, cluster, stamps: Stamps) -> List[str]:
    """Everything that makes a run's numbers void, as messages."""
    report = SafetyChecker(
        conserved=smallbank_total(workload.accounts)).check(cluster)
    problems = list(report.failures)
    executed = len(cluster.metrics.executions)
    if executed == 0:
        problems.append("no transaction executed")
    if len(stamps) != cluster.generated:
        problems.append(f"{cluster.generated} generated but "
                        f"{len(stamps)} stamped")
    if not workload.crash_replicas and executed != len(stamps):
        problems.append(f"{len(stamps) - executed} of {len(stamps)} "
                        f"transactions never executed on a fault-free run")
    return problems


def layer_metrics(tracer: Tracer, cluster, stamps: Stamps,
                  run_s: float, duration: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run.  Counts come from the program's
    public counters and the span call counts and are exact; a ``*_share``
    is self time over the traced run's host time."""
    metrics = cluster.metrics
    executed = len(metrics.executions)
    generated = len(stamps)
    blocks = sum(replica.blocks_proposed for replica in cluster.replicas)
    network = cluster.network
    calls, own = tracer.calls, tracer.self_seconds
    in_window = sum(1 for sample in metrics.executions
                    if sample.executed_at <= duration)
    kinds = metrics.blocks_by_kind
    return {
        "sim.step_self_us_per_event":
            own("sim.step") / cluster.env.events_processed * 1e6,
        "sim.step_self_share": own("sim.step") / run_s,
        "sim.net_msgs_per_tx": network.messages_sent / executed,
        "sim.net_send_self_share": own("sim.net_send") / run_s,
        "sim.msgs_dropped_share":
            network.messages_dropped / network.messages_sent,
        "crypto.digest_calls_per_block": calls("crypto.digest_of") / blocks,
        "crypto.encode_calls_per_block":
            calls("crypto.canonical_encode") / blocks,
        "crypto.encode_kb_per_tx": tracer.encoded_bytes / 1024 / executed,
        "crypto.sign_calls_per_block": calls("crypto.sign") / blocks,
        "crypto.verify_calls_per_block": calls("crypto.verify") / blocks,
        "crypto.self_share": own("crypto.") / run_s,
        "dag.insert_calls_per_block": calls("dag.insert") / blocks,
        "dag.insert_self_share": own("dag.insert") / run_s,
        "dag.advance_calls_per_block": calls("dag.advance") / blocks,
        "dag.advance_self_share": own("dag.advance") / run_s,
        "dag.tx_per_block": executed / blocks,
        "dag.skip_block_share": kinds.get("skip", 0) / sum(kinds.values()),
        "ce.reexec_per_tx": metrics.re_executions / executed,
        "ce.ops_per_tx": (calls("ce.controller.read")
                          + calls("ce.controller.write")) / executed,
        "ce.path_queries_per_tx": metrics.cc_path_queries / executed,
        "ce.index_repairs_per_tx": metrics.cc_index_repairs / executed,
        "ce.index_rebuilds": metrics.cc_index_rebuilds,
        "ce.peak_graph_nodes": metrics.ce_peak_graph_nodes,
        "ce.bitset_words": metrics.cc_bitset_words,
        "ce.controller_self_share": own("ce.controller.") / run_s,
        "ce.depgraph_self_share": own("ce.depgraph.") / run_s,
        "ce.session_self_share": own("ce.session.") / run_s,
        "ce.validate_calls_per_block": calls("ce.validate_block") / blocks,
        "ce.validate_self_share": own("ce.validate_block") / run_s,
        "ce.validation_failures": metrics.validation_failures,
        "core.cross_exec_calls_per_tx": calls("core.cross_exec.") / executed,
        "core.cross_exec_self_share": own("core.cross_exec.") / run_s,
        "core.cross_tx_share": metrics.executed_count("cross") / executed,
        "core.backlog_share": (generated - in_window) / generated,
        "core.reconfigurations": len(metrics.reconfigurations),
        "core.dropped_tx_share": metrics.dropped_transactions / generated,
        "contracts.inline_runs_per_tx":
            calls("contracts.run_inline") / executed,
        "contracts.self_share": own("contracts.") / run_s,
        "storage.apply_calls_per_block":
            calls("storage.apply_batch") / blocks,
        "storage.keys_written_per_tx": tracer.keys_written / executed,
        "storage.checksum_calls": calls("storage.checksum"),
        "storage.self_share": own("storage.") / run_s,
        "workloads.batch_self_share": own("workloads.batch") / run_s,
        "trace.unattributed_share":
            (run_s - tracer.top_level_seconds()) / run_s,
    }


def run_iteration(name: str, seed: int, scale: str = "full",
                  trace: bool = False,
                  trace_out: Optional[str] = None) -> Dict[str, Any]:
    """Run workload ``name`` once with ``seed`` and return its record.

    ``setup_s`` is the CPU time this process has used when the cluster
    stands — interpreter start, imports and construction when the process
    was started for this call alone, as the driver's children are.  A
    traced run installs the span wrappers before the cluster exists and
    removes them before outputs are checked.
    """
    workload = WORKLOADS[name]
    duration, drain = workload.spans[scale]
    stamps: Stamps = {}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        cluster = build_cluster(workload, seed, duration, stamps)
        setup_s = time.process_time()
        leaked = [] if trace else wrappers_installed()
        began = time.perf_counter()
        slice_cpu_s = run_and_drain(cluster, duration, drain, stamps)
        run_s = time.perf_counter() - began
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = check_outputs(workload, cluster, stamps)
    problems.extend(f"untraced run measured through wrapper {where}"
                    for where in leaked)
    if tracer is not None:
        problems.extend(f"traced run never reached {span}"
                        for span in tracer.missing(workload.reaches))
    executed = len(cluster.metrics.executions)
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "scale": scale, "traced": trace,
        "problems": problems,
        "generated": len(stamps), "executed": executed,
        "setup_s": setup_s, "slice_cpu_s": slice_cpu_s, "run_s": run_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commit_digest": commit_digest(cluster),
    }
    if executed:
        record["sim"] = simulated_metrics(cluster, stamps, duration)
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, cluster, stamps, run_s,
                                             duration)
    if tracer is not None and trace_out is not None:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle)
    return record


def main(argv: Sequence[str]) -> int:
    record = run_iteration(**json.loads(argv[0]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
