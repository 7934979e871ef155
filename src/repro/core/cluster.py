"""Cluster harness: builds and runs a full Thunderbolt deployment.

Wires together the network, the replicas (each a shard proposer), the
per-shard client streams, key material, and fault injection; then runs the
simulation for a configured duration and summarises the measurements the
paper's system evaluation (§12) reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.contracts import smallbank
from repro.contracts.contract import ContractRegistry
from repro.contracts.replay import ReplayMemo
from repro.core.config import ThunderboltConfig
from repro.core.replica import Replica
from repro.core.shards import ShardMap
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.errors import ConfigError
from repro.metrics.collector import MetricsCollector
from repro.sim.environment import Environment
from repro.sim.network import Network
from repro.sim.rng import make_rng
from repro.storage.log import prefix_consistent
from repro.txn import Transaction
from repro.workloads.smallbank_workload import (SmallBankWorkload,
                                                WorkloadConfig)


@dataclass
class ClusterResult:
    """Summary of one simulated run."""

    duration: float
    executed: int
    throughput: float
    mean_latency: float
    p50_latency: float
    p99_latency: float
    executed_single: int
    executed_cross: int
    re_executions: int
    validation_failures: int
    #: Transactions recovered by deterministic re-execution after a block
    #: failed commit-time validation (summed over replicas — each live
    #: replica replays the rejected block itself).
    validation_reexecutions: int
    #: Heal events recorded by healing network partitions
    #: (repro.adversary.Partition).
    partition_heals: int
    reconfigurations: int
    dropped_transactions: int
    blocks_committed: int
    #: Concurrency-controller health summed over every preplayed batch
    #: (each batch runs on its own controller): query volume on the
    #: reachability index, the compactions it paid, the aborts it
    #: absorbed (one O(1) tombstone each), and the dependency graph's
    #: node high-water mark.
    cc_path_queries: int
    cc_index_rebuilds: int
    cc_index_repairs: int
    ce_peak_graph_nodes: int
    #: Peak closure row width, in 64-bit words, the reachability index
    #: reached (0 for baseline engines that never ran a CE controller).
    cc_bitset_words: int
    #: Scheduler events the run consumed: a deterministic, machine-
    #: independent measure of simulator work at a given schedule.
    events_processed: int
    metrics: MetricsCollector
    #: Committed work items the host replayed / a replica took from the
    #: cluster's ReplayMemo; the model replays (and charges) their sum.
    replays_executed: int = 0
    replays_reused: int = 0

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (f"{self.throughput:,.0f} tps, latency mean "
                f"{self.mean_latency * 1000:.1f} ms "
                f"(p99 {self.p99_latency * 1000:.1f} ms), "
                f"{self.executed} executed, "
                f"{self.reconfigurations} reconfigurations")


class Cluster:
    """A simulated Thunderbolt deployment of ``config.n_replicas`` nodes."""

    def __init__(self, config: ThunderboltConfig,
                 workload: WorkloadConfig,
                 crash_replicas: Sequence[int] = (),
                 crash_at: float = 0.0,
                 registry: Optional[ContractRegistry] = None,
                 initial_state: Optional[Dict[str, object]] = None,
                 source_factory=None) -> None:
        """``registry``/``initial_state``/``source_factory`` plug a non-
        SmallBank contract family in (e.g. TPC-C-lite); the defaults keep
        the historical SmallBank deployment byte-for-byte identical.
        ``source_factory(cluster, shard)`` must return a per-shard client
        stream exposing ``batch(count, now) -> List[Transaction]`` and is
        responsible for striding tx ids so shards never collide."""
        if any(not 0 <= r < config.n_replicas for r in crash_replicas):
            raise ConfigError(f"crash_replicas out of range: {crash_replicas}")
        self.config = config
        self.workload_config = workload
        self.env = Environment()
        self.metrics = MetricsCollector()
        self.shard_map = ShardMap(config.n_replicas)
        self.registry: ContractRegistry = (
            smallbank.default_registry() if registry is None else registry)
        rng = make_rng(config.seed)
        self.network = Network(self.env, config.n_replicas, config.latency,
                               rng)
        self.key_registry = KeyRegistry()
        keypairs = [KeyPair.generate(i, config.seed)
                    for i in range(config.n_replicas)]
        for pair in keypairs:
            self.key_registry.register(pair)
        state = (smallbank.initial_state(workload.accounts)
                 if initial_state is None else dict(initial_state))
        self.initial_state: Dict[str, object] = dict(state)
        #: Committed work replays here once for all replicas.
        self.memo = ReplayMemo()
        self.replicas: List[Replica] = [
            Replica(replica_id=i, env=self.env, network=self.network,
                    config=config, shard_map=self.shard_map,
                    registry=self.registry, keypair=keypairs[i],
                    key_registry=self.key_registry, metrics=self.metrics,
                    initial_state=state, memo=self.memo)
            for i in range(config.n_replicas)
        ]
        #: One client stream per shard; tx ids are strided by shard so
        #: streams never collide.
        if source_factory is None:
            self._sources: Dict[int, object] = {
                shard: SmallBankWorkload(
                    workload, self.shard_map,
                    seed=(config.seed << 10) ^ (shard * 7919 + 13),
                    start_tx_id=shard, shard=shard,
                    tx_id_stride=config.n_replicas)
                for shard in range(config.n_replicas)
            }
        else:
            self._sources = {shard: source_factory(self, shard)
                             for shard in range(config.n_replicas)}
        self._sources_open = True
        for replica in self.replicas:
            replica.tx_source = self._make_source(replica)
            replica.on_drop = self._on_drop
        self._crash_replicas = tuple(crash_replicas)
        self._crash_at = crash_at
        self.generated = 0
        #: Installed adversary behaviours (see :meth:`install`).
        self.adversaries: List[object] = []

    def install(self, behavior) -> None:
        """Install a fault/attack behaviour (repro.adversary.behaviors).

        Anything with an ``install(cluster)`` method qualifies; the
        behaviour is kept on :attr:`adversaries` so tests can inspect or
        heal it mid-run.
        """
        behavior.install(self)
        self.adversaries.append(behavior)

    # -- client plumbing ------------------------------------------------------

    def _make_source(self, replica: Replica):
        def source(count: int, now: float) -> List[Transaction]:
            if not self._sources_open:
                return []
            stream = self._sources[replica.my_shard]
            batch = stream.batch(count, now)
            self.generated += len(batch)
            return batch
        return source

    def _on_drop(self, replica: Replica,
                 dropped: List[Transaction]) -> None:
        """Client retransmission (§6): transactions that died with the old
        DAG are resubmitted to the shard's *new* proposer, keeping their
        original submission time."""
        for tx in dropped:
            home = tx.home_shard
            proposer = self.replicas[
                self.shard_map.proposer_of(home, replica.epoch)]
            if proposer.crashed:
                continue
            original = replica._submit_times.get(tx.tx_id)
            proposer.submit(tx, now=original)

    def stop_sources(self) -> None:
        """Stop generating new client load (used to drain before checks)."""
        self._sources_open = False

    # -- running ----------------------------------------------------------------

    def run(self, duration: float, drain: float = 0.0) -> ClusterResult:
        """Run the cluster for ``duration`` simulated seconds.

        ``drain`` optionally appends a load-free period so in-flight work
        completes before measurement (useful for consistency checks).
        """
        for replica in self.replicas:
            replica.start()
        if self._crash_replicas:
            self.env.process(self._crasher())
        self.env.run(until=duration)
        if drain > 0:
            self.stop_sources()
            self.env.run(until=duration + drain)
        return self._summarise(duration + drain)

    def _crasher(self):
        if self._crash_at > 0:
            yield self.env.timeout(self._crash_at)
        else:
            yield self.env.timeout(0)
        for replica_id in self._crash_replicas:
            self.replicas[replica_id].crash()

    def _summarise(self, duration: float) -> ClusterResult:
        metrics = self.metrics
        return ClusterResult(
            duration=duration,
            executed=metrics.executed_count(),
            throughput=metrics.throughput(duration),
            mean_latency=metrics.mean_latency(),
            p50_latency=metrics.percentile_latency(0.50),
            p99_latency=metrics.percentile_latency(0.99),
            executed_single=metrics.executed_count("single"),
            executed_cross=metrics.executed_count("cross"),
            re_executions=metrics.re_executions,
            validation_failures=metrics.validation_failures,
            validation_reexecutions=metrics.validation_reexecutions,
            partition_heals=metrics.partition_heals,
            reconfigurations=len(metrics.reconfigurations),
            dropped_transactions=metrics.dropped_transactions,
            blocks_committed=metrics.blocks_committed,
            cc_path_queries=metrics.cc_path_queries,
            cc_index_rebuilds=metrics.cc_index_rebuilds,
            cc_index_repairs=metrics.cc_index_repairs,
            ce_peak_graph_nodes=metrics.ce_peak_graph_nodes,
            cc_bitset_words=metrics.cc_bitset_words,
            events_processed=self.env.events_processed,
            metrics=metrics,
            replays_executed=self.memo.executed,
            replays_reused=self.memo.reused,
        )

    # -- safety inspection ---------------------------------------------------------

    def live_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if not r.crashed]

    def logs_prefix_consistent(self) -> bool:
        """Safety: every pair of live replicas' commit logs must be
        prefix-consistent."""
        live = self.live_replicas()
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                if not prefix_consistent(a.commit_log, b.commit_log):
                    return False
        return True

    def state_checksums(self) -> Dict[int, Tuple[int, str]]:
        """(commit-log length, store checksum) per live replica.

        Replicas with equal log lengths and drained execution queues must
        hold identical state.
        """
        return {r.id: (len(r.commit_log), r.store.checksum())
                for r in self.live_replicas()}


def run_cluster(config: ThunderboltConfig, workload: WorkloadConfig,
                duration: float, crash_replicas: Sequence[int] = (),
                crash_at: float = 0.0, drain: float = 0.0) -> ClusterResult:
    """Convenience one-shot: build, run, summarise."""
    cluster = Cluster(config, workload, crash_replicas=crash_replicas,
                      crash_at=crash_at)
    return cluster.run(duration, drain=drain)
