"""The five cluster workloads, as data.

Every workload runs the shipped defaults (strict order, ``pyint`` closure
backend, ``strict_validation=True``) under one load model: closed loop, one
client per proposer, each replica pulling ``batch_size`` fresh SmallBank
transactions from its shard's stream whenever it opens a round; rounds
free-run (``round_interval=0``) over ``LatencyModel.lan()``.

``spans`` gives the simulated ``(duration, longest drain)`` per scale; the
drain ends as soon as every live replica has executed everything.  ``full``
is sized so one untraced child takes about three host seconds on a 2-core
box: the driver measures each workload for a fixed number of host seconds
and the benchmark fits six seeded children into that.  ``smoke`` is what
tier-1 runs.  To resize, scale the durations of all five workloads, never
drop one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import ThunderboltConfig
from repro.workloads.smallbank_workload import WorkloadConfig


@dataclass(frozen=True)
class Workload:
    name: str
    replicas: int
    engine: str
    batch_size: int
    accounts: int
    spans: Dict[str, Tuple[float, float]]
    #: Span names (see ``tracer.ENTRY_POINTS``) a traced run of this workload
    #: must reach; a zero there means a wrapper was bypassed, not idleness.
    reaches: Tuple[str, ...]
    theta: float = 0.85
    read_probability: float = 0.5
    cross_shard_ratio: float = 0.0
    k_prime: Optional[int] = None
    #: Replicas crashed at ``duration / 3``.  Transactions the crashed
    #: proposer held, or that a reconfiguration retransmits to it, are never
    #: executed; only a workload that crashes a replica may lose any.
    crash_replicas: Tuple[int, ...] = ()

    def config(self, seed: int) -> ThunderboltConfig:
        return ThunderboltConfig(
            n_replicas=self.replicas, engine=self.engine,
            batch_size=self.batch_size, k_prime=self.k_prime, seed=seed)

    def workload_config(self) -> WorkloadConfig:
        return WorkloadConfig(
            accounts=self.accounts, theta=self.theta,
            read_probability=self.read_probability,
            cross_shard_ratio=self.cross_shard_ratio)


_EVERYWHERE = ("sim.step", "sim.net_send", "crypto.digest_of",
               "crypto.canonical_encode", "crypto.sign", "crypto.verify",
               "dag.insert", "dag.advance", "storage.apply_batch",
               "contracts.run_inline", "workloads.batch")
_PREPLAY = ("ce.controller.begin", "ce.controller.read",
            "ce.controller.write", "ce.controller.finish",
            "ce.depgraph.add_edge", "ce.depgraph.has_path",
            "ce.depgraph.prune_committed", "ce.session.admit",
            "ce.session.drain", "ce.validate_block")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Quickstart EOV path at moderate contention: preplay controller,
    # closure index, executor pool and DES kernel do the work; cross-shard
    # code does nothing.
    Workload(
        name="single_shard",
        replicas=4, engine="ce-streaming", batch_size=50, accounts=200,
        spans={"full": (0.2, 1.0), "smoke": (0.012, 1.0)},
        reaches=_EVERYWHERE + _PREPLAY),
    # Write-heavy theta=0.99 abort storm: more than one re-execution per
    # transaction, so detach/repair and bridging in the CE layer dominate;
    # guards the abort path against low-conflict tuning.
    Workload(
        name="hot_key",
        replicas=4, engine="ce-streaming", batch_size=200, accounts=200,
        theta=0.99, read_probability=0.2,
        spans={"full": (0.042, 1.0), "smoke": (0.004, 1.0)},
        reaches=_EVERYWHERE + _PREPLAY + ("ce.depgraph.detach_node",)),
    # 60% cross-shard on 8 replicas (Fig. 14 mix): OE path, P3-P5 rules,
    # skip blocks (9 in 10), contracts replayed on every replica; preplay
    # is blocked most rounds and catches up in bursts.
    Workload(
        name="cross_shard",
        replicas=8, engine="ce-streaming", batch_size=50, accounts=400,
        cross_shard_ratio=0.6,
        spans={"full": (0.075, 1.0), "smoke": (0.006, 1.0)},
        reaches=_EVERYWHERE + ("core.cross_exec.execute",
                               "core.cross_exec.replay_one")),
    # Tusk baseline on 16 replicas, small batches: O(n^2) votes, DAG
    # insert, certificates, digests and network carry the run; the bypass
    # workload for CE changes, exercise for consensus ones.
    Workload(
        name="tusk_wide",
        replicas=16, engine="serial", batch_size=5, accounts=400,
        spans={"full": (0.135, 1.0), "smoke": (0.008, 1.0)},
        reaches=_EVERYWHERE + ("core.cross_exec.execute_serial",
                               "core.cross_exec.replay_one")),
    # k_prime=20 rotation with replica 3 crashed at a third of the run:
    # epoch changes, session rebuilds, drops and retransmission; the one
    # workload with lost transactions and long stalls.
    Workload(
        name="rotation_crash",
        replicas=4, engine="ce-streaming", batch_size=50, accounts=200,
        k_prime=20, crash_replicas=(3,),
        spans={"full": (0.52, 0.1), "smoke": (0.2, 0.06)},
        reaches=_EVERYWHERE + _PREPLAY),
)}
