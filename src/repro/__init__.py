"""Thunderbolt: concurrent smart contract execution with non-blocking
reconfiguration for sharded DAGs.

A pure-Python reproduction of the EDBT 2026 paper (Chen, Sonnino,
Kokoris-Kogias, Sadoghi).  The package is organised as:

* :mod:`repro.ce` — the Concurrent Executor: dependency-graph concurrency
  control without prior read/write-set knowledge (the paper's core).
* :mod:`repro.core` — the Thunderbolt protocol: sharding, proposal rules
  P1–P6, cross-shard execution, validation, Shift-block reconfiguration,
  and the cluster harness.
* :mod:`repro.dag` — the Narwhal/Tusk certified-DAG consensus substrate.
* :mod:`repro.baselines` — OCC, 2PL-No-Wait and serial execution.
* :mod:`repro.contracts` — the contract runtime and the SmallBank suite.
* :mod:`repro.sim`, :mod:`repro.crypto`, :mod:`repro.storage` — the
  simulation, cryptography and storage substrates.
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.adversary` —
  workload generation, measurement, fault injection.

Quickstart::

    from repro import quickrun
    result = quickrun(n_replicas=4, duration=2.0)
    print(result)
"""

from repro.ce import CEConfig, CERunner, ConcurrencyController
from repro.core import (Cluster, ClusterResult, ThunderboltConfig,
                        run_cluster)
from repro.txn import Transaction, TxKind
from repro.workloads import SmallBankWorkload, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "CEConfig",
    "CERunner",
    "Cluster",
    "ClusterResult",
    "ConcurrencyController",
    "SmallBankWorkload",
    "ThunderboltConfig",
    "Transaction",
    "TxKind",
    "WorkloadConfig",
    "quickrun",
    "run_cluster",
]


def quickrun(n_replicas: int = 4, duration: float = 2.0,
             engine: str = "ce", seed: int = 0,
             cross_shard_ratio: float = 0.0,
             batch_size: int = 50) -> ClusterResult:
    """Run a small Thunderbolt cluster with sane defaults and return the
    summary — the one-liner used by the README quickstart."""
    config = ThunderboltConfig(n_replicas=n_replicas, engine=engine,
                               seed=seed, batch_size=batch_size)
    workload = WorkloadConfig(accounts=max(200, n_replicas * 20),
                              cross_shard_ratio=cross_shard_ratio)
    return run_cluster(config, workload, duration=duration)
