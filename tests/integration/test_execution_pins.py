"""Every execution sample, pinned.

A replica marks a whole applied batch executed at one instant, and the
cluster's collector samples each transaction once, for the first replica
that applies it.  Two seeded smoke-scale clusters pin the digest of
``metrics.executions`` — transaction id, kind, submit time and execution
time of every sample, in recording order — at the values the simulator
produced when each replica recorded its transactions one call at a time:
the Tusk baseline on 16 replicas (every kind ``serial``), and a
cross-shard CE cluster with one replica publishing forged preplay sets,
so validated, re-executed and cross-shard batches all record samples.
"""

import pytest

from repro.adversary import ByzantineExecutor
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.crypto.digest import digest_of
from repro.workloads import WorkloadConfig

SEED = 11


def executions_digest(cluster) -> str:
    return digest_of([[sample.tx_id, sample.kind, sample.submitted_at,
                       sample.executed_at]
                      for sample in cluster.metrics.executions])


#: shape -> (config, workload, forging replicas, duration, kinds sampled,
#: digest of the samples).
SHAPES = {
    "tusk_wide": (
        dict(n_replicas=16, engine="serial", batch_size=5),
        dict(accounts=400), (), 0.008,
        {"serial": 400}, "51fc37916db85f2ca89c0b9ae8e77267"),
    "cross_shard_forged": (
        dict(n_replicas=8, engine="ce", batch_size=50),
        dict(accounts=400, cross_shard_ratio=0.6), (1,), 0.006,
        {"single": 489, "cross": 711}, "52f95de00d21ddc1769f55e206a0af4e"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_execution_samples_keep_the_parents_digest(shape):
    config, workload, forging, duration, kinds, pinned = SHAPES[shape]
    cluster = Cluster(ThunderboltConfig(seed=SEED, **config),
                      WorkloadConfig(**workload))
    if forging:
        cluster.install(ByzantineExecutor(forging, rate=1.0))
    result = cluster.run(duration, drain=0.1)
    assert result.executed == cluster.generated > 0
    sampled = {}
    for sample in cluster.metrics.executions:
        sampled[sample.kind] = sampled.get(sample.kind, 0) + 1
    assert sampled == kinds
    if forging:
        assert cluster.metrics.validation_reexecutions > 0
    assert executions_digest(cluster) == pinned
