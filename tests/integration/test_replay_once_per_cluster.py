"""Exact-count gate for the cluster's replay memo (`repro.contracts.replay`).

Two seeded smoke-scale clusters shaped like the `tusk_wide` and
`cross_shard` workloads of `benchmarks/e2e`: the host runs every committed
contract once for the whole cluster, all but one replica per work item take
the outcome from the memo, and what the protocol decided — every replica's
commit log and store — is what the commit before the memo produced for the
same seed (the pinned digests below come from running it).  Counts, not
times: the gate reads the same on any machine.
"""

import pytest

from repro.contracts import contract
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.crypto.digest import digest_of
from repro.workloads import WorkloadConfig

from tests.conftest import count_calls

SEED = 11

#: shape -> (config, workload, duration, drain, blocks, commit-log digest,
#: store checksum).  The last three are what the parent commit produces for
#: ``SEED``: the digest is over the first ``blocks`` committed blocks, the
#: length of the shortest log when the run is cut (rounds free-run, so the
#: replicas stop a few empty blocks apart).
SHAPES = {
    "tusk_wide": (
        dict(n_replicas=16, engine="serial", batch_size=5),
        dict(accounts=400), 0.008, 0.1, 1004,
        "7ed37f8a215ce2b6e3c1dcf7f16a9c37",
        "94d863f12505d78776ff8f9ee7e1b656"),
    "cross_shard": (
        dict(n_replicas=8, engine="ce", batch_size=50),
        dict(accounts=400, cross_shard_ratio=0.6), 0.006, 0.3, 1016,
        "c4a8c5f9e15ae08760e0b5a7b37520f1",
        "e1a359880223136f7e98af6345a3654b"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_contracts_run_once_per_cluster_at_the_parents_digests(
        shape, monkeypatch):
    config, workload, duration, drain, blocks, log_digest, store_checksum = \
        SHAPES[shape]
    inline_runs = count_calls(monkeypatch, contract, "run_inline")
    cluster = Cluster(ThunderboltConfig(seed=SEED, **config),
                      WorkloadConfig(**workload))
    result = cluster.run(duration, drain=drain)
    n = config["n_replicas"]

    assert result.executed == cluster.generated > 0
    for replica in cluster.replicas:
        assert len(replica.executed) == result.executed
    # One host execution per transaction, not one per replica.
    assert inline_runs[0] == result.executed
    # Every work item: computed by the first replica, reused by the rest.
    assert result.replays_executed > 0
    assert result.replays_reused == (n - 1) * result.replays_executed
    assert (result.replays_executed, result.replays_reused) == \
        (cluster.memo.executed, cluster.memo.reused)
    # ... and nothing the protocol decided moved.
    assert min(len(replica.commit_log) for replica in cluster.replicas) \
        == blocks
    for replica in cluster.replicas:
        assert digest_of(replica.commit_log.digests()[:blocks]) == log_digest
        assert replica.store.checksum() == store_checksum
