"""Pinned commit logs of the cross-shard path.

Cross-shard transactions run as one ordered OE batch per commit
(:meth:`repro.core.cross_shard.CrossShardExecutor.execute`).  These pins
hold its schedule: commit-log digests at the 60% cross-shard mix match
their fingerprints on every row backend id (``tests/ce/word_rows.py``)
and over a shard-count × seed sweep.
"""

import hashlib

import pytest

from repro.ce import controller as controller_module
from repro.ce.runner import CEConfig
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.workloads.smallbank_workload import WorkloadConfig
from tests.ce.word_rows import BACKENDS, graph_class


def _digests(*, seed, n=4, duration):
    """Every replica's commit-log digests after a drained 60% cross-shard
    run."""
    config = ThunderboltConfig(
        n_replicas=n, seed=seed, batch_size=8,
        ce=CEConfig(executors=8, op_cost=5e-6))
    cluster = Cluster(config, WorkloadConfig(accounts=64,
                                             cross_shard_ratio=0.6))
    cluster.run(duration, drain=0.1)
    return tuple(tuple(replica.commit_log.digests())
                 for replica in cluster.replicas)


#: Strict ``ce`` commit logs at the 60% cross-shard mix, taken
#: before the closure rows moved into the graph; any schedule change
#: moves them.
STRICT_FINGERPRINTS = {0: "999afc50291b4524", 3: "e7e6db495c9cac30"}


@pytest.mark.parametrize("seed", [0, 3])
def test_strict_digests_identical_across_backends(monkeypatch, seed):
    """Cross-shard determinism satellite (quick shape): strict-mode
    commit-log digests are bit-identical to the pinned ones, with or
    without the closure rows checked against the word layouts."""
    for backend in BACKENDS:
        monkeypatch.setattr(controller_module, "DependencyGraph",
                            graph_class(backend))
        digests = _digests(seed=seed, duration=0.15)
        assert hashlib.sha256(repr(digests).encode()).hexdigest()[:16] \
            == STRICT_FINGERPRINTS[seed], backend


#: (replicas, seed) -> commit-log fingerprint of the strict sweep below,
#: recorded from the per-round runner (a fresh controller and worker pool
#: every round) before the epoch session became the one CE engine.
SWEEP_FINGERPRINTS = {
    (4, 0): "836b577850804cfa", (4, 1): "a9023284ee600ddd",
    (4, 2): "4d10744b2b759ed3", (8, 0): "aa1c97bd817d0841",
    (8, 1): "276c04b3ab5e7671", (8, 2): "4f95ecca5d87f6c5",
}


@pytest.mark.slow
@pytest.mark.parametrize("n_replicas", [4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strict_digest_sweep_shard_counts(n_replicas, seed):
    """The long-lived session commits exactly what per-round controllers
    committed, at every shard count."""
    digests = _digests(seed=seed, n=n_replicas, duration=0.2)
    assert hashlib.sha256(repr(digests).encode()).hexdigest()[:16] \
        == SWEEP_FINGERPRINTS[n_replicas, seed]
