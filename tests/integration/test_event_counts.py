"""Exact-count gate for the DES kernel's event budget.

A delivered message is one event (the network calls the recipient's
connected handler), and a gated controller operation is one event for the
hold plus its operation delay (``repro.sim.Gate``).  Two seeded
smoke-scale clusters shaped like the `tusk_wide` and `single_shard`
workloads of `benchmarks/e2e` pin ``Environment.events_processed``, and
every replica's commit log and store are what the commit before the
change produced for the same seed (the pinned fingerprints come from
running it).  With an inbox event per message and a grant event per
operation, the same runs took 102,622 and 20,216 events.  The adversary
cells that re-deliver messages late (gray failure, proposal delay) or
drop them (partition) are pinned the same way.  Counts, not times: the
gate reads the same on any machine.  The proposal-delay cluster ran
30,004 events when the CE engine built a fresh controller and worker pool
every round; one session per epoch runs the same schedule in 25,555.
"""

import pytest

from repro.adversary import install_proposal_delay
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.crypto.digest import digest_of
from repro.scenarios import (Scenario, default_adversaries,
                             default_workloads, run_scenario)
from repro.workloads import WorkloadConfig

SEED = 11


def fingerprint(cluster) -> str:
    """Every replica's commit-log digest and store checksum, in one."""
    return digest_of([[digest_of(replica.commit_log.digests()),
                       replica.store.checksum()]
                      for replica in cluster.replicas])


#: shape -> (config, workload, duration, drain, events, messages delivered,
#: fingerprint).
SHAPES = {
    "tusk_wide": (
        dict(n_replicas=16, engine="serial", batch_size=5),
        dict(accounts=400), 0.008, 0.1, 51_911, 50_695,
        "5fa4ed887e8fc1b5cb0a385c07fc349d"),
    "single_shard": (
        dict(n_replicas=4, engine="ce", batch_size=50),
        dict(accounts=200), 0.012, 0.1, 13_787, 2_216,
        "d5f3ce85df7bb563e3d876553f92e564"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_event_count_at_the_parents_digests(shape):
    config, workload, duration, drain, events, delivered, pinned = \
        SHAPES[shape]
    cluster = Cluster(ThunderboltConfig(seed=SEED, **config),
                      WorkloadConfig(**workload))
    result = cluster.run(duration, drain=drain)
    assert result.executed == cluster.generated > 0
    assert cluster.network.messages_delivered == delivered
    assert cluster.env.events_processed == events
    assert fingerprint(cluster) == pinned


ADVERSARIES = {case.name: case for case in default_adversaries()}

#: matrix adversary -> (executed, fingerprint of every replica's log).
CELLS = {
    "gray-slow": (232, "8e9a77b78a8ce0ce1ac38b671c9ce19f"),
    "partition-heal": (265, "7744118be59817a36117b62efdad5cfd"),
}


@pytest.mark.parametrize("adversary", sorted(CELLS))
def test_hostile_network_cells_keep_the_parents_digests(adversary):
    workload = next(case for case in default_workloads()
                    if case.name == "smallbank-flash")
    cell = run_scenario(Scenario(
        adversary=ADVERSARIES[adversary], workload=workload,
        duration=0.15, drain=0.06))
    assert cell.ok, cell.safety.failures
    assert (cell.result.executed,
            digest_of([list(log) for log in cell.digests])) == \
        CELLS[adversary]


def test_proposal_delay_keeps_the_parents_digests():
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=1000, leader_timeout=0.005)
    cluster = Cluster(config, WorkloadConfig(accounts=200))
    install_proposal_delay(cluster, [1], extra_delay=0.02)
    result = cluster.run(0.3, drain=0.1)
    assert cluster.logs_prefix_consistent()
    assert result.executed == 2520
    assert cluster.env.events_processed == 25_555
    assert fingerprint(cluster) == "25dd796a974fe06a424725760d35a309"
