"""The replica execution session (the ``ce`` engine).

A replica runs every preplay round of an epoch through one
:class:`~repro.ce.streaming.StreamSession` — one executor pool, each
round's batch on its own controller.  Three properties carry the engine:

* **Pinned schedules** — commit logs and counts equal the fingerprints
  the per-round runner (a fresh controller and pool every round, since
  deleted) recorded for the same seeds, across executor counts,
  reconfigurations, a mid-drain crash and a mid-run censorship window.
* **Boundedness** — each round's graph holds that round alone; the peak
  never grows with round count.
* **Teardown** — ``_reconfigure`` aborts the epoch's session (even
  mid-drain) without orphaning worker processes, and the next epoch's
  session admits on a fresh controller.
"""

import pytest

from repro.contracts import ReplayMemo, default_registry, initial_state
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.core.replica import Replica
from repro.core.shards import ShardMap
from repro.crypto.digest import digest_of
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.metrics.collector import MetricsCollector
from repro.sim import Environment, LatencyModel, Network, make_rng
from repro.workloads import SmallBankWorkload, WorkloadConfig


def run_cluster(seed, duration, executors=16, install=None, drain=0.0,
                **config_kwargs):
    """Run a small cluster; ``install(cluster)`` may plant a fault
    schedule first."""
    from repro.ce.runner import CEConfig
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=seed,
                               ce=CEConfig(executors=executors),
                               **config_kwargs)
    cluster = Cluster(config, WorkloadConfig(accounts=200,
                                             cross_shard_ratio=0.1))
    if install is not None:
        install(cluster)
    result = cluster.run(duration, drain=drain)
    digests = tuple(tuple(r.commit_log.digests()) for r in cluster.replicas)
    return result, digests, cluster


def preplayed_blocks(cluster):
    """Blocks in replica 0's DAG that carry a preplayed batch: one
    session boundary each, at its author."""
    dag = cluster.replicas[0].dag
    return sum(1 for round_number in range(dag.highest_round() + 1)
               for vertex in dag.round_vertices(round_number)
               if vertex.block.preplay)


def pinned(result, digests):
    """What each pin holds: the commit-log fingerprint of every replica
    and the counts the schedule determines."""
    return (digest_of([list(log) for log in digests]), result.executed,
            result.re_executions, result.ce_peak_graph_nodes,
            result.reconfigurations)


#: case -> (fingerprint, executed, re_executions, ce_peak_graph_nodes,
#: reconfigurations), recorded from the per-round runner.
PINS = {
    "executors-4": ("0383ea5bdad43824c81f72a6da507275", 455, 7, 50, 0),
    "executors-16": ("487294cabca4619ab40609d0469f89b8", 455, 44, 50, 0),
    "reconfig-6": ("1543107f286b5245f3341d97be84eec2", 7021, 2143, 50, 66),
    "reconfig-14": ("ebc7fc9e0e0e697e3d499cbbb1e63229", 6968, 2138, 50, 68),
    "reconfig-33": ("9b8a2b0cf2ebb8c9b54398ea8b7b8ebc", 6941, 2049, 50, 68),
    "mid-drain-crash": ("1954cf4105d0235bf7393cd9e536f690", 2077, 279, 50,
                        18),
    "mid-run-censorship": ("c852c771aa3bf950445c6219e8837911", 5415, 1342,
                           50, 12),
}


# ------------------------------------------------------------ pinned schedules

@pytest.mark.parametrize("executors", [4, 16])
def test_streaming_session_matches_per_round_engine(executors):
    """Same seed, same workload: the session's commit logs — which cover
    every block's preplay entries and committed orders — and counts are
    the per-round runner's."""
    result, digests, cluster = run_cluster(13, 0.2, executors=executors)
    assert pinned(result, digests) == PINS[f"executors-{executors}"]
    # Rounds reuse one pool, each round's batch on its own controller.
    assert preplayed_blocks(cluster) > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [6, 14, 33])
def test_streaming_session_matches_through_reconfigurations(seed):
    """The pins hold across epoch transitions: every reconfiguration
    tears the session down and the rebuilt one continues the pinned
    schedule."""
    result, digests, _ = run_cluster(seed, 0.8, k_prime=15, k_silent=10)
    assert result.reconfigurations >= 1
    assert pinned(result, digests) == PINS[f"reconfig-{seed}"]


# --------------------------------------------------------------- boundedness

def test_session_graph_stays_bounded_across_rounds():
    """Fast-lane smoke: over a run with well over three preplay rounds the
    session graph's high-water mark stays at single-round scale — the
    epoch-long graph never accumulates round history."""
    config_cap = 10 * 5  # batch_size * max_batch_factor (one round's cap)
    result, _, cluster = run_cluster(7, 0.2)
    assert preplayed_blocks(cluster) >= 3, "run too short to cover 3 rounds"
    assert 0 < result.ce_peak_graph_nodes <= config_cap
    # Steady state at run end: every live session's newest graph holds
    # at most the round currently in flight.
    for replica in cluster.replicas:
        assert replica._session is not None
        assert len(replica._session.cc.graph.nodes) <= config_cap


# ------------------------------------------------------------------ teardown

def make_replica(replica_id=0, n=4, **config_kwargs):
    defaults = dict(n_replicas=n, batch_size=10, seed=1)
    defaults.update(config_kwargs)
    config = ThunderboltConfig(**defaults)
    env = Environment()
    network = Network(env, n, LatencyModel.fixed(0.001), make_rng(0))
    key_registry = KeyRegistry()
    pairs = [KeyPair.generate(i, 1) for i in range(n)]
    for pair in pairs:
        key_registry.register(pair)
    return Replica(replica_id=replica_id, env=env, network=network,
                   config=config, shard_map=ShardMap(n),
                   registry=default_registry(), keypair=pairs[replica_id],
                   key_registry=key_registry, metrics=MetricsCollector(),
                   initial_state=initial_state(40), memo=ReplayMemo())


def test_reconfigure_mid_drain_tears_down_and_rebuilds():
    """A session dropped mid-drain by ``_reconfigure``: the drain wakes
    with ``None``, the orphaned batch finishes on its own controller, no
    worker process survives, and the next epoch's session admits on a
    fresh controller."""
    replica = make_replica()
    env = replica.env
    old = replica._session
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=40, read_probability=0.5, theta=0.9),
        ShardMap(1), seed=4)
    batch = workload.batch(50)
    old.admit(batch, base_view=dict(initial_state(40)))
    orphan_cc = old.cc
    proc = old.drain()

    def interrupt():
        yield env.timeout(2e-5)
        assert not proc.triggered, "batch finished before the interrupt"
        replica._reconfigure()

    env.process(interrupt())
    env.run()
    assert proc.value is None
    assert replica.epoch == 1
    assert old.closed
    assert all(not worker.is_alive for worker in old.workers)
    assert orphan_cc.stats.commits == len(batch)
    new = replica._session
    assert new is not old and not new.closed
    assert new.cc is None
    # The new session is fully functional in the new epoch.
    new.admit(workload.batch(10), base_view=dict(initial_state(40)))
    assert new.cc is not orphan_cc
    proc = new.drain()
    env.run()
    assert len(proc.value.committed) == 10


# ------------------------------------------------------- mid-run faults

def run_faulted_cluster(install, duration=0.3):
    return run_cluster(21, duration, install=install, drain=0.1,
                       k_silent=4, leader_timeout=0.01)


def test_streaming_matches_per_round_under_mid_drain_crash():
    """A replica crash-stopped mid-run (timed to land inside a preplay
    drain) leaves the pinned schedule in place — an aborted session must
    not perturb what commits."""
    from repro.adversary import schedule_crashes

    def crash(cluster):
        schedule_crashes(cluster, [3], at=0.11)

    result, digests, cluster = run_faulted_cluster(crash)
    assert cluster.replicas[3].crashed
    assert pinned(result, digests) == PINS["mid-drain-crash"]
    assert cluster.logs_prefix_consistent()


def test_streaming_matches_per_round_under_mid_run_censorship():
    """A censorship window opening and closing mid-run (forcing a
    Shift-block reconfiguration that tears sessions down) keeps the
    pinned schedule."""
    from repro.adversary import Censorship

    def censor(cluster):
        cluster.install(Censorship([1], start=0.08, end=0.2))

    result, digests, cluster = run_faulted_cluster(censor, duration=0.4)
    assert result.reconfigurations >= 1
    assert pinned(result, digests) == PINS["mid-run-censorship"]
    assert cluster.logs_prefix_consistent()


@pytest.mark.slow
def test_cluster_reconfigurations_orphan_no_workers(monkeypatch):
    """Over a run with many epoch transitions, every superseded session is
    closed and none of its workers is still alive at the end."""
    from repro.ce.runner import CERunner
    sessions = []
    original = CERunner.open_session

    def tracking(self, env, default=0):
        session = original(self, env, default)
        sessions.append(session)
        return session

    monkeypatch.setattr(CERunner, "open_session", tracking)
    result, _, cluster = run_cluster(6, 0.8, k_prime=15, k_silent=10)
    assert result.reconfigurations >= 1
    live = {r._session for r in cluster.replicas}
    superseded = [s for s in sessions if s not in live]
    assert superseded, "no session was ever torn down"
    for session in superseded:
        assert session.closed
        assert all(not worker.is_alive for worker in session.workers)
