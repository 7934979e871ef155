"""The replica execution session (``engine="ce-streaming"``).

Under ``ce-streaming`` a replica runs every preplay round of an epoch
through one long-lived :class:`~repro.ce.streaming.StreamSession` —
one dependency graph, closure index, and executor pool — instead of a
throwaway ``run_batch`` call per round.  Three properties carry the mode:

* **Equivalence** — per-round committed orders and preplay entries (and
  hence every block digest and the whole commit log) are byte-identical
  to the ``engine="ce"`` per-round path, across seeds, executor counts,
  and reconfigurations.
* **Boundedness** — boundary pruning keeps the session graph at round
  scale for the whole epoch; the peak never grows with round count.
* **Teardown** — ``_reconfigure`` aborts the epoch's session (even
  mid-drain) without orphaning worker processes, and the next epoch's
  session starts from a clean graph.
"""

import pytest

from repro.contracts import ReplayMemo, default_registry, initial_state
from repro.core import ThunderboltConfig
from repro.core.cluster import Cluster
from repro.core.config import ENGINES
from repro.core.replica import Replica
from repro.core.shards import ShardMap
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.metrics.collector import MetricsCollector
from repro.sim import Environment, LatencyModel, Network, make_rng
from repro.workloads import SmallBankWorkload, WorkloadConfig


def run_cluster(engine, seed, duration, executors=16, **config_kwargs):
    from repro.ce.runner import CEConfig
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=seed,
                               engine=engine,
                               ce=CEConfig(executors=executors),
                               **config_kwargs)
    cluster = Cluster(config, WorkloadConfig(accounts=200,
                                             cross_shard_ratio=0.1))
    result = cluster.run(duration)
    digests = tuple(tuple(r.commit_log.digests()) for r in cluster.replicas)
    return result, digests, cluster


# ---------------------------------------------------------------- equivalence

def test_ce_streaming_is_a_registered_engine():
    assert "ce-streaming" in ENGINES


@pytest.mark.parametrize("executors", [4, 16])
def test_streaming_session_matches_per_round_engine(executors):
    """Same seed, same workload: the session path's commit logs are
    digest-identical to the per-round ``run_batch`` path — the digests
    cover every block's preplay entries and committed orders."""
    reference, ref_digests, _ = run_cluster("ce", 13, 0.2,
                                            executors=executors)
    streamed, digests, _ = run_cluster("ce-streaming", 13, 0.2,
                                       executors=executors)
    assert digests == ref_digests
    assert streamed.executed == reference.executed
    assert streamed.re_executions == reference.re_executions
    assert streamed.ce_peak_graph_nodes == reference.ce_peak_graph_nodes
    # The whole point: rounds reuse one graph/pool, so the session path
    # pays strictly fewer scheduler events for the identical schedule.
    assert streamed.events_processed < reference.events_processed
    # And the reuse is visible in the pruning counters.
    assert streamed.cc_prune_passes > 0
    assert reference.cc_prune_passes == 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [6, 14, 33])
def test_streaming_session_matches_through_reconfigurations(seed):
    """Byte-identity holds across epoch transitions: every reconfiguration
    tears the session down and the rebuilt one continues the identical
    schedule."""
    reference, ref_digests, _ = run_cluster("ce", seed, 0.8,
                                            k_prime=15, k_silent=10)
    streamed, digests, _ = run_cluster("ce-streaming", seed, 0.8,
                                       k_prime=15, k_silent=10)
    assert reference.reconfigurations >= 1
    assert streamed.reconfigurations == reference.reconfigurations
    assert digests == ref_digests
    assert streamed.executed == reference.executed


# --------------------------------------------------------------- boundedness

def test_session_graph_stays_bounded_across_rounds():
    """Fast-lane smoke: over a run with well over three preplay rounds the
    session graph's high-water mark stays at single-round scale — the
    epoch-long graph never accumulates round history."""
    config_cap = 10 * 5  # batch_size * max_batch_factor (one round's cap)
    result, _, cluster = run_cluster("ce-streaming", 7, 0.2)
    assert result.cc_prune_passes >= 3, "run too short to cover 3 rounds"
    assert result.cc_nodes_pruned > 0
    assert result.ce_peak_graph_nodes <= config_cap
    # Steady state at run end: every live session's graph holds at most
    # the round currently in flight.
    for replica in cluster.replicas:
        assert replica._session is not None
        assert len(replica._session.cc.graph.nodes) <= config_cap


# ------------------------------------------------------------------ teardown

def make_replica(replica_id=0, n=4, **config_kwargs):
    defaults = dict(n_replicas=n, batch_size=10, seed=1,
                    engine="ce-streaming")
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
    with ``None``, no worker process survives, and the next epoch's
    session is a distinct, clean one."""
    replica = make_replica()
    env = replica.env
    old = replica._session
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=40, read_probability=0.5, theta=0.9),
        ShardMap(1), seed=4)
    batch = workload.batch(50)
    old.admit(batch, base_view=dict(initial_state(40)))
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
    new = replica._session
    assert new is not old and not new.closed
    assert len(new.cc.graph.nodes) == 0
    # The new session is fully functional in the new epoch.
    new.admit(workload.batch(10), base_view=dict(initial_state(40)))
    proc = new.drain()
    env.run()
    assert len(proc.value.committed) == 10


def test_reconfigure_mid_overlapped_drain_parity():
    """Relaxed-mode fault parity: ``_reconfigure`` landing mid-drain on a
    ``strict_order=False`` session orphans no worker, and the next
    epoch's session starts clean and functional — the same teardown
    contract the strict session honours."""
    from repro.ce.runner import CEConfig
    replica = make_replica(ce=CEConfig(strict_order=False))
    env = replica.env
    old = replica._session
    assert old.oracle is not None   # the relaxed machinery is armed
    workload = SmallBankWorkload(
        WorkloadConfig(accounts=40, read_probability=0.5, theta=0.9),
        ShardMap(1), seed=4)
    batch = workload.batch(50)
    old.admit(batch, base_view=dict(initial_state(40)))
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
    assert not old._orphans          # every orphan completed and retired
    new = replica._session
    assert new is not old and not new.closed
    assert len(new.cc.graph.nodes) == 0
    # The new epoch's relaxed session commits a round with the oracle on.
    new.admit(workload.batch(10), base_view=dict(initial_state(40)))
    proc = new.drain()
    env.run()
    assert len(proc.value.committed) == 10
    assert new.cc.stats.oracle_checks == 1


# ------------------------------------------------------- mid-run faults

def run_faulted_cluster(engine, install, seed=21, duration=0.3):
    """Build a cluster, let ``install(cluster)`` plant a fault schedule,
    then run — so both engines see the identical hostile timeline."""
    from repro.ce.runner import CEConfig
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=seed,
                               engine=engine, ce=CEConfig(executors=16),
                               k_silent=4, leader_timeout=0.01)
    cluster = Cluster(config, WorkloadConfig(accounts=200,
                                             cross_shard_ratio=0.1))
    install(cluster)
    result = cluster.run(duration, drain=0.1)
    digests = tuple(tuple(r.commit_log.digests()) for r in cluster.replicas)
    return result, digests, cluster


def test_streaming_matches_per_round_under_mid_drain_crash():
    """A replica crash-stopped mid-run (timed to land inside a preplay
    drain) leaves the streaming engine digest-identical to ``ce`` — an
    aborted session must not perturb the committed schedule."""
    from repro.adversary import schedule_crashes

    def crash(cluster):
        schedule_crashes(cluster, [3], at=0.11)

    reference, ref_digests, _ = run_faulted_cluster("ce", crash)
    streamed, digests, cluster = run_faulted_cluster("ce-streaming", crash)
    assert cluster.replicas[3].crashed
    assert digests == ref_digests
    assert streamed.executed == reference.executed
    assert streamed.executed > 0
    assert cluster.logs_prefix_consistent()


def test_streaming_matches_per_round_under_mid_run_censorship():
    """A censorship window opening and closing mid-run (forcing a
    Shift-block reconfiguration that tears sessions down) keeps the two
    engines digest-identical."""
    from repro.adversary import Censorship

    def censor(cluster):
        cluster.install(Censorship([1], start=0.08, end=0.2))

    reference, ref_digests, _ = run_faulted_cluster("ce", censor,
                                                    duration=0.4)
    streamed, digests, cluster = run_faulted_cluster("ce-streaming", censor,
                                                     duration=0.4)
    assert streamed.reconfigurations >= 1
    assert streamed.reconfigurations == reference.reconfigurations
    assert digests == ref_digests
    assert streamed.executed == reference.executed
    assert cluster.logs_prefix_consistent()


@pytest.mark.slow
def test_cluster_reconfigurations_orphan_no_workers(monkeypatch):
    """Over a run with many epoch transitions, every superseded session is
    closed and none of its workers is still alive at the end."""
    sessions = []
    original = Replica._open_session

    def tracking(self, runner):
        session = original(self, runner)
        sessions.append(session)
        return session

    monkeypatch.setattr(Replica, "_open_session", tracking)
    result, _, cluster = run_cluster("ce-streaming", 6, 0.8,
                                     k_prime=15, k_silent=10)
    assert result.reconfigurations >= 1
    live = {r._session for r in cluster.replicas}
    superseded = [s for s in sessions if s not in live]
    assert superseded, "no session was ever torn down"
    for session in superseded:
        assert session.closed
        assert all(not worker.is_alive for worker in session.workers)
