"""Tests for fault/attack injection."""

from repro.adversary import (ByzantineExecutor, Censorship, GrayFailure,
                             Partition, install_proposal_delay,
                             schedule_crashes)
from repro.core import ThunderboltConfig
from repro.sim import Environment, LatencyModel, Network, make_rng
from repro.workloads import WorkloadConfig

from tests.conftest import make_cluster


class FakeCluster:
    """The minimal surface the network-level behaviours touch."""

    def __init__(self, n=3):
        self.env = Environment()
        self.network = Network(self.env, n, LatencyModel.fixed(0.001),
                               make_rng(0))
        #: Per replica, the messages its handler received.
        self.delivered = [[] for _ in range(n)]
        for replica in range(n):
            self.network.connect(replica, self.delivered[replica].append)


def test_schedule_crashes_stops_replica():
    cluster = make_cluster()
    schedule_crashes(cluster, [1], at=0.1)
    cluster.run(0.3)
    assert cluster.replicas[1].crashed
    assert not cluster.replicas[0].crashed


def test_censorship_blocks_proposals():
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=1000, leader_timeout=0.01)
    cluster = make_cluster(config=config)
    Censorship([2], start=0.0).install(cluster)
    result = cluster.run(0.5)
    # the censored replica's blocks never disseminate
    censored = cluster.replicas[2]
    others = [r for r in cluster.replicas if r.id != 2]
    for other in others:
        assert other.dag.vertex_of(0, 2) is None
    assert result.executed > 0  # the rest of the system makes progress


def test_censorship_victim_stalls_until_reconfiguration():
    """A censored proposer cannot certify blocks (its proposals never reach
    voters), so its shard stalls — the remedy the paper prescribes is
    Shift-block reconfiguration, not in-epoch recovery."""
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=1000, leader_timeout=0.01)
    cluster = make_cluster(config=config)
    Censorship([2], start=0.0, end=0.2).install(cluster)
    result = cluster.run(0.6)
    victim = cluster.replicas[2]
    healthy = cluster.replicas[0]
    assert victim.round < healthy.round / 2
    assert result.executed > 0


def test_censorship_triggers_reconfiguration():
    """§6: a silent shard triggers Shift blocks and the proposers rotate."""
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=4, leader_timeout=0.01)
    cluster = make_cluster(config=config)
    Censorship([2], start=0.0).install(cluster)
    result = cluster.run(1.0)
    assert result.reconfigurations >= 1
    assert result.executed > 0


def test_proposal_delay_slows_but_does_not_stop():
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=1000, leader_timeout=0.005)
    cluster = make_cluster(config=config)
    install_proposal_delay(cluster, [1], extra_delay=0.02)
    result = cluster.run(0.5)
    assert result.executed > 0
    assert cluster.logs_prefix_consistent()


# ------------------------------------------------- window-end semantics


def test_censorship_uninstalls_after_window():
    """Once ``end`` elapses the filter passes through AND removes itself
    from the delivery path — no permanent residue."""
    fake = FakeCluster()
    behavior = Censorship([0], start=0.0, end=0.05)
    behavior.install(fake)
    assert behavior.active

    fake.network.send(0, 1, "proposal", "early")
    fake.env.run(until=0.06)
    assert fake.delivered[1] == []  # censored

    fake.network.send(0, 1, "proposal", "late")
    fake.env.run(until=0.12)
    delivered = fake.delivered[1]
    assert [m.payload for m in delivered] == ["late"]
    assert not behavior.active
    assert fake.network._filters == []


def test_proposal_delay_window_closes_and_uninstalls():
    fake = FakeCluster()
    delay_filter = install_proposal_delay(fake, [0], extra_delay=0.03,
                                          start=0.0, end=0.05)
    assert delay_filter in fake.network._filters

    fake.network.send(0, 1, "proposal", "early")
    fake.env.run(until=0.02)
    assert fake.delivered[1] == []  # still held back
    fake.env.run(until=0.05)
    early = fake.delivered[1]
    assert [m.payload for m in early] == ["early"]
    assert early[0].delivered_at >= 0.03  # paid the extra delay

    fake.network.send(0, 1, "proposal", "late")
    fake.env.run(until=0.1)
    late = fake.delivered[1][-1]
    assert late.payload == "late"
    assert late.delivered_at < 0.06 + 0.01  # normal latency only
    assert delay_filter not in fake.network._filters


def test_a_delayed_message_is_redelivered_in_one_event():
    fake = FakeCluster()
    install_proposal_delay(fake, [0], extra_delay=0.03)
    fake.network.send(0, 1, "proposal", "held")
    fake.env.run()
    assert [(m.payload, m.delivered_at) for m in fake.delivered[1]] == \
        [("held", 0.03)]
    assert fake.env.events_processed == 1


def test_censorship_victim_recovers_after_window_and_reconfiguration():
    """Satellite regression: with the window closed and a Shift-block
    reconfiguration behind it, the ex-victim proposes and advances again
    (contrast test_censorship_victim_stalls_until_reconfiguration, where
    reconfiguration is disabled and the victim stays stalled)."""
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=4, leader_timeout=0.01)
    cluster = make_cluster(config=config)
    behavior = Censorship([2], start=0.0, end=0.2)
    cluster.install(behavior)
    result = cluster.run(0.6)
    assert result.reconfigurations >= 1
    assert not behavior.active  # the filter uninstalled itself
    victim = cluster.replicas[2]
    healthy = cluster.replicas[0]
    # Rounds reset at each reconfiguration; a recovered victim keeps pace.
    assert victim.round > healthy.round / 2
    assert victim.blocks_proposed > 0
    assert result.executed > 0
    assert cluster.logs_prefix_consistent()


# ------------------------------------------------------------- partition


def test_partition_drops_cross_group_and_heals():
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4,
                               k_silent=10_000)
    cluster = make_cluster(config=config)
    behavior = Partition(groups=((0, 1, 2), (3,)), start=0.05,
                         heal_at=0.2)
    cluster.install(behavior)
    result = cluster.run(0.5, drain=0.1)
    assert behavior.healed
    assert result.partition_heals == 1
    assert cluster.metrics.partition_heals == 1
    # The majority side kept committing while the minority was cut off.
    assert result.executed > 0
    assert cluster.logs_prefix_consistent()
    assert len(cluster.replicas[3].commit_log) <= \
        len(cluster.replicas[0].commit_log)
    # The filter left the delivery path on heal.
    assert cluster.network._filters == []


def test_partition_rejects_overlapping_groups():
    import pytest
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        Partition(groups=((0, 1), (1, 2)))


# ------------------------------------------------- byzantine executor


def test_byzantine_executor_is_detected_and_reexecuted():
    """Forged preplay sets are rejected by every replica and recovered by
    the deterministic re-execution — state converges, value is conserved."""
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4)
    workload = WorkloadConfig(accounts=200)
    cluster = make_cluster(config=config, workload=workload)
    cluster.install(ByzantineExecutor([1], rate=1.0))
    result = cluster.run(0.3, drain=0.1)
    assert result.validation_failures >= 1
    assert result.validation_reexecutions >= 1
    assert cluster.logs_prefix_consistent()
    checksums = {}
    for replica in cluster.replicas:
        checksums.setdefault(len(replica.commit_log), set()).add(
            replica.store.checksum())
    for length, digests in checksums.items():
        assert len(digests) == 1, f"divergence at log length {length}"
    # Conservation: the forged blocks' canonical replay minted nothing.
    total = sum(cluster.replicas[0].store.get(f"{kind}:{account}", 0)
                for account in range(200)
                for kind in ("checking", "savings"))
    assert total == 200 * 20_000


def test_byzantine_executor_outside_window_is_honest():
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4)
    cluster = make_cluster(config=config)
    cluster.install(ByzantineExecutor([1], rate=1.0, start=5.0))
    result = cluster.run(0.2)
    assert result.validation_failures == 0


# ------------------------------------------------------- gray failure


def test_gray_failure_slows_victim_but_preserves_safety():
    config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=4)
    baseline = make_cluster(config=config)
    baseline_result = baseline.run(0.3)

    cluster = make_cluster(config=config)
    cluster.install(GrayFailure([2], extra_mean=0.005))
    result = cluster.run(0.3)
    assert not cluster.replicas[2].crashed  # degraded, not dead
    assert result.executed > 0
    assert result.executed < baseline_result.executed  # visibly slower
    assert cluster.logs_prefix_consistent()


def test_gray_failure_is_deterministic():
    def run_once():
        config = ThunderboltConfig(n_replicas=4, batch_size=10, seed=9)
        cluster = make_cluster(config=config)
        cluster.install(GrayFailure([2], extra_mean=0.004))
        cluster.run(0.25)
        return tuple(tuple(r.commit_log.digests())
                     for r in cluster.replicas)
    assert run_once() == run_once()
