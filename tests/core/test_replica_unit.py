"""Unit tests for replica-internal logic (short cluster runs only where a
test needs a replica in the middle of a run)."""

from collections import deque

import pytest

from repro.adversary import ByzantineExecutor
from repro.ce.streaming import StreamSession
from repro.contracts import ReplayMemo, default_registry, initial_state
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.core.replica import Replica
from repro.core.shards import ShardMap
from repro.crypto.keys import KeyPair, KeyRegistry
from repro.dag.store import DagStore
from repro.dag.tusk import CommitEvent, TuskConsensus
from repro.metrics.collector import MetricsCollector
from repro.sim import Environment, LatencyModel, Network, make_rng
from repro.storage.kvstore import KVStore
from repro.txn import Transaction
from repro.workloads import WorkloadConfig


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


def tx(tx_id, shards=(0,)):
    return Transaction(tx_id, "smallbank.get_balance", (0,), shards)


# -- routing --------------------------------------------------------------


def test_submit_routes_single_vs_cross():
    replica = make_replica()
    replica.submit(tx(1, (0,)))
    replica.submit(tx(2, (0, 1)))
    assert len(replica.mempool_single) == 1
    assert len(replica.mempool_cross) == 1


def test_serial_engine_routes_everything_single():
    replica = make_replica(engine="serial")
    replica.submit(tx(1, (0, 1)))
    assert len(replica.mempool_single) == 1
    assert len(replica.mempool_cross) == 0


def test_submit_records_time():
    replica = make_replica()
    replica.submit(tx(5), now=1.25)
    assert replica._submit_times[5] == 1.25


# -- gate rounds (P3/P4) -----------------------------------------------------


def test_gate_round_odd_rounds_gate_themselves():
    replica = make_replica()
    assert replica._gate_round(1) == 1
    assert replica._gate_round(3) == 3


def test_gate_round_even_rounds_gate_previous_wave():
    replica = make_replica()
    assert replica._gate_round(2) == 1
    assert replica._gate_round(4) == 3


def test_gate_round_none_at_start():
    replica = make_replica()
    assert replica._gate_round(0) is None


# -- shard identity across epochs ---------------------------------------------


def test_my_shard_rotates_with_epoch():
    replica = make_replica(replica_id=2)
    assert replica.my_shard == 2
    replica.epoch = 1
    assert replica.my_shard == 1
    replica.epoch = 3
    assert replica.my_shard == 3


# -- shift conditions (§6) ------------------------------------------------------


def test_shift_condition_2_periodic():
    replica = make_replica(k_prime=5, k_silent=3)
    replica.rounds_proposed = 5
    assert replica._should_shift(6)


def test_shift_condition_1_silent_proposer():
    replica = make_replica(k_silent=3)
    replica._last_vertex_round = {0: 10, 1: 10, 2: 10, 3: 2}
    assert replica._should_shift(10)  # replica 3 silent since round 2


def test_shift_not_triggered_when_everyone_recent():
    replica = make_replica(k_silent=3)
    replica._last_vertex_round = {0: 10, 1: 9, 2: 10, 3: 8}
    assert not replica._should_shift(10)


def test_shift_condition_3_contagion():
    replica = make_replica(k_silent=100)
    replica._shift_authors_seen = {4: {1, 2}}  # f+1 = 2 shifts at round 4
    assert replica._should_shift(5)
    replica._shift_authors_seen = {4: {1}}
    assert not replica._should_shift(5)


def test_shift_condition_4_once_per_epoch():
    replica = make_replica(k_prime=5, k_silent=3)
    replica.rounds_proposed = 10
    replica.shift_sent = True
    assert not replica._should_shift(11)


def test_shift_ignored_in_early_rounds():
    replica = make_replica(k_silent=5)
    # nobody has proposed anything, but we are before round K
    assert not replica._should_shift(3)


# -- P5 deferral ------------------------------------------------------------------


class _FakeEvent:
    def __init__(self, leader_round):
        self.leader_round = leader_round


def test_apply_p5_defers_unready_shards():
    replica = make_replica()
    replica._committed_last_round = {0: 4, 1: 4, 2: 4, 3: 1}
    payload = [tx(1, (0, 1)), tx(2, (2, 3)), tx(3, (1, 2))]
    runnable = replica._apply_p5(payload, _FakeEvent(leader_round=5))
    # shard 3's proposer stopped at round 1 < 4: tx 2 deferred — and its
    # whole shard set {2, 3} is held back, which catches tx 3 (shard 2)
    # to preserve per-shard order.
    assert [t.tx_id for t in runnable] == [1]
    assert [t.tx_id for t in replica._deferred_cross] == [2, 3]


def test_apply_p5_defers_subsequent_same_shard():
    replica = make_replica()
    replica._committed_last_round = {0: 4, 1: 4, 2: 4, 3: 1}
    payload = [tx(1, (2, 3)), tx(2, (2, 0))]  # tx2 shares shard 2 with tx1
    runnable = replica._apply_p5(payload, _FakeEvent(leader_round=5))
    assert runnable == []
    assert [t.tx_id for t in replica._deferred_cross] == [1, 2]


def test_apply_p5_skips_executed_and_duplicates():
    replica = make_replica()
    replica._committed_last_round = {i: 10 for i in range(4)}
    replica.executed.add(1)
    payload = [tx(1, (0, 1)), tx(2, (2, 3)), tx(2, (2, 3))]
    runnable = replica._apply_p5(payload, _FakeEvent(leader_round=5))
    assert [t.tx_id for t in runnable] == [2]


# -- preplay blocking (P3/P4) -----------------------------------------------------


def test_preplay_blocked_by_pending_cross():
    replica = make_replica()
    assert not replica._preplay_blocked()
    replica._pending_cross = {0: {7: None}}
    assert replica._preplay_blocked()
    replica._pending_cross[0].pop(7)
    assert not replica._preplay_blocked()


def test_pending_cross_only_blocks_own_shard():
    replica = make_replica(replica_id=1)
    replica._pending_cross = {0: {7: None}}  # shard 0, we serve shard 1
    assert not replica._preplay_blocked()


# -- demand / batching ---------------------------------------------------------------


def test_pull_batch_caps_at_factor():
    replica = make_replica(batch_size=5, max_batch_factor=2)
    for i in range(20):
        replica.submit(tx(i))
    batch = replica._pull_batch()
    assert len(batch) == 10  # 2 x batch_size
    assert len(replica.mempool_single) == 10


def test_generate_demand_respects_factor():
    replica = make_replica(batch_size=5, demand_factor=3)
    produced = []

    def source(count, now):
        produced.append(count)
        return [tx(100 + len(produced) * 50 + i) for i in range(count)]

    replica.tx_source = source
    replica._generate_demand()
    assert produced == [15]
    assert len(replica.mempool_single) == 15


def test_generate_demand_routes_cross_to_cross_pool():
    replica = make_replica(batch_size=4)
    replica.tx_source = lambda count, now: [tx(1, (0, 1)), tx(2, (0,))]
    replica._generate_demand()
    assert len(replica.mempool_single) == 1
    assert len(replica.mempool_cross) == 1


# -- state by lifetime -------------------------------------------------------------

#: Every attribute that outlives an epoch; all others are epoch state,
#: built by ``Replica._enter_epoch``.
NON_EPOCH = frozenset({
    # Wiring.
    "id", "env", "network", "config", "shard_map", "registry", "keypair",
    "key_registry", "metrics", "memo", "n", "schedule", "_rng",
    "tx_source", "on_drop", "preplay_tamper", "_engine", "_cross_exec",
    # Durable.
    "store", "commit_log", "executed", "epoch",
    # Pipeline.
    "_exec_queue", "_future_epoch_messages", "_submit_times", "_tx_kind",
    "crashed", "blocks_proposed", "validation_failures",
})


def epoch_fields(replica):
    return sorted(set(vars(replica)) - NON_EPOCH)


@pytest.mark.parametrize("engine", ["ce", "occ", "serial"])
def test_enter_epoch_builds_every_unnamed_field(engine):
    """A bare replica holding only the attributes named in ``NON_EPOCH``
    ends with exactly a fresh replica's attribute set after
    ``_enter_epoch``, and the builder leaves the named ones alone: a field
    assigned anywhere else is unclassified and fails here."""
    fresh = make_replica(engine=engine)
    bare = object.__new__(Replica)
    bare.__dict__.update({name: getattr(fresh, name) for name in NON_EPOCH})
    bare._enter_epoch()
    assert set(vars(bare)) == set(vars(fresh))
    for name in NON_EPOCH:
        assert getattr(bare, name) is getattr(fresh, name), name


def test_reconfigure_rebuilds_every_epoch_field():
    """After ``_reconfigure`` in the middle of a run, every epoch field
    holds a fresh replica's value at the new epoch."""
    cluster = Cluster(ThunderboltConfig(n_replicas=4, batch_size=10, seed=3),
                      WorkloadConfig(accounts=200, cross_shard_ratio=0.2))
    cluster.run(0.05)
    replica = cluster.replicas[0]
    before = {name: getattr(replica, name) for name in epoch_fields(replica)}
    assert replica.round > 0 and replica._voted and replica._session.cc
    replica._reconfigure()
    assert replica.epoch == 1
    assert before["_session"].closed
    fresh = make_replica()
    assert epoch_fields(replica) == epoch_fields(fresh)
    for name in epoch_fields(fresh):
        value, pristine = getattr(replica, name), getattr(fresh, name)
        if isinstance(pristine, (dict, set, list, deque)):
            assert value == pristine and value is not before[name], name
        elif isinstance(pristine, (DagStore, TuskConsensus)):
            assert value is not before[name] and value.epoch == 1, name
        elif isinstance(pristine, StreamSession):
            assert value is not before[name], name
            assert not value.closed and value.cc is None
        elif name == "_awaiting_drain":
            assert value is True  # until the pipeline reaches the marker
        elif isinstance(pristine, (bool, int)):
            assert value == pristine, name
        else:
            pytest.fail(f"epoch field {name} has no check for its type")
    assert replica.dag.highest_round() == -1
    assert not replica.consensus.is_committed(
        replica.commit_log.last().digest)


# -- the one apply point -------------------------------------------------------------

#: shape -> (config, workload, forging replicas, kinds that must be applied).
APPLY_SHAPES = {
    "ce-forged": (dict(n_replicas=4, engine="ce", batch_size=10),
                  dict(accounts=200), (1,), {"single"}),
    "ce-cross": (dict(n_replicas=8, engine="ce", batch_size=20),
                 dict(accounts=400, cross_shard_ratio=0.6), (),
                 {"single", "cross"}),
    "serial": (dict(n_replicas=4, engine="serial", batch_size=10),
               dict(accounts=200, cross_shard_ratio=0.2), (), {"serial"}),
}


@pytest.mark.parametrize("shape", sorted(APPLY_SHAPES))
def test_every_store_write_goes_through_apply(shape, monkeypatch):
    """After construction, a replica's store is written only inside
    ``Replica._apply``, and the ids that reach ``_apply`` are exactly the
    replica's executed set (validation, recovery, cross-shard and serial
    batches alike)."""
    config, workload, forging, kinds = APPLY_SHAPES[shape]
    cluster = Cluster(ThunderboltConfig(seed=11, **config),
                      WorkloadConfig(**workload))
    if forging:
        cluster.install(ByzantineExecutor(forging, rate=1.0))
    applying = []
    applied = {replica.id: set() for replica in cluster.replicas}
    applied_kinds = set()
    original_apply, original_batch = Replica._apply, KVStore.apply_batch

    def apply(self, writes, tx_ids, kind, kinds=None):
        tx_ids = list(tx_ids)
        applied[self.id].update(tx_ids)
        applied_kinds.add(kind)
        applying.append(self.store)
        try:
            original_apply(self, writes, tx_ids, kind, kinds)
        finally:
            applying.pop()

    def apply_batch(store, writes):
        assert applying and applying[-1] is store, \
            "a store write outside Replica._apply"
        original_batch(store, writes)

    monkeypatch.setattr(Replica, "_apply", apply)
    monkeypatch.setattr(KVStore, "apply_batch", apply_batch)
    cluster.run(0.01, drain=0.1)
    assert applied_kinds == kinds
    if forging:
        assert cluster.metrics.validation_reexecutions > 0
    for replica in cluster.replicas:
        assert replica.executed
        assert applied[replica.id] == replica.executed
