"""Shard-lane pipeline: pipelined cross-shard execution (ISSUE 10).

Three layers of coverage:

* Unit: a bare :class:`ShardLanePipeline` over a KVStore — per-lane
  ordering, overlap of disjoint lanes, stall/occupancy accounting, the
  epoch barrier, and the serializability oracle's sensitivity to a
  genuinely broken provenance history.
* Cluster: ``shard_lanes=True`` runs route committed work through
  per-shard lanes; safety invariants (prefix consistency, convergence,
  conservation) and determinism must hold, the oracle must pass every
  wave boundary, and pinned digests and lane counters hold the switch to
  what it builds.
* Default-path guarantees: with the pipeline never attached, commit-log
  digests match their pinned fingerprints on every row backend id
  (``tests/ce/word_rows.py``), and ``ce-streaming`` commits the same
  logs as ``ce`` over a shard-count × seed sweep (the cross-shard
  determinism satellite).
"""

import hashlib

import pytest

from repro.ce import controller as controller_module
from repro.ce.runner import CEConfig
from repro.contracts import ReplayMemo, smallbank
from repro.core.cluster import Cluster
from repro.core.config import ThunderboltConfig
from repro.core.cross_shard import CrossShardExecutor, ShardLanePipeline
from repro.errors import ValidationError
from repro.scenarios.checker import SafetyChecker
from repro.sim.environment import Environment
from repro.storage.kvstore import KVStore
from repro.txn import Transaction
from repro.workloads.smallbank_workload import WorkloadConfig
from tests.ce.word_rows import BACKENDS, graph_class


# ---------------------------------------------------------------- helpers

def _pay(tx_id, src, dst, amount, shards):
    return Transaction(tx_id=tx_id, contract=smallbank.SEND_PAYMENT,
                       args=(src, dst, amount), shard_ids=tuple(shards))


def _pipeline(op_cost=1e-4, accounts=8):
    env = Environment()
    store = KVStore()
    store.apply_batch(smallbank.initial_state(accounts))
    executor = CrossShardExecutor(smallbank.default_registry(),
                                  ReplayMemo(), op_cost=op_cost)
    return env, store, ShardLanePipeline(env, executor, store)


def _cluster(shard_lanes=False, *, engine="ce", seed=7, n=4, cross=0.6,
             duration=0.25, drain=0.1, accounts=64):
    config = ThunderboltConfig(
        n_replicas=n, seed=seed, engine=engine, batch_size=8,
        shard_lanes=shard_lanes, ce=CEConfig(executors=8, op_cost=5e-6))
    workload = WorkloadConfig(accounts=accounts, cross_shard_ratio=cross)
    cluster = Cluster(config, workload)
    result = cluster.run(duration, drain=drain)
    return cluster, result


def _digests(cluster):
    return tuple(tuple(replica.commit_log.digests())
                 for replica in cluster.replicas)


# ---------------------------------------------------------------- unit layer

def test_wave_matches_serial_semantics():
    """A pipelined wave ends in the exact state the serial replay of the
    same order produces (lane overlap changes *when*, never *what*)."""
    env, store, pipeline = _pipeline()
    txs = [_pay(1, 0, 1, 10, (0, 1)), _pay(2, 2, 3, 20, (2, 3)),
           _pay(3, 1, 2, 5, (1, 2)), _pay(4, 0, 3, 7, (0, 3))]
    executed = []
    pipeline.submit_wave(txs, lambda tx, entry: executed.append(tx.tx_id))
    env.run()

    reference = KVStore()
    reference.apply_batch(smallbank.initial_state(8))
    outcome = pipeline.executor.execute_serial(txs, reference)
    reference.apply_batch(outcome.writes)

    assert executed == [1, 2, 3, 4]
    # Values must agree exactly; write *versions* may not (the pipeline
    # applies per transaction, the batch path once per key per batch).
    assert dict(store.scan()) == dict(reference.scan())
    assert pipeline.oracle.checks == 1


def test_disjoint_lanes_overlap_coupled_lanes_serialize():
    """Two disjoint-SID transactions finish together; coupled ones chain:
    the makespan equals the strict lane plan's critical path."""
    env, _store, pipeline = _pipeline(op_cost=1e-3)
    disjoint = [_pay(1, 0, 1, 1, (0, 1)), _pay(2, 2, 3, 1, (2, 3))]
    pipeline.submit_wave(disjoint, lambda tx, entry: None)
    env.run()
    overlap_makespan = env.now

    env2, _store2, pipeline2 = _pipeline(op_cost=1e-3)
    coupled = [_pay(1, 0, 1, 1, (0, 1)), _pay(2, 1, 2, 1, (1, 2))]
    pipeline2.submit_wave(coupled, lambda tx, entry: None)
    env2.run()
    chained_makespan = env2.now

    assert overlap_makespan == pytest.approx(chained_makespan / 2)
    # The second coupled transaction stalled on lane 1's frontier with its
    # other lane (2) already prepared.
    assert pipeline2.stall_time > 0
    assert pipeline.stall_time == 0


def test_local_segments_share_lanes_with_waves():
    """Local work chains in dispatch order on its shard's lane and
    overlaps lanes it does not touch."""
    env, store, pipeline = _pipeline(op_cost=0.0)
    order = []

    def local(tag, delay):
        def work():
            yield env.timeout(delay)
            order.append((tag, env.now))
        return work

    pipeline.schedule_local(0, local("a0", 0.010))
    pipeline.schedule_local(1, local("b0", 0.001))
    pipeline.submit_wave([_pay(1, 0, 1, 1, (0, 1))],
                         lambda tx, entry: order.append(("x", env.now)))
    pipeline.schedule_local(1, local("b1", 0.001))
    env.run()

    assert [tag for tag, _ in order] == ["b0", "a0", "x", "b1"]
    finished = dict(order)
    # The cross wave waited for the slower lane-0 frontier...
    assert finished["x"] == pytest.approx(0.010)
    # ...and lane 1's next local segment queued behind the wave, not b0.
    assert finished["b1"] == pytest.approx(0.011)
    assert pipeline.lane(0).segments == 2
    assert pipeline.lane(1).segments == 3
    assert pipeline.segments == 5  # per-lane occupancy: 2 + 3


def test_epoch_barrier_waits_for_all_lanes():
    env, _store, pipeline = _pipeline(op_cost=0.0)
    seen = []

    def work(delay):
        def body():
            yield env.timeout(delay)
        return body

    pipeline.schedule_local(0, work(0.004))
    pipeline.schedule_local(1, work(0.001))
    pipeline.epoch_barrier(lambda: seen.append(env.now))
    # Post-barrier dispatches must not delay the barrier itself.
    pipeline.schedule_local(1, work(0.050))
    env.run()
    assert seen == [pytest.approx(0.004)]
    assert pipeline.idle


def test_empty_wave_is_a_no_op():
    env, _store, pipeline = _pipeline()
    pipeline.submit_wave([], lambda tx, entry: None)
    env.run()
    assert pipeline.waves == 0
    assert pipeline.oracle.checks == 0


def test_oracle_flags_corrupted_provenance():
    """Sensitivity: attributing a read to a *newer* writer than the one
    actually observed manufactures a wr/ww cycle the boundary check must
    reject (the safe direction — older-than-actual — is what local
    validations are allowed to cause)."""
    env, _store, pipeline = _pipeline()
    first = _pay(1, 0, 1, 5, (0, 1))
    pipeline.submit_wave([first], lambda tx, entry: None)
    env.run()

    # Claim account 0's checking balance was produced by tx 3 — a
    # transaction that commits *after* the reader in wave two.
    pipeline.recent_writers[smallbank.checking_key(0)] = 3
    wave = [_pay(2, 0, 1, 5, (0, 1)), _pay(3, 0, 1, 5, (0, 1))]
    pipeline.submit_wave(wave, lambda tx, entry: None)
    with pytest.raises(ValidationError):
        env.run()


def test_honest_history_passes_many_waves():
    env, _store, pipeline = _pipeline()
    next_id = 1
    for _round in range(6):
        wave = []
        for src in range(4):
            wave.append(_pay(next_id, src, (src + 1) % 4, 1,
                             (src % 4, (src + 1) % 4)))
            next_id += 1
        pipeline.submit_wave(wave, lambda tx, entry: None)
    env.run()
    assert pipeline.oracle.checks == 6
    # Quiescent boundaries compacted the window back down.
    assert len(pipeline.oracle) == 0


# ---------------------------------------------------------------- cluster layer

def test_pipelined_cluster_is_safe_and_counts_lanes():
    cluster, result = _cluster(shard_lanes=True)
    assert result.executed_cross > 0
    assert result.cross_waves_pipelined > 0
    assert result.lane_segments > 0
    assert result.lane_busy_time > 0
    assert result.lane_prepare_latency > 0
    # Every wave boundary ran (and passed) an oracle check.
    assert result.lane_oracle_checks >= result.cross_waves_pipelined
    report = SafetyChecker().check(cluster)
    assert report.ok, report.failures


def test_pipelined_cluster_conserves_money():
    accounts = 64
    cluster, _result = _cluster(shard_lanes=True, accounts=accounts)

    def conserved(state):
        return sum(state.get(smallbank.checking_key(a), 0)
                   + state.get(smallbank.savings_key(a), 0)
                   for a in range(accounts))

    report = SafetyChecker(conserved=conserved).check(cluster)
    assert report.ok, report.failures


def test_strict_cluster_never_builds_pipelines():
    cluster, result = _cluster()
    assert cluster.lane_pipelines == {}
    assert result.cross_waves_pipelined == 0
    assert result.lane_segments == 0
    assert result.lane_oracle_checks == 0


def test_pipelined_run_is_deterministic():
    cluster_a, result_a = _cluster(shard_lanes=True, seed=11)
    cluster_b, result_b = _cluster(shard_lanes=True, seed=11)
    assert _digests(cluster_a) == _digests(cluster_b)
    assert cluster_a.state_checksums() == cluster_b.state_checksums()
    assert result_a.executed == result_b.executed
    assert result_a.lane_segments == result_b.lane_segments
    assert result_a.lane_stall_time == result_b.lane_stall_time


def test_pipelined_matches_strict_final_state():
    """Same seed, lanes off and on, drained: per-key apply order is
    per-lane dispatch order, so the committed logs and final balances
    agree even though the lanes interleave differently in time."""
    cluster_strict, result_strict = _cluster(drain=0.2)
    cluster_piped, result_piped = _cluster(shard_lanes=True, drain=0.2)
    assert result_piped.executed == result_strict.executed
    assert _digests(cluster_piped) == _digests(cluster_strict)
    for strict_replica, piped_replica in zip(cluster_strict.replicas,
                                             cluster_piped.replicas):
        # Values agree key for key; write versions may differ (per-tx
        # applies on the pipelined path vs per-batch on the default one).
        assert dict(strict_replica.store.scan()) \
            == dict(piped_replica.store.scan())


def test_pipelined_streaming_engine_cluster_is_safe():
    cluster, result = _cluster(shard_lanes=True, engine="ce-streaming")
    assert result.cross_waves_pipelined > 0
    assert result.lane_oracle_checks >= result.cross_waves_pipelined
    report = SafetyChecker().check(cluster)
    assert report.ok, report.failures


#: Eight replicas at the 60% cross-shard mix with lanes on: the
#: fingerprint of every replica's commit-log digests, each replica's
#: (log length, store checksum), and the lane counters
#: (``lane_segments``, ``cross_waves_pipelined``, ``lane_oracle_checks``).
#: Taken before lanes had a switch of their own; the switch must keep
#: building the same pipelines doing the same work.
LANE_PINS = {
    7: ("80b38f8ad618b54d", (1173, "39f2d428791de6fb47a6545402260e4c"),
        (57976, 504, 504)),
    11: ("5245c550166f988c", (1159, "312235d2f5dd08d1fb6b60f73eec46c9"),
         (67232, 432, 432)),
}


@pytest.mark.parametrize("seed", sorted(LANE_PINS))
def test_lane_switch_reproduces_pinned_lanes(seed):
    digests_pin, state_pin, counters_pin = LANE_PINS[seed]
    cluster, result = _cluster(shard_lanes=True, seed=seed, n=8)
    assert len(cluster.lane_pipelines) == 8
    assert hashlib.sha256(repr(_digests(cluster)).encode()).hexdigest()[:16] \
        == digests_pin
    assert cluster.state_checksums() == {i: state_pin for i in range(8)}
    assert (result.lane_segments, result.cross_waves_pipelined,
            result.lane_oracle_checks) == counters_pin


# --------------------------------------------- strict digest sweep (satellite)

#: Strict ``ce-streaming`` commit logs at the 60% cross-shard mix, taken
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
        digests = _digests(_cluster(engine="ce-streaming",
                                    seed=seed, cross=0.6, duration=0.15)[0])
        assert hashlib.sha256(repr(digests).encode()).hexdigest()[:16] \
            == STRICT_FINGERPRINTS[seed], backend


@pytest.mark.slow
@pytest.mark.parametrize("n_replicas", [4, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_strict_digest_sweep_shard_counts(n_replicas, seed):
    """The long-lived session commits exactly what per-round controllers
    commit, at every shard count."""
    digests = {engine: _digests(_cluster(
        engine=engine, seed=seed, cross=0.6, n=n_replicas,
        duration=0.2)[0]) for engine in ("ce", "ce-streaming")}
    assert digests["ce-streaming"] == digests["ce"], (n_replicas, seed)
