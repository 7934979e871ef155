"""Unit tests for the Concurrent Executor pool."""

from itertools import product

import pytest

from repro.ce import CEConfig, CERunner
from repro.contracts import (GET_BALANCE, SEND_PAYMENT, default_registry,
                             initial_state, run_inline)
from repro.core.shards import ShardMap
from repro.crypto.digest import digest_of
from repro.errors import ConfigError
from repro.sim import Environment, make_rng
from repro.txn import Transaction
from repro.workloads import SmallBankWorkload, WorkloadConfig


def make_txs(n, accounts=8, seed=0, pr=0.5):
    rng = make_rng(seed)
    registry = default_registry()
    txs = []
    for i in range(n):
        if rng.random() < pr:
            txs.append(Transaction(i, GET_BALANCE, (rng.randrange(accounts),),
                                   (0,)))
        else:
            a, b = rng.sample(range(accounts), 2)
            txs.append(Transaction(i, SEND_PAYMENT,
                                   (a, b, rng.randrange(1, 20)), (0,)))
    return registry, txs


def run_batch(txs, registry, executors=4, seed=1, state=None):
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=executors), make_rng(seed))
    proc = runner.run_batch(env, txs, state or initial_state(8))
    env.run()
    assert proc.triggered, "batch deadlocked"
    return proc.value


def test_config_validation():
    with pytest.raises(ConfigError):
        CEConfig(executors=0)
    with pytest.raises(ConfigError):
        CEConfig(op_cost=-1)
    with pytest.raises(ConfigError):
        CEConfig(jitter=1.5)


def test_empty_batch():
    registry, _ = make_txs(0)
    result = run_batch([], registry)
    assert result.committed == []
    assert result.throughput == 0.0
    assert result.mean_latency == 0.0


def test_all_transactions_commit():
    registry, txs = make_txs(40)
    result = run_batch(txs, registry)
    assert len(result.committed) == 40
    assert sorted(result.order) == list(range(40))


def test_duplicate_tx_ids_rejected():
    registry, txs = make_txs(2)
    dupes = [txs[0], txs[0]]
    env = Environment()
    runner = CERunner(registry, CEConfig(executors=2), make_rng(0))
    proc = runner.run_batch(env, dupes, initial_state(8))
    with pytest.raises(Exception):
        env.run()


def test_output_is_serializable():
    registry, txs = make_txs(60, seed=3)
    state = initial_state(8)
    result = run_batch(txs, registry, executors=8, state=state)
    replay = dict(state)
    by_id = {tx.tx_id: tx for tx in txs}
    for entry in result.committed:
        tx = by_id[entry.tx_id]
        record = run_inline(registry.get(tx.contract), tx.args, replay)
        assert record.read_set == entry.read_set
        assert record.write_set == entry.write_set
        replay.update(record.write_set)


def test_latencies_recorded_for_all(ateach=None):
    registry, txs = make_txs(20)
    result = run_batch(txs, registry)
    assert set(result.latencies) == {tx.tx_id for tx in txs}
    assert all(latency > 0 for latency in result.latencies.values())


def test_throughput_positive():
    registry, txs = make_txs(30)
    result = run_batch(txs, registry)
    assert result.throughput > 0
    assert result.elapsed > 0


def test_deterministic_given_seed():
    registry, txs = make_txs(30, seed=5)

    def run_once():
        registry2, txs2 = make_txs(30, seed=5)
        return run_batch(txs2, registry2, executors=4, seed=9)

    r1, r2 = run_once(), run_once()
    assert r1.order == r2.order
    assert r1.elapsed == r2.elapsed
    assert r1.re_executions == r2.re_executions


def test_single_executor_no_conflicts():
    registry, txs = make_txs(20, pr=0.0)
    result = run_batch(txs, registry, executors=1)
    assert result.re_executions == 0
    assert result.order == [tx.tx_id for tx in txs]


def test_more_executors_shorter_elapsed_low_contention():
    registry, txs = make_txs(40, accounts=200, pr=0.5)
    slow = run_batch(txs, registry, executors=1)
    registry2, txs2 = make_txs(40, accounts=200, pr=0.5)
    fast = run_batch(txs2, registry2, executors=8)
    assert fast.elapsed < slow.elapsed


def test_re_executions_counted_under_contention():
    # two accounts, all writes: heavy conflicts
    registry, txs = make_txs(40, accounts=2, pr=0.0)
    result = run_batch(txs, registry, executors=8)
    assert result.re_executions > 0
    assert result.re_executions_per_tx == result.re_executions / 40


def test_final_writes_match_last_committed_values():
    registry, txs = make_txs(30, seed=2)
    state = initial_state(8)
    result = run_batch(txs, registry, state=state)
    replay = dict(state)
    for entry in result.committed:
        replay.update(entry.write_set)
    for key, value in result.final_writes().items():
        assert replay[key] == value


def test_money_conserved():
    registry, txs = make_txs(50, pr=0.0, seed=7)
    state = initial_state(8)
    result = run_batch(txs, registry, state=state)
    final = dict(state)
    final.update(result.final_writes())
    assert sum(final.values()) == sum(state.values())


#: Digest of ``sweep()`` recorded from the per-round runner (a fresh
#: controller and worker pool per call) that ``run_batch`` was before it
#: became a one-batch session.
RUN_BATCH_PIN = "73550679760f6e4b8bfafc14ccaf2d34"


def test_run_batch_sweep_is_pinned():
    """Committed entries, latencies, re-executions, timing and graph size
    over a seeded sweep — low and storm contention, one executor, more
    executors than transactions, and empty batches — equal the pin."""
    registry = default_registry()
    rows = []
    for theta, seed, executors, size in product((0.5, 0.99), range(3),
                                                (1, 4, 64), (0, 3, 40)):
        txs = SmallBankWorkload(WorkloadConfig(accounts=20, theta=theta),
                                ShardMap(1), seed=seed).batch(size)
        env = Environment()
        runner = CERunner(registry, CEConfig(executors=executors),
                          make_rng(seed))
        proc = runner.run_batch(env, txs, initial_state(20))
        env.run()
        result = proc.value
        rows.append([[[entry.tx_id, entry.order_index, entry.read_set,
                       entry.write_set, entry.result, entry.attempts]
                      for entry in result.committed],
                     result.latencies, result.re_executions,
                     result.started_at, result.finished_at, result.elapsed,
                     result.graph_nodes])
    assert digest_of(rows) == RUN_BATCH_PIN
