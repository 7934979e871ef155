"""Property-based tests: the Concurrent Executor is serializable.

The central correctness theorem of §10 (Read-/Write-Completeness implies
serializability): for ANY interleaving the executor pool produces, replaying
the published execution order serially from the same initial state must
reproduce exactly the published read sets, write sets, and results.

Hypothesis generates random SmallBank-style workloads (sizes, contention
levels, read mixes, executor counts, timing seeds); the property is checked
end-to-end through the real DES pool.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ce import CEConfig, CERunner, DependencyGraph
from repro.contracts import (AMALGAMATE, DEPOSIT_CHECKING, GET_BALANCE,
                             SEND_PAYMENT, TRANSACT_SAVINGS, WRITE_CHECK,
                             default_registry, initial_state, run_inline)
from repro.sim import Environment, make_rng
from repro.txn import Transaction
from tests.ce.graph_reference import is_acyclic

REGISTRY = default_registry()

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def workloads(draw):
    accounts = draw(st.integers(min_value=2, max_value=12))
    n_txs = draw(st.integers(min_value=1, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    executors = draw(st.sampled_from([1, 2, 4, 8]))
    rng = make_rng(seed)
    txs = []
    for i in range(n_txs):
        kind = rng.randrange(6)
        if kind == 0:
            txs.append(Transaction(i, GET_BALANCE,
                                   (rng.randrange(accounts),), (0,)))
        elif kind == 1:
            a, b = rng.sample(range(accounts), 2)
            txs.append(Transaction(i, SEND_PAYMENT,
                                   (a, b, rng.randrange(1, 30)), (0,)))
        elif kind == 2:
            txs.append(Transaction(i, DEPOSIT_CHECKING,
                                   (rng.randrange(accounts),
                                    rng.randrange(1, 30)), (0,)))
        elif kind == 3:
            txs.append(Transaction(i, TRANSACT_SAVINGS,
                                   (rng.randrange(accounts),
                                    rng.randrange(-30, 30)), (0,)))
        elif kind == 4:
            txs.append(Transaction(i, WRITE_CHECK,
                                   (rng.randrange(accounts),
                                    rng.randrange(1, 50)), (0,)))
        else:
            a, b = rng.sample(range(accounts), 2)
            txs.append(Transaction(i, AMALGAMATE, (a, b), (0,)))
    return accounts, txs, seed, executors


def run_ce(txs, state, executors, seed):
    env = Environment()
    runner = CERunner(REGISTRY, CEConfig(executors=executors),
                      make_rng(seed ^ 0x5EED))
    proc = runner.run_batch(env, txs, state)
    env.run()
    assert proc.triggered, "executor pool deadlocked"
    return proc.value


@given(workloads())
@SETTINGS
def test_ce_schedule_is_serializable(workload):
    accounts, txs, seed, executors = workload
    state = initial_state(accounts)
    result = run_ce(txs, state, executors, seed)
    assert len(result.committed) == len(txs), "transactions lost"
    replay = dict(state)
    by_id = {tx.tx_id: tx for tx in txs}
    for entry in result.committed:
        tx = by_id[entry.tx_id]
        record = run_inline(REGISTRY.get(tx.contract), tx.args, replay)
        assert record.read_set == entry.read_set, \
            f"tx {entry.tx_id}: reads diverge from serial replay"
        assert record.write_set == entry.write_set, \
            f"tx {entry.tx_id}: writes diverge from serial replay"
        assert record.result == entry.result
        replay.update(record.write_set)


@given(workloads())
@SETTINGS
def test_ce_conserves_money(workload):
    accounts, txs, seed, executors = workload
    state = initial_state(accounts)
    result = run_ce(txs, state, executors, seed)
    final = dict(state)
    final.update(result.final_writes())
    # WriteCheck's overdraft penalty burns money; recompute the expected
    # total from the serial replay instead of assuming conservation.
    replay = dict(state)
    by_id = {tx.tx_id: tx for tx in txs}
    for entry in result.committed:
        tx = by_id[entry.tx_id]
        record = run_inline(REGISTRY.get(tx.contract), tx.args, replay)
        replay.update(record.write_set)
    assert sum(final.values()) == sum(replay.values())


@given(workloads())
@SETTINGS
def test_ce_graph_ends_acyclic_and_all_committed(workload):
    accounts, txs, seed, executors = workload
    state = initial_state(accounts)
    env = Environment()
    runner = CERunner(REGISTRY, CEConfig(executors=executors),
                      make_rng(seed ^ 0xACE))
    acyclic = []
    prune = DependencyGraph.prune_committed

    def check_then_prune(graph):
        # The batch's whole graph, just before the boundary prune.
        acyclic.append(is_acyclic(graph))
        return prune(graph)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DependencyGraph, "prune_committed",
                      check_then_prune)
        proc = runner.run_batch(env, txs, state)
        env.run()
    assert acyclic == [True]
    cc = runner.last_session.cc
    assert cc.stats.commits == len(proc.value.committed) == len(txs)
    # order indexes are a permutation
    orders = [entry.order_index for entry in proc.value.committed]
    assert sorted(orders) == list(range(len(txs)))
