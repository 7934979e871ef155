"""Unit tests for the deterministic cross-shard executor (§5.2)."""

import pytest

from repro.contracts import (SEND_PAYMENT, OverlayView, ReplayMemo,
                             default_registry, initial_state)
from repro.core import CrossShardExecutor
from repro.txn import Transaction


@pytest.fixture
def executor():
    return CrossShardExecutor(default_registry(), ReplayMemo(), op_cost=1e-6)


def payment(tx_id, src, dst, amount, shards):
    return Transaction(tx_id, SEND_PAYMENT, (src, dst, amount), shards)


def replay_each(executor, txs, state):
    """The ordered batch one ``replay_one`` at a time: every transaction's
    read set (outcomes keep only what a replica applies) and the writes."""
    view = OverlayView({}, state)
    read_sets = []
    for tx in txs:
        entry, _cost = executor.replay_one(tx, view)
        view.overlay.update(entry.write_set)
        read_sets.append(entry.read_set)
    return read_sets, view.overlay


def test_executes_in_total_order(executor):
    state = initial_state(8)
    txs = [payment(0, 0, 1, 10, (0, 1)), payment(1, 1, 2, 5, (1, 2))]
    outcome = executor.execute(txs, state)
    # tx 1 must observe tx 0's credit to account 1
    read_sets, _writes = replay_each(executor, txs, state)
    assert read_sets[1]["checking:1"] == 10010
    assert outcome.writes["checking:1"] == 10005


def test_deterministic(executor):
    state = initial_state(8)
    txs = [payment(i, i % 4, (i + 1) % 4, 1, (i % 4, (i + 1) % 4))
           for i in range(10)]
    a = executor.execute(txs, state)
    b = executor.execute(txs, state)
    assert a.writes == b.writes
    assert a.simulated_cost == b.simulated_cost


def test_disjoint_lanes_run_in_parallel(executor):
    state = initial_state(16)
    # two disjoint shard pairs: cost should be ~half of serial
    disjoint = [payment(0, 0, 1, 1, (0, 1)), payment(1, 2, 3, 1, (2, 3))]
    overlapping = [payment(0, 0, 1, 1, (0, 1)), payment(1, 1, 2, 1, (1, 2))]
    par = executor.execute(disjoint, state)
    ser = executor.execute(overlapping, state)
    assert par.simulated_cost < ser.simulated_cost


def test_lane_plan_never_changes_results(executor):
    """The QueCC plan affects cost, not outcomes: lane execution equals
    strictly serial execution."""
    state = initial_state(8)
    txs = [payment(i, i % 8, (i + 3) % 8, 2, ((i % 8) % 4, ((i + 3) % 8) % 4))
           for i in range(12)]
    lanes = executor.execute(txs, state)
    serial = executor.execute_serial(txs, state)
    assert lanes.writes == serial.writes
    assert lanes.writes == replay_each(executor, txs, state)[1]


def test_serial_cost_is_sum(executor):
    state = initial_state(8)
    txs = [payment(0, 0, 1, 1, (0, 1)), payment(1, 2, 3, 1, (2, 3))]
    serial = executor.execute_serial(txs, state)
    lanes = executor.execute(txs, state)
    assert serial.simulated_cost == pytest.approx(2 * lanes.simulated_cost)


def test_empty_batch(executor):
    outcome = executor.execute([], {})
    assert outcome.writes == {}
    assert outcome.simulated_cost == 0.0


def test_state_not_mutated(executor):
    state = initial_state(4)
    before = dict(state)
    executor.execute([payment(0, 0, 1, 10, (0, 1))], state)
    assert state == before


def test_money_conserved(executor):
    state = initial_state(8)
    txs = [payment(i, i % 8, (i + 1) % 8, 7, (0, 1)) for i in range(20)]
    outcome = executor.execute(txs, state)
    final = dict(state)
    final.update(outcome.writes)
    assert sum(final.values()) == sum(state.values())
