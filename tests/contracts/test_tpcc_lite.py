"""Unit tests for the TPC-C-lite contract family and its invariants."""

import pytest

from repro.contracts import run_inline
from repro.contracts.tpcc_lite import (NEW_ORDER, PAYMENT, STOCK_LEVEL,
                                       conserved_cash, conserved_stock,
                                       customer_key, default_registry,
                                       initial_state, sold_key, stock_key,
                                       ytd_key)


@pytest.fixture
def registry():
    return default_registry()


def test_initial_state_dimensions_and_invariants():
    state = initial_state(2, customers_per_warehouse=3,
                          items_per_warehouse=4, cash=100, stock=50)
    assert len(state) == 2 * (1 + 3 + 4 * 2)
    assert conserved_cash(state, 2, customers_per_warehouse=3) == 2 * 3 * 100
    assert conserved_stock(state, 2, items_per_warehouse=4) == 2 * 4 * 50


def test_new_order_moves_stock_to_sold(registry):
    state = initial_state(1, items_per_warehouse=4)
    record = run_inline(registry.get(NEW_ORDER), (0, ((1, 3), (2, 5))),
                        state)
    assert record.result == {"ok": True, "filled": 2, "skipped": 0}
    assert record.write_set[stock_key(0, 1)] == 1000 - 3
    assert record.write_set[sold_key(0, 1)] == 3
    assert record.write_set[stock_key(0, 2)] == 1000 - 5
    assert record.write_set[sold_key(0, 2)] == 5
    after = dict(state)
    after.update(record.write_set)
    assert conserved_stock(after, 1, items_per_warehouse=4) == \
        conserved_stock(state, 1, items_per_warehouse=4)


def test_new_order_skips_understocked_lines(registry):
    state = initial_state(1, stock=2)
    record = run_inline(registry.get(NEW_ORDER), (0, ((1, 5), (2, 1))),
                        state)
    assert record.result == {"ok": True, "filled": 1, "skipped": 1}
    assert stock_key(0, 1) not in record.write_set  # backordered, untouched
    assert record.write_set[sold_key(0, 2)] == 1


def test_payment_conserves_cash(registry):
    state = initial_state(2)
    record = run_inline(registry.get(PAYMENT), (0, 3, 250), state)
    assert record.result == {"ok": True}
    assert record.write_set[customer_key(0, 3)] == 10_000 - 250
    assert record.write_set[ytd_key(0)] == 250
    after = dict(state)
    after.update(record.write_set)
    assert conserved_cash(after, 2) == conserved_cash(state, 2)


def test_remote_payment_credits_the_target_warehouse(registry):
    state = initial_state(2)
    record = run_inline(registry.get(PAYMENT), (0, 3, 250, 1), state)
    assert record.write_set[customer_key(0, 3)] == 10_000 - 250
    assert record.write_set[ytd_key(1)] == 250
    assert ytd_key(0) not in record.write_set
    after = dict(state)
    after.update(record.write_set)
    assert conserved_cash(after, 2) == conserved_cash(state, 2)


def test_insufficient_funds_writes_nothing(registry):
    state = initial_state(1)
    record = run_inline(registry.get(PAYMENT), (0, 0, 10_001), state)
    assert record.result == {"ok": False, "reason": "insufficient-funds"}
    assert record.write_set == {}


def test_stock_level_is_read_only(registry):
    state = initial_state(1)
    state[stock_key(0, 2)] = 3
    record = run_inline(registry.get(STOCK_LEVEL), (0, (0, 1, 2)), state)
    assert record.result == {"ok": True, "low": 1}
    assert record.write_set == {}
    assert set(record.read_set) == {stock_key(0, i) for i in (0, 1, 2)}


def test_serial_workload_replay_preserves_both_invariants(registry):
    """Conservation holds not just per contract but across a generated
    stream — the property the scenario matrix asserts on whole clusters."""
    from repro.core import ShardMap
    from repro.workloads import TPCCLiteConfig, TPCCLiteWorkload

    config = TPCCLiteConfig(warehouses=4, remote_ratio=0.3)
    stream = TPCCLiteWorkload(config, ShardMap(2), seed=11)
    state = config.initial_state()
    before = config.conserved(state)
    for tx in stream.batch(300):
        record = run_inline(registry.get(tx.contract), tx.args, state)
        state.update(record.write_set)
    assert config.conserved(state) == before
    # The stream actually moved value around, it did not no-op.
    assert any(state[ytd_key(w)] > 0 for w in range(4))
    assert conserved_stock(state, 4) == before[1]
