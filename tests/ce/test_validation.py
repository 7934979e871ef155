"""Unit tests for commit-time parallel validation (§4)."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce import CommittedTx, validate_block
from repro.ce.validation import (estimate_validation_cost, reexecute_block,
                                 _makespan)
from repro.contracts import (AMALGAMATE, SEND_PAYMENT, GET_BALANCE, ReadOp,
                             WriteOp, default_registry, initial_state,
                             run_inline)
from repro.txn import Transaction


@pytest.fixture
def registry():
    return default_registry()


def preplay_serial(txs, registry, state):
    """Build CommittedTx entries by serial execution (a valid preplay)."""
    entries = []
    replay = dict(state)
    for index, tx in enumerate(txs):
        record = run_inline(registry.get(tx.contract), tx.args, replay)
        replay.update(record.write_set)
        entries.append(CommittedTx(
            tx_id=tx.tx_id, order_index=index, read_set=record.read_set,
            write_set=record.write_set, result=record.result, attempts=1))
    return entries


def test_valid_block_accepted(registry):
    state = initial_state(8)
    txs = [Transaction(0, SEND_PAYMENT, (0, 1, 10), (0,)),
           Transaction(1, SEND_PAYMENT, (2, 3, 5), (0,)),
           Transaction(2, GET_BALANCE, (0,), (0,))]
    entries = preplay_serial(txs, registry, state)
    outcome = validate_block(entries, {t.tx_id: t for t in txs}, registry,
                             state)
    assert outcome.valid
    assert outcome.writes["checking:0"] == 9990
    assert outcome.simulated_cost > 0


def test_read_mismatch_rejected(registry):
    state = initial_state(8)
    txs = [Transaction(0, SEND_PAYMENT, (0, 1, 10), (0,))]
    entries = preplay_serial(txs, registry, state)
    tampered = CommittedTx(tx_id=0, order_index=0,
                           read_set={"checking:0": 999,
                                     "checking:1": 10000},
                           write_set=entries[0].write_set,
                           result=entries[0].result, attempts=1)
    outcome = validate_block([tampered], {t.tx_id: t for t in txs},
                             registry, state)
    assert not outcome.valid
    assert "read set mismatch" in outcome.reason


def test_write_mismatch_rejected(registry):
    state = initial_state(8)
    txs = [Transaction(0, SEND_PAYMENT, (0, 1, 10), (0,))]
    entries = preplay_serial(txs, registry, state)
    tampered = CommittedTx(tx_id=0, order_index=0,
                           read_set=entries[0].read_set,
                           write_set={"checking:0": 1},
                           result=entries[0].result, attempts=1)
    outcome = validate_block([tampered], {t.tx_id: t for t in txs},
                             registry, state)
    assert not outcome.valid


def test_values_of_another_type_are_rejected(registry):
    """``10000.0 == 10000 == True`` for ``==`` but not for the block digest:
    a preplay that declares an equal value of another type publishes sets
    other than the ones that ran, and is rejected like any other lie."""
    state = initial_state(8)
    state["savings:1"] = 1
    txs = [Transaction(0, SEND_PAYMENT, (0, 1, 10), (0,)),
           Transaction(1, AMALGAMATE, (1, 2), (0,))]
    txmap = {t.tx_id: t for t in txs}
    entries = preplay_serial(txs, registry, state)
    assert validate_block(entries, txmap, registry, state).valid
    as_float = dataclasses.replace(
        entries[0],
        read_set={k: float(v) for k, v in entries[0].read_set.items()},
        write_set={k: float(v) for k, v in entries[0].write_set.items()})
    assert as_float.read_set == entries[0].read_set
    outcome = validate_block([as_float, entries[1]], txmap, registry, state)
    assert not outcome.valid
    assert "read set mismatch" in outcome.reason
    only_writes = dataclasses.replace(entries[0], write_set={
        k: float(v) for k, v in entries[0].write_set.items()})
    outcome = validate_block([only_writes, entries[1]], txmap, registry,
                             state)
    assert not outcome.valid
    assert "write set mismatch" in outcome.reason
    assert entries[1].read_set["savings:1"] == 1
    as_bool = dataclasses.replace(
        entries[1], read_set={**entries[1].read_set, "savings:1": True})
    assert as_bool.read_set == entries[1].read_set
    outcome = validate_block([entries[0], as_bool], txmap, registry, state)
    assert not outcome.valid
    assert "tx 1: read set mismatch" in outcome.reason


def test_containers_must_match_down_to_their_item_types():
    """A custom contract storing containers: ``[1] == [True]``, but only
    the exact observed value passes."""
    registry = default_registry()

    def copy_list(src, dst):
        value = yield ReadOp(src)
        yield WriteOp(dst, value)
    registry.register("test.copy", copy_list)
    state = {"a": [1, {"n": 2}]}
    tx = Transaction(0, "test.copy", ("a", "b"), (0,))
    honest = CommittedTx(0, 0, {"a": [1, {"n": 2}]}, {"b": [1, {"n": 2}]},
                         None, 1)
    assert validate_block([honest], {0: tx}, registry, state).valid
    for lie in ([True, {"n": 2}], [1, {"n": 2.0}]):
        forged = dataclasses.replace(honest, read_set={"a": lie})
        assert forged.read_set == honest.read_set
        assert not validate_block([forged], {0: tx}, registry, state).valid


def test_unknown_transaction_rejected(registry):
    entry = CommittedTx(tx_id=42, order_index=0, read_set={}, write_set={},
                        result=None, attempts=1)
    outcome = validate_block([entry], {}, registry, {})
    assert not outcome.valid
    assert "unknown transaction" in outcome.reason


def test_stale_state_detected(registry):
    """A block preplayed against old state fails once the key moved on —
    the §4 discard case."""
    state = initial_state(8)
    txs = [Transaction(0, SEND_PAYMENT, (0, 1, 10), (0,))]
    entries = preplay_serial(txs, registry, state)
    moved = dict(state)
    moved["checking:0"] = 7777
    outcome = validate_block(entries, {t.tx_id: t for t in txs}, registry,
                             moved)
    assert not outcome.valid


def test_makespan():
    assert _makespan([], 4) == 0.0
    assert _makespan([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(2.0)
    assert _makespan([4.0, 1.0, 1.0], 2) == pytest.approx(4.0)


def reference_makespan(costs, workers):
    """The lane scan ``_makespan`` replaced: the first least-loaded lane."""
    if not costs:
        return 0.0
    lanes = [0.0] * max(1, workers)
    for cost in sorted(costs, reverse=True):
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[lane] += cost
    return max(lanes)


def test_makespan_heap_matches_the_lane_scan():
    """Same lane choice (least load, lowest index), so the same float sums:
    equal bit for bit, with ties, zero costs and more workers than costs."""
    rng = random.Random(4104)
    for _ in range(2000):
        workers = rng.randint(0, 20)
        size = rng.randint(0, 30)
        pool = [0.0, 5e-6, 1e-5, 1.5e-5, 0.1, 0.3]
        costs = [rng.choice(pool) if rng.random() < 0.5
                 else rng.random() * 1e-3 for _ in range(size)]
        assert _makespan(costs, workers) == \
            reference_makespan(costs, workers), (costs, workers)
    assert _makespan([0.0, 0.0], 4) == 0.0
    assert _makespan([0.1, 0.2], 1) == 0.1 + 0.2
    assert _makespan([0.3, 0.1, 0.1, 0.1], 2) == 0.1 + 0.1 + 0.1


def test_more_validators_cheaper():
    entries = [CommittedTx(i, i, {f"k{i}": 1}, {f"k{i}": 2}, None, 1)
               for i in range(16)]
    few = estimate_validation_cost(entries, validators=1)
    many = estimate_validation_cost(entries, validators=16)
    assert many < few


# ------------------------------------------------ deterministic re-execution


def batch_fixture(registry):
    """A small batch with conflicts, a read-only tx, and an insufficient-
    funds edge — plus its honest serial preplay."""
    state = initial_state(8)
    txs = [Transaction(0, SEND_PAYMENT, (0, 1, 10), (0,)),
           Transaction(1, SEND_PAYMENT, (1, 2, 5), (0,)),
           Transaction(2, GET_BALANCE, (2,), (0,)),
           Transaction(3, SEND_PAYMENT, (3, 0, 20_000), (0,))]
    return state, txs, preplay_serial(txs, registry, state)


def test_reexecute_block_matches_honest_outcome(registry):
    """Canonical replay of an untampered block reproduces exactly the
    writes and results the honest preplay declared."""
    state, txs, entries = batch_fixture(registry)
    honest = validate_block(entries, {t.tx_id: t for t in txs}, registry,
                            state)
    assert honest.valid
    recovery = reexecute_block(entries, {t.tx_id: t for t in txs},
                               registry, state)
    assert recovery.writes == honest.writes
    assert recovery.results == {e.tx_id: e.result for e in entries}
    assert tuple(recovery.executed) == tuple(t.tx_id for t in txs)
    assert recovery.simulated_cost > 0


def test_reexecute_block_appends_transactions_missing_from_entries(registry):
    """A Byzantine executor may omit block transactions from its preplay
    set entirely; re-execution still runs every block transaction."""
    state, txs, entries = batch_fixture(registry)
    recovery = reexecute_block(entries[:2], {t.tx_id: t for t in txs},
                               registry, state)
    assert tuple(recovery.executed) == tuple(t.tx_id for t in txs)
    honest = reexecute_block(entries, {t.tx_id: t for t in txs}, registry,
                             state)
    assert recovery.writes == honest.writes


def test_reexecute_block_ignores_entries_for_unknown_transactions(registry):
    """Entries whose tx_id is not in the block cannot smuggle work in."""
    state, txs, entries = batch_fixture(registry)
    forged = CommittedTx(tx_id=999, order_index=0,
                         read_set={}, write_set={"checking:0": 0},
                         result=None, attempts=1)
    recovery = reexecute_block([forged] + entries,
                               {t.tx_id: t for t in txs}, registry, state)
    assert 999 not in recovery.executed
    assert recovery.writes["checking:0"] != 0


def _corrupt(entry, mode):
    reads = dict(entry.read_set)
    writes = dict(entry.write_set)
    if mode == "add-read":
        reads["bogus:read"] = 1
    elif mode == "add-write":
        writes["bogus:write"] = 1
    elif mode == "flip-read":
        key = sorted(reads)[0]
        reads[key] = reads[key] + 1
    elif mode == "flip-write":
        key = sorted(writes)[0]
        writes[key] = writes[key] + 1
    elif mode == "drop-read":
        del reads[sorted(reads)[0]]
    else:  # drop-write
        del writes[sorted(writes)[0]]
    return dataclasses.replace(entry, read_set=reads, write_set=writes)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_preplay_corruption_is_rejected_then_recovered(data):
    """Property (ISSUE satellite): for *any* single-entry corruption of a
    valid preplay set, validation rejects the block and deterministic
    re-execution restores the canonical honest writes and results."""
    registry = default_registry()
    state, txs, entries = batch_fixture(registry)
    index = data.draw(st.integers(0, len(entries) - 1), label="entry")
    entry = entries[index]
    modes = ["add-read", "add-write"]
    if entry.read_set:
        modes += ["flip-read", "drop-read"]
    if entry.write_set:
        modes += ["flip-write", "drop-write"]
    mode = data.draw(st.sampled_from(modes), label="mode")
    corrupted = list(entries)
    corrupted[index] = _corrupt(entry, mode)
    txmap = {t.tx_id: t for t in txs}

    honest = validate_block(entries, txmap, registry, state)
    assert honest.valid
    outcome = validate_block(corrupted, txmap, registry, state)
    assert not outcome.valid, (index, mode)

    recovery = reexecute_block(corrupted, txmap, registry, state)
    assert recovery.writes == honest.writes
    assert recovery.results == {e.tx_id: e.result for e in entries}
    assert tuple(recovery.executed) == tuple(t.tx_id for t in txs)


def test_contention_does_not_serialize_validation():
    """§4: with declared read/write sets, each transaction's input view is
    reconstructible without executing predecessors, so validation cost is
    independent of data contention (no level barriers)."""
    disjoint = [CommittedTx(i, i, {}, {f"k{i}": 1}, None, 1)
                for i in range(8)]
    conflicting = [CommittedTx(i, i, {}, {"k": 1}, None, 1)
                   for i in range(8)]
    assert estimate_validation_cost(conflicting, validators=8) == \
        pytest.approx(estimate_validation_cost(disjoint, validators=8))

