"""Unit tests for the contract protocol and registry."""

import pytest

from repro.contracts import (ContractRegistry, ReadOp, WriteOp, is_read,
                             is_write, run_inline)
from repro.errors import ContractError


def incrementer(key):
    value = yield ReadOp(key)
    yield WriteOp(key, value + 1)
    return value + 1


def test_ops_predicates():
    assert is_read(ReadOp("k")) and not is_write(ReadOp("k"))
    assert is_write(WriteOp("k", 1)) and not is_read(WriteOp("k", 1))


def test_registry_register_and_get():
    registry = ContractRegistry()
    registry.register("inc", incrementer)
    assert registry.get("inc") is incrementer
    assert "inc" in registry
    assert registry.names() == ["inc"]


def test_registry_duplicate_rejected():
    registry = ContractRegistry()
    registry.register("inc", incrementer)
    with pytest.raises(ContractError):
        registry.register("inc", incrementer)


def test_registry_unknown_raises():
    with pytest.raises(ContractError):
        ContractRegistry().get("missing")


def test_run_inline_records_sets():
    record = run_inline(incrementer, ("k",), {"k": 5})
    assert record.read_set == {"k": 5}
    assert record.write_set == {"k": 6}
    assert record.result == 6
    assert record.op_count == 2


def test_run_inline_missing_key_uses_default():
    record = run_inline(incrementer, ("k",), {}, default=0)
    assert record.read_set == {"k": 0}
    assert record.write_set == {"k": 1}


def test_run_inline_read_your_writes():
    def rmw(key):
        yield WriteOp(key, 100)
        value = yield ReadOp(key)
        return value

    record = run_inline(rmw, ("k",), {"k": 1})
    assert record.result == 100
    # the read was served by the local write: not an external read
    assert record.read_set == {}


def test_run_inline_first_read_retained():
    def double_read(key):
        a = yield ReadOp(key)
        b = yield ReadOp(key)
        return (a, b)

    record = run_inline(double_read, ("k",), {"k": 3})
    assert record.result == (3, 3)
    assert record.read_set == {"k": 3}


def test_run_inline_rejects_non_operations():
    def bad():
        yield "not an op"

    with pytest.raises(ContractError):
        run_inline(bad, (), {})


def test_run_inline_no_ops_contract():
    def constant():
        return 42
        yield  # pragma: no cover - makes it a generator

    record = run_inline(constant, (), {})
    assert record.result == 42
    assert record.keys_touched == ()


def test_keys_touched_sorted():
    def multi():
        yield WriteOp("b", 1)
        yield ReadOp("a")
        return None

    record = run_inline(multi, (), {})
    assert record.keys_touched == ("a", "b")


def test_last_write_wins_in_write_set():
    def overwrite(key):
        yield WriteOp(key, 1)
        yield WriteOp(key, 2)
        return None

    record = run_inline(overwrite, ("k",), {})
    assert record.write_set == {"k": 2}
