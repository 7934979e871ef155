"""Unit tests for the versioned key-value store."""

import pytest

from repro.errors import StorageError
from repro.storage import KVStore


@pytest.fixture
def store():
    return KVStore()


def test_missing_key_returns_default(store):
    assert store.get("x") is None
    assert store.get("x", 0) == 0


def test_put_and_get(store):
    store.put("a", 10)
    assert store.get("a") == 10
    assert "a" in store


def test_versions_start_at_one_and_bump(store):
    assert store.version("a") == 0
    assert store.put("a", 1) == 1
    assert store.put("a", 2) == 2
    assert store.version("a") == 2


def test_non_string_key_rejected(store):
    with pytest.raises(StorageError):
        store.put(5, "value")


def test_apply_batch_rejects_a_non_string_key_before_any_write(store):
    store.put("a", 0)
    with pytest.raises(StorageError):
        store.apply_batch({"a": 1, 2: 3})
    with pytest.raises(StorageError):
        store.apply_batch({1: 1, 2: 2})   # sortable, still not strings
    assert store.get("a") == 0 and store.version("a") == 1
    assert len(store) == 1 and store.writes_applied == 1


def test_delete_idempotent(store):
    store.put("a", 1)
    store.delete("a")
    store.delete("a")
    assert "a" not in store


def test_apply_batch_sorted_order(store):
    store.apply_batch({"b": 2, "a": 1})
    assert store.get("a") == 1 and store.get("b") == 2
    assert len(store) == 2


def test_scan_prefix(store):
    store.put("checking:1", 10)
    store.put("checking:2", 20)
    store.put("savings:1", 30)
    scanned = list(store.scan("checking:"))
    assert scanned == [("checking:1", 10), ("checking:2", 20)]


def test_scan_sorted(store):
    store.put("b", 2)
    store.put("a", 1)
    assert [k for k, _ in store.scan()] == ["a", "b"]


def test_snapshot_isolated_from_later_writes(store):
    store.put("a", 1)
    snap = store.snapshot()
    store.put("a", 2)
    assert snap.get("a") == 1
    assert snap.version("a") == 1
    assert store.get("a") == 2


def test_snapshot_missing_key(store):
    snap = store.snapshot()
    assert snap.get("x", "d") == "d"
    assert snap.version("x") == 0
    assert "x" not in snap


def test_checksum_reflects_state(store):
    store.put("a", 1)
    c1 = store.checksum()
    store.put("a", 2)
    c2 = store.checksum()
    assert c1 != c2


def test_checksum_equal_for_equal_stores():
    s1, s2 = KVStore(), KVStore()
    s1.apply_batch({"a": 1, "b": 2})
    s2.apply_batch({"a": 1, "b": 2})
    assert s1.checksum() == s2.checksum()


def test_checksum_sees_version_difference():
    s1, s2 = KVStore(), KVStore()
    s1.put("a", 1)
    s2.put("a", 0)
    s2.put("a", 1)  # same value, version 2
    assert s1.checksum() != s2.checksum()


def test_writes_applied_counter(store):
    store.put("a", 1)
    store.apply_batch({"b": 2, "c": 3})
    assert store.writes_applied == 3


def test_checksum_is_pinned():
    """Values of every JSON-like type, overwrites, a delete and two batches:
    the digest the store computed when each key held a frozen
    value-and-version record."""
    store = KVStore()
    store.apply_batch({"checking:2": 20, "savings:1": 7, "checking:1": 10})
    store.put("checking:1", 11)
    store.put("flag", None)
    store.put("nested", [1, "x", {"k": 2.5}])
    store.delete("savings:1")
    store.apply_batch({"savings:1": -3, "checking:2": 21})
    assert store.writes_applied == 8
    assert store.checksum() == "f4e9d81dcedbb3d2e2bad4cd775fad9d"
