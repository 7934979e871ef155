"""Unit tests for the commit log."""

import pytest

from repro.crypto.digest import digest_of
from repro.errors import StorageError
from repro.storage import CommitLog, LogEntry, prefix_consistent


@pytest.fixture
def log():
    return CommitLog()


def test_append_assigns_sequence(log):
    assert log.append(epoch=0, round_number=1, digest="d0",
                      committed_at=1.0) == 0
    assert log.append(epoch=0, round_number=1, digest="d1",
                      committed_at=1.0) == 1
    assert len(log) == 2


def test_duplicate_digest_rejected(log):
    log.append(0, 1, "d0", 1.0)
    with pytest.raises(StorageError):
        log.append(0, 2, "d0", 2.0)


def test_contains_and_digests(log):
    log.append(0, 1, "a", 1.0)
    log.append(0, 2, "b", 2.0)
    assert log.contains("a")
    assert not log.contains("c")
    assert log.digests() == ["a", "b"]


def test_iteration_and_indexing(log):
    log.append(0, 1, "a", 1.0)
    entries = list(log)
    assert entries[0].digest == "a"
    assert log[0].digest == "a"


def test_entries_read_back_what_was_appended(log):
    appended = [(0, 1, "a", 1.0), (0, 3, "b", 2.5), (1, 0, "c", 4.25)]
    for row in appended:
        log.append(*row)
    expected = [LogEntry(sequence, *row)
                for sequence, row in enumerate(appended)]
    assert list(log) == expected
    assert [log[i] for i in range(3)] == expected
    assert [log[i] for i in (-3, -2, -1)] == expected
    assert log.last() == expected[-1]
    with pytest.raises(IndexError):
        log[3]


def test_digests_are_pinned():
    """The digest of a log's digest sequence, as recorded when every
    append built a frozen entry."""
    log = CommitLog()
    for i, name in enumerate(["b0", "a1", "c2", "a3"]):
        log.append(i // 2, i, digest_of(name), 0.5 * i)
    assert digest_of(log.digests()) == "266beaf4b828d6241bc241ec8b73c44e"


def test_last(log):
    assert log.last() is None
    log.append(0, 1, "a", 1.0)
    log.append(0, 2, "b", 2.0)
    assert log.last().digest == "b"


def _filled(digests):
    log = CommitLog()
    for i, digest in enumerate(digests):
        log.append(0, i, digest, float(i))
    return log


def test_prefix_consistent_identical():
    assert prefix_consistent(_filled(["a", "b"]), _filled(["a", "b"]))


def test_prefix_consistent_one_ahead():
    assert prefix_consistent(_filled(["a", "b", "c"]), _filled(["a", "b"]))


def test_prefix_inconsistent_divergent():
    assert not prefix_consistent(_filled(["a", "x"]), _filled(["a", "y"]))


def test_prefix_consistent_empty():
    assert prefix_consistent(_filled([]), _filled(["a"]))
