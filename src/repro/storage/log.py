"""Commit log.

Each replica appends every committed block here, giving the total order the
safety arguments (and tests) inspect: two honest replicas must produce
prefix-consistent logs of (epoch, round, block digest) entries.

A block is stored as a plain ``(epoch, round, digest, committed_at)`` row at
its sequence number; a :class:`LogEntry` is built only when one is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import StorageError


@dataclass(frozen=True)
class LogEntry:
    """One committed block in the replica's total order."""

    sequence: int
    epoch: int
    round_number: int
    digest: str
    committed_at: float


class CommitLog:
    """Append-only log of committed blocks."""

    def __init__(self) -> None:
        self._rows: List[Tuple[int, int, str, float]] = []
        self._digests: set[str] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[LogEntry]:
        return (LogEntry(i, *row) for i, row in enumerate(self._rows))

    def __getitem__(self, index: int) -> LogEntry:
        return LogEntry(range(len(self))[index], *self._rows[index])

    def append(self, epoch: int, round_number: int, digest: str,
               committed_at: float) -> int:
        """Append the next committed block and return its sequence number;
        duplicate digests are rejected (a block commits exactly once)."""
        if digest in self._digests:
            raise StorageError(f"block {digest[:8]} committed twice")
        self._digests.add(digest)
        self._rows.append((epoch, round_number, digest, committed_at))
        return len(self._rows) - 1

    def contains(self, digest: str) -> bool:
        return digest in self._digests

    def digests(self) -> List[str]:
        """Digests in commit order."""
        return [row[2] for row in self._rows]

    def last(self) -> Optional[LogEntry]:
        return self[-1] if self._rows else None


def prefix_consistent(log_a: CommitLog, log_b: CommitLog) -> bool:
    """True iff one log's digest sequence is a prefix of the other's.

    This is the safety relation between any two honest replicas.
    """
    a, b = log_a.digests(), log_b.digests()
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]
