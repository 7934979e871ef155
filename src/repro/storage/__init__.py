"""Storage substrate: versioned KV store (LevelDB stand-in) and commit log."""

from repro.storage.kvstore import KVStore, Snapshot
from repro.storage.log import CommitLog, LogEntry, prefix_consistent

__all__ = [
    "CommitLog",
    "KVStore",
    "LogEntry",
    "Snapshot",
    "prefix_consistent",
]
