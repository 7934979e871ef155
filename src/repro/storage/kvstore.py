"""Versioned in-memory key-value store.

Plays the role LevelDB plays in the paper's evaluation: the durable balance
store each replica applies committed results to.  Every key carries a
monotonically increasing version, which is exactly what the OCC baseline's
central verifier checks (§11.1), and snapshots give validators a stable view
to re-execute against.

Values and versions live in two dicts, as in the OCC baseline's
``_VersionedState``: applying a write set builds no record per key.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from repro.errors import StorageError


class KVStore:
    """A LevelDB-flavoured store: get / put / delete / scan / snapshot.

    Versions start at 1 on first write and bump on every overwrite.  Reads of
    missing keys return ``default`` rather than raising — contract code
    treats missing balances as zero-initialised state.
    """

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}
        self._versions: Dict[str, int] = {}
        self.writes_applied = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    # -- point operations ---------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Current value for ``key`` or ``default``."""
        return self._values.get(key, default)

    def version(self, key: str) -> int:
        """Current version of ``key`` (0 if never written)."""
        return self._versions.get(key, 0)

    def put(self, key: str, value: Any) -> int:
        """Write ``value``; returns the new version."""
        self.apply_batch({key: value})
        return self._versions[key]

    def delete(self, key: str) -> None:
        """Remove ``key`` if present (idempotent)."""
        self._values.pop(key, None)
        self._versions.pop(key, None)

    # -- bulk operations ------------------------------------------------------

    def apply_batch(self, writes: Dict[str, Any]) -> None:
        """Apply a write set atomically (deterministic key order): a
        non-``str`` key raises :class:`StorageError` before any write."""
        for key in writes:
            if not isinstance(key, str):
                raise StorageError(
                    f"keys must be strings, got {type(key).__name__}")
        values, versions = self._values, self._versions
        for key in sorted(writes):
            values[key] = writes[key]
            versions[key] = versions.get(key, 0) + 1
        self.writes_applied += len(writes)

    def scan(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        """Iterate ``(key, value)`` pairs with ``prefix`` in sorted key order."""
        for key in sorted(self._values):
            if key.startswith(prefix):
                yield key, self._values[key]

    def snapshot(self) -> "Snapshot":
        """An immutable point-in-time view: copies of both dicts, so later
        writes to the store do not show through."""
        return Snapshot(dict(self._values), dict(self._versions))

    def checksum(self) -> str:
        """A digest of the full state — used by tests to assert that all
        honest replicas converge to identical state."""
        from repro.crypto.digest import digest_of
        versions = self._versions
        return digest_of({k: [v, versions[k]]
                          for k, v in self._values.items()})


class Snapshot:
    """Read-only view of a store at a point in time."""

    def __init__(self, values: Dict[str, Any],
                 versions: Dict[str, int]) -> None:
        self._values = values
        self._versions = versions

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def version(self, key: str) -> int:
        return self._versions.get(key, 0)
