"""Replay once per cluster: the overlay view contracts read through, and a
memo of committed work keyed by what a replay read from the store."""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Mapping, Tuple

#: Work items the memo keeps, oldest evicted first (a replica arriving later
#: recomputes).  Replicas trail one another by a few items: 16 reaches the
#: ideal hit share on all five ``benchmarks/e2e`` workloads, 4 on two.
MEMO_ENTRIES = 16

#: What a base read of a missing key records (no stored value is it).
_ABSENT = object()

#: Types whose ``==`` hides nothing a contract could observe; a value of any
#: other type (a container: ``[1] == [True]``) only matches itself.
_SCALARS = frozenset((int, bool, float, str, bytes, type(None)))


class OverlayView:
    """Read view of ``base`` under an accumulating ``overlay`` (a batch's
    writes so far, a proposer's uncommitted preplay writes), which
    remembers the first value it fetched from ``base`` for each key."""

    def __init__(self, overlay: Dict[str, Any],
                 base: Mapping[str, Any]) -> None:
        self.overlay = overlay
        self._base = base
        #: key -> first value fetched from ``base`` (``_ABSENT``: no value).
        self.base_reads: Dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        if key in self.overlay:
            return self.overlay[key]
        value = self._base.get(key, _ABSENT)
        self.base_reads.setdefault(key, value)
        return default if value is _ABSENT else value


class ReplayMemo:
    """The last :data:`MEMO_ENTRIES` replayed work items of one cluster.

    A contract is deterministic in its arguments and the values it reads,
    so a replay of committed work is a function of the work and of what it
    fetched from the store underneath.  Honest replicas replay the same
    work over the same committed prefix: the first computes, the others
    check its base reads against their own store — §4's read-set validation
    applied to the simulator.  Only host execution is shared; each replica
    still charges the simulated cost and applies the writes itself.
    """

    def __init__(self) -> None:
        #: key -> (subject, ((read key, value seen), ...), outcome)
        self._entries: Dict[Hashable, Tuple[Any, tuple, Any]] = {}
        #: Lookups that ran ``compute`` / that reused a neighbour's outcome.
        self.executed = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._entries)

    def replay(self, key: Hashable, subject: Any, state: Mapping[str, Any],
               compute: Callable[[OverlayView], Any]) -> Any:
        """``compute(OverlayView({}, state))``, or the outcome remembered
        under ``key`` if it was computed for an equal ``subject`` and
        ``state`` holds, for every base read recorded then, an equal value
        of the same exact type.  ``compute`` must be deterministic in
        ``subject`` and what the view reads, and hand out a read-only
        outcome: callers share it."""
        entry = self._entries.get(key)
        if entry is not None and (entry[0] is subject or entry[0] == subject):
            for read_key, seen in entry[1]:
                value = state.get(read_key, _ABSENT)
                if value is not seen and not (
                        type(value) is type(seen) and type(seen) in _SCALARS
                        and value == seen):
                    break
            else:
                self.reused += 1
                return entry[2]
        view = OverlayView({}, state)
        outcome = compute(view)
        self.executed += 1
        self._entries[key] = (subject, tuple(view.base_reads.items()),
                              outcome)
        if len(self._entries) > MEMO_ENTRIES:
            del self._entries[next(iter(self._entries))]
        return outcome
