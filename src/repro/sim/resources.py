"""Shared-resource primitives built on the DES kernel.

Two primitives cover everything the Thunderbolt stack needs:

* :class:`Gate` — a capacity-1 FIFO server in virtual time: the central
  concurrency controller every contract operation passes through, OCC's
  verifier and 2PL's lock controller.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``; the
  hand-off queue between an executor pool and its workers.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event


class Gate:
    """A capacity-1 server: holds are served in request order.

    A hold's duration is known when it is requested, so one event per hold
    suffices (docs/ARCHITECTURE.md, "What an event costs")::

        slot = gate.hold(duration)
        yield slot
        try:
            ...  # the gated action, at the end of the hold
        finally:
            gate.done(slot)

    A positive hold fires at ``max(now, free_at) + duration``.  A zero hold
    fires at once unless the last slot issued has not called :meth:`done`;
    then that ``done`` triggers it.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._free_at = env.now
        #: Slots issued and not yet done, in service order.
        self._queue: Deque[Event] = deque()

    def hold(self, duration: float) -> Event:
        """Reserve the next service slot for ``duration``; yield the
        returned event and perform the gated action when it fires."""
        env = self.env
        slot = Event(env)
        queue = self._queue
        if duration > 0:
            end = max(env._now, self._free_at) + duration
            self._free_at = end
            slot._value = None
            # ``env.schedule_at`` inlined: ``end`` is past ``now``.
            heapq.heappush(env._queue, (end, 1, next(env._seq), slot))
        elif duration < 0:
            raise SimulationError(f"negative hold: {duration}")
        elif not queue:
            slot.succeed()
        queue.append(slot)
        return slot

    def done(self, slot: Event) -> None:
        """End ``slot``'s service, right after its gated action."""
        queue = self._queue
        if not queue or queue[0] is not slot:
            raise SimulationError("done() of a slot that is not in service")
        queue.popleft()
        if queue and not queue[0].triggered:
            queue[0].succeed()


class Store:
    """An unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the next
    item; pending getters are served in FIFO order.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """A snapshot copy of the queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Pop an item immediately or return ``None`` if empty."""
        return self._items.popleft() if self._items else None
