"""The discrete-event simulation environment.

:class:`Environment` owns the virtual clock and the event queue.  All the
protocol components in this repository (replicas, executors, network links,
clients) run as processes inside one environment, which makes every run
fully deterministic for a given seed.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event, Process, Timeout


class Environment:
    """Executes events in virtual-time order.

    The queue is keyed by ``(time, priority, sequence)``: ``priority`` lets
    interrupts preempt ordinary events at the same instant, and the
    monotonically increasing sequence number makes ties deterministic.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = count()
        #: Events processed since construction.  Long-lived hosts (the
        #: execution sessions, multi-batch clusters) report this as a proxy
        #: for scheduler load: a healthy stream processes a flat number of
        #: events per batch instead of an ever-growing one.
        self.events_processed = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event construction --------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event; trigger it with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Start ``generator`` as a new simulation process."""
        return Process(self, generator)

    # -- scheduling ------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: bool = False) -> None:
        """Put a triggered event on the queue ``delay`` units in the future."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        heapq.heappush(
            self._queue,
            (self._now + delay, 0 if priority else 1, next(self._seq), event))

    def schedule_at(self, event: Event, when: float) -> None:
        """Put a triggered event on the queue at the absolute time ``when``
        (``now + (when - now)`` can differ from ``when`` in the last bit)."""
        if when < self._now:
            raise SimulationError(f"cannot schedule into the past: {when}")
        heapq.heappush(self._queue, (when, 1, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, []
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            # A failed event nobody waited on would otherwise vanish silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event fires at that instant, mirroring SimPy semantics.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)
