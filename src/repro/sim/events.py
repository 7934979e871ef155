"""Event primitives for the discrete-event simulation kernel.

The kernel is deliberately small and SimPy-flavoured: processes are Python
generators that ``yield`` events; the :class:`~repro.sim.environment.Environment`
advances a virtual clock and resumes processes when the events they wait on
are processed.

Only the features the Thunderbolt stack needs are implemented: one-shot
events, timeouts, process-completion events, and ``AllOf`` / ``AnyOf``
combinators.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.environment import Environment

#: Sentinel distinguishing "not yet triggered" from a ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled with a value on the event queue), and *processed* (callbacks
    have run).  Processes wait on events by yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value (or failure) has been scheduled."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and waiting processes resumed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True unless the event failed with an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value accessed before being triggered")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiting processes see it
        raised at their ``yield``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._processed = False
        self.delay = delay
        # ``env.schedule`` inlined: the delay is checked above.
        heapq.heappush(env._queue, (env._now + delay, 1, next(env._seq), self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self)


class Process(Event):
    """Wraps a generator so it can run as a simulation process.

    The process itself is an event that triggers when the generator returns
    (value = the generator's return value) or raises (failure).  This lets
    processes wait for each other simply by yielding the other process.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "process() requires a generator (did you forget to call the "
                "function, or is it missing a yield?)")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=True)

    # -- driving the generator ----------------------------------------------

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.env.schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env.schedule(self)
                break
            if not isinstance(target, Event):
                self._generator.throw(SimulationError(
                    f"process yielded a non-event: {target!r}"))
                continue
            if target.env is not self.env:
                self._generator.throw(SimulationError(
                    "process yielded an event from a different environment"))
                continue
            if target._processed:
                # Already done: resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            self._target = target
            break


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class AllOf(Event):
    """Triggers once every child event has triggered successfully.

    The value is a list of the child values in the order given.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for child in self._events:
            if child.processed:
                continue
            self._pending += 1
            child.callbacks.append(self._on_child)
        if self._pending == 0:
            self.succeed([child.value for child in self._events])

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self._events])


class AnyOf(Event):
    """Triggers as soon as the first child event triggers.

    The value is a ``(event, value)`` pair identifying the winner.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        done = next((c for c in self._events if c.processed), None)
        if done is not None:
            self.succeed((done, done.value))
            return
        for child in self._events:
            child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.value)
            return
        self.succeed((child, child.value))
