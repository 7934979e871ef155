"""Gate, the capacity-1 FIFO server, against the semaphore it replaced.

``Resource`` below is the counted semaphore with FIFO granting that the
executor pools and baselines used before :class:`repro.sim.Gate`: request,
wait for the grant, time out for the hold, act, release — two or three
events per gated action where ``Gate`` schedules one.  It is kept here only
as the reference the seeded property compares ``Gate`` with, in the shape
``CERunner._execute`` drives both: operations with continuous random
delays, positive holds, zero-hold finalizes issued at the instant the
previous hold ends, aborts that wake an idle worker at that instant, and
every worker starting at once.
"""

from collections import deque
from typing import Deque

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event, Gate, Store, make_rng


class Request(Event):
    """Event granted when the resource has a free slot."""

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._on_request(self)


class Resource:
    """A counted semaphore with FIFO granting (test-only reference)."""

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1: {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        self._granted: set = set()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        return Request(self)

    def _on_request(self, request: Request) -> None:
        if self._in_use < self.capacity:
            self._in_use += 1
            self._granted.add(id(request))
            request.succeed(self)
        else:
            self._waiting.append(request)

    def release(self, request: Request) -> None:
        if id(request) not in self._granted:
            raise SimulationError("release() of a request that was not granted")
        self._granted.discard(id(request))
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            nxt = self._waiting.popleft()
            self._in_use += 1
            self._granted.add(id(nxt))
            nxt.succeed(self)


class FreeAtGate(Gate):
    """The rejected busy rule: a zero hold waits only while
    ``free_at > now``, so at the instant one hold ends it jumps the zero
    holds already queued behind it."""

    def hold(self, duration):
        if duration == 0 and self._free_at <= self.env.now:
            slot = Event(self.env).succeed()
            self._queue.append(slot)
            return slot
        return super().hold(duration)

    def done(self, slot):
        self._queue.remove(slot)
        if self._queue and not self._queue[0].triggered:
            self._queue[0].succeed()


def gated(env, gate, duration, action):
    """One gated action, the way the runners drive either primitive."""
    if isinstance(gate, Resource):
        request = gate.request()
        yield request
        try:
            if duration > 0:
                yield env.timeout(duration)
            action()
        finally:
            gate.release(request)
    else:
        slot = gate.hold(duration)
        yield slot
        try:
            action()
        finally:
            gate.done(slot)


def simulate(make_gate, seed):
    """A contended executor pool; returns every gated action as
    ``(time, worker, action, draw)`` and the event count."""
    rng = make_rng(seed)
    env = Environment()
    gate = make_gate(env)
    workers = rng.randint(1, 8)
    cost = rng.choice([0.0, 1e-6, 4e-6])
    queue = Store(env)
    pending = rng.randint(1, 30)
    for tx in range(pending):
        queue.put((tx, rng.randint(0, 4)))
    log = []

    def worker(name):
        nonlocal pending
        while True:
            item = yield queue.get()
            if item is None:
                return
            tx, ops = item
            for op in range(ops):
                if rng.random() < 0.8:   # else: request at the same instant
                    yield env.timeout(5e-6 * (1 + rng.uniform(-0.1, 0.1)))

                def act(op=op):
                    log.append((env.now, name, (tx, op), rng.random()))
                yield from gated(env, gate, cost, act)
            outcome = {}

            def finish():
                outcome["aborted"] = rng.random() < 0.2
                log.append((env.now, name, (tx, "finish"), outcome["aborted"]))
                if outcome["aborted"]:
                    queue.put(item)   # wakes an idle worker this instant
            yield from gated(env, gate, 0.0, finish)
            if outcome["aborted"]:
                yield env.timeout(1e-5 * (1 + rng.random()))
                continue
            pending -= 1
            if pending == 0:
                for _ in range(workers):
                    queue.put(None)

    for name in range(workers):
        env.process(worker(name))
    env.run(until=1.0)
    return log, env.events_processed


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_gate_serves_exactly_as_the_fifo_semaphore(seed):
    reference, reference_events = simulate(
        lambda env: Resource(env, capacity=1), seed)
    served, events = simulate(Gate, seed)
    assert served == reference
    assert events <= reference_events


def test_the_free_at_busy_rule_breaks_the_property():
    diverged = [seed for seed in SEEDS
                if simulate(FreeAtGate, seed)[0]
                != simulate(lambda env: Resource(env, capacity=1), seed)[0]]
    assert diverged


def test_positive_hold_is_one_event_at_the_exact_end(env):
    gate = Gate(env)
    first = gate.hold(0.1)
    second = gate.hold(0.2)
    assert env.peek() == 0.1
    fired = []

    def holder(slot):
        yield slot
        fired.append(env.now)
        gate.done(slot)

    env.process(holder(first))
    env.process(holder(second))
    env.run()
    # 0.1 + 0.2 is not 0.3 in binary: the second hold ends at free_at + 0.2.
    assert fired == [0.1, 0.1 + 0.2]
    # One event per slot; the rest start and finish the two processes.
    assert env.events_processed == 2 + 2 * 2


def test_zero_hold_waits_for_done_of_the_last_slot(env):
    gate = Gate(env)
    busy = gate.hold(1.0)
    follower = gate.hold(0.0)
    assert not follower.triggered
    env.run(until=1.0)
    assert busy.processed and not follower.triggered
    gate.done(busy)
    assert follower.triggered


def test_zero_hold_on_an_idle_gate_fires_now(env):
    gate = Gate(env)
    slot = gate.hold(0.0)
    assert slot.triggered
    env.run()
    gate.done(slot)
    assert gate.hold(0.0).triggered


def test_done_out_of_service_order_raises(env):
    gate = Gate(env)
    first = gate.hold(1.0)
    second = gate.hold(1.0)
    with pytest.raises(SimulationError):
        gate.done(second)
    gate.done(first)
    with pytest.raises(SimulationError):
        gate.done(first)


def test_negative_hold_raises(env):
    with pytest.raises(SimulationError):
        Gate(env).hold(-1.0)


def test_schedule_at_fires_at_the_given_time(env):
    event = Event(env)
    event._value = "v"
    env.schedule_at(event, 0.1 + 0.2)
    env.run()
    assert env.now == 0.1 + 0.2 and event.processed
    with pytest.raises(SimulationError):
        env.schedule_at(Event(env), 0.0)
