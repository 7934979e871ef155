"""Unit tests for Store, and for the reference semaphore ``Resource`` that
``tests/sim/test_gate.py`` holds ``Gate`` to."""

import pytest

from repro.errors import SimulationError
from repro.sim import Store

from tests.sim.test_gate import Resource


def test_resource_capacity_validation(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity(env):
    pool = Resource(env, capacity=2)
    r1, r2, r3 = pool.request(), pool.request(), pool.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert pool.in_use == 2
    assert pool.queue_length == 1


def test_release_grants_next_waiter(env):
    pool = Resource(env, capacity=1)
    r1 = pool.request()
    r2 = pool.request()
    assert not r2.triggered
    pool.release(r1)
    assert r2.triggered
    assert pool.in_use == 1


def test_release_ungranted_raises(env):
    pool = Resource(env, capacity=1)
    pool.request()
    waiting = pool.request()
    with pytest.raises(SimulationError):
        pool.release(waiting)


def test_resource_fifo_order(env):
    pool = Resource(env, capacity=1)
    first = pool.request()
    second = pool.request()
    third = pool.request()
    pool.release(first)
    assert second.triggered and not third.triggered


def test_resource_with_processes(env):
    pool = Resource(env, capacity=2)
    finished = []

    def worker(name):
        request = pool.request()
        yield request
        yield env.timeout(1)
        pool.release(request)
        finished.append((name, env.now))

    for i in range(4):
        env.process(worker(i))
    env.run()
    # two waves of two workers each
    assert [t for (_, t) in finished] == [1, 1, 2, 2]


def test_store_put_then_get(env):
    store = Store(env)
    store.put("x")
    event = store.get()
    assert event.triggered and event.value == "x"


def test_store_get_blocks_until_put(env):
    store = Store(env)
    event = store.get()
    assert not event.triggered
    store.put("y")
    assert event.triggered and event.value == "y"


def test_store_fifo(env):
    store = Store(env)
    for i in range(3):
        store.put(i)
    assert [store.get().value for _ in range(3)] == [0, 1, 2]


def test_store_getters_fifo(env):
    store = Store(env)
    g1, g2 = store.get(), store.get()
    store.put("a")
    store.put("b")
    assert g1.value == "a" and g2.value == "b"


def test_store_len_and_items(env):
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == [1, 2]


def test_store_try_get(env):
    store = Store(env)
    assert store.try_get() is None
    store.put(9)
    assert store.try_get() == 9
    assert store.try_get() is None


def test_store_producer_consumer(env):
    store = Store(env)
    consumed = []

    def producer():
        for i in range(5):
            yield env.timeout(1)
            store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            consumed.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert consumed == [(i, float(i + 1)) for i in range(5)]
