"""Tests for Resource / Store."""

import pytest

from repro.sim import Resource, Simulator, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("grant", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for tag in ("a", "b", "c"):
        sim.process(user(tag, 1.0))
    sim.run()
    assert order == [
        ("grant", "a", 0.0),
        ("grant", "b", 1.0),
        ("grant", "c", 2.0),
    ]


def test_resource_release_unknown_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(RuntimeError):
        res.release(req)


def test_resource_release_wrong_resource_rejected():
    sim = Simulator()
    res1, res2 = Resource(sim), Resource(sim)
    req = res1.request()
    with pytest.raises(ValueError):
        res2.release(req)


def test_resource_acquire_helper():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []

    def user(tag):
        yield from res.acquire(2.0)
        times.append((tag, sim.now))

    sim.process(user("x"))
    sim.process(user("y"))
    sim.run()
    assert times == [("x", 2.0), ("y", 4.0)]


def test_resource_busy_time_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        yield from res.acquire(3.0)
        yield sim.timeout(2.0)
        yield from res.acquire(1.0)

    sim.process(user())
    sim.run()
    assert res.busy_time == pytest.approx(4.0)
    assert sim.now == pytest.approx(6.0)
    assert res.utilization_until_now == pytest.approx(4.0 / 6.0)


def test_resource_grant_counter():
    sim = Simulator()
    res = Resource(sim, capacity=4)

    def user():
        yield from res.acquire(1.0)

    for _ in range(10):
        sim.process(user())
    sim.run()
    assert res.grants == 10


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert [i for i, _ in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("frame")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("frame", 5.0)]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("a", sim.now))
        yield store.put("b")
        log.append(("b", sim.now))

    def consumer():
        yield sim.timeout(3.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [("a", 0.0), ("b", 3.0)]


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_len_and_monitoring():
    sim = Simulator()
    store = Store(sim)

    def producer():
        for i in range(5):
            yield store.put(i)

    sim.process(producer())
    sim.run()
    assert len(store) == 5
    assert store.total_put == 5
    assert store.max_occupancy == 5


def test_store_handoff_bypasses_buffer():
    """A put while a getter waits goes straight through (rendezvous)."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def consumer():
        item = yield store.get()
        got.append(item)

    def producer():
        yield sim.timeout(1.0)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["x"]
    assert len(store) == 0
