"""Edge-case coverage for kernel corners the main tests skip."""

import pytest

from repro.sim import (
    Event,
    Simulator,
    Store,
    Timeout,
)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_event_repr_states():
    sim = Simulator()
    ev = sim.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "ok" in repr(ev)
    ev2 = sim.event()
    ev2.defuse()
    ev2.fail(ValueError("x"))
    assert "failed" in repr(ev2)


def test_store_put_while_getter_and_putter_queued():
    """Full store with both waiting putters and (later) getters drains
    in strict FIFO."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    order = []

    def producer(tag):
        yield store.put(tag)
        order.append(("put", tag, sim.now))

    def consumer():
        yield sim.timeout(1.0)
        for _ in range(3):
            item = yield store.get()
            order.append(("got", item, sim.now))

    for tag in ("a", "b", "c"):
        sim.process(producer(tag))
    sim.process(consumer())
    sim.run()
    gots = [item for kind, item, _ in order if kind == "got"]
    assert gots == ["a", "b", "c"]


def test_run_until_event_that_fails():
    sim = Simulator()

    def failer():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    p = sim.process(failer())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=p)


def test_zero_capacity_timeout_chain_is_fifo():
    """Many zero-delay timeouts at one instant preserve creation order."""
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(0.0)
        yield sim.timeout(0.0)
        order.append(tag)

    for tag in range(20):
        sim.process(proc(tag))
    sim.run()
    assert order == list(range(20))
