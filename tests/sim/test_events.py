"""Tests for the all-of join and process lifecycle."""

import pytest

from repro.sim import Simulator


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done = []

    def waiter(events):
        result = yield sim.all_of(events)
        done.append((sim.now, result))

    timeouts = None

    def setup():
        nonlocal timeouts
        timeouts = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        yield from waiter(timeouts)

    sim.process(setup())
    sim.run()
    assert done == [(3.0, [1.0, 3.0, 2.0])]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    seen = []

    def proc():
        result = yield sim.all_of([])
        seen.append(result)

    sim.process(proc())
    sim.run()
    assert seen == [[]]


def test_all_of_value_lists_component_values():
    """The join's value is a plain list of the component values, in the
    order the events were given (not the order they fired)."""
    sim = Simulator()
    collected = []

    def proc():
        a = sim.timeout(2.0, value="A")
        b = sim.timeout(1.0, value="B")
        already = sim.event().succeed("C")
        yield sim.timeout(0.0)  # `already` is processed before the join
        collected.append((yield sim.all_of([a, b, already])))

    sim.process(proc())
    sim.run()
    assert collected == [["A", "B", "C"]]


def test_all_of_propagates_failure():
    sim = Simulator()
    caught = []

    def failer():
        yield sim.timeout(1.0)
        raise RuntimeError("stage died")

    def joiner(p):
        try:
            yield sim.all_of([p, sim.timeout(10.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    p = sim.process(failer())
    sim.process(joiner(p))
    sim.run()
    assert caught == ["stage died"]


def test_mixing_simulators_rejected():
    sim1, sim2 = Simulator(), Simulator()
    ev2 = sim2.event()
    with pytest.raises(ValueError):
        sim1.all_of([ev2])


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    p = sim.process(body())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_process_return_value_is_event_value():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        return {"frames": 400}

    p = sim.process(body())
    sim.run()
    assert p.value == {"frames": 400}


def test_process_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_repr_shows_name():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    p = sim.process(body(), name="blur-stage")
    assert "blur-stage" in repr(p)
