"""Unit tests for the event loop (`repro.sim.core`)."""

from heapq import heappush

import pytest

from repro.sim import (
    DeadlockError,
    Event,
    Simulator,
)


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_initial_time_can_be_set():
    assert Simulator(start_time=5.0).now == 5.0


def test_negative_start_time_rejected():
    with pytest.raises(ValueError):
        Simulator(start_time=-1.0)


def test_run_empty_calendar_returns_none():
    sim = Simulator()
    assert sim.run() is None
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(3.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [3.0]


def test_timeouts_process_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(2.0, "b"))
    sim.process(proc(1.0, "a"))
    sim.process(proc(3.0, "c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_timestamps_fifo_within_tick():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        sim.process(proc(tag))
    sim.run()
    assert order == list(range(10))


def test_zero_delay_timeout_is_legal():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [0.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-0.5)


def test_run_until_time_advances_clock_exactly():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run(until=4.5)
    assert sim.now == 4.5


def test_run_until_past_time_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 2.0


def test_run_until_never_triggered_event_deadlocks():
    sim = Simulator()
    ev = sim.event()

    def proc():
        yield sim.timeout(1.0)

    sim.process(proc())
    with pytest.raises(DeadlockError):
        sim.run(until=ev)


def test_run_until_already_processed_event():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc())
    sim.run()
    # Running again "until" the finished process returns its value directly.
    assert sim.run(until=p) == 42


def test_processed_event_pushed_back_raises():
    """A calendar entry for an event that was already processed (a stale
    reference re-queued) fails loudly instead of re-running callbacks."""
    sim = Simulator()
    stale = []

    def proc():
        stale.append(sim.timeout(1.0))
        yield stale[0]

    sim.process(proc())
    sim.run()
    assert stale[0].processed
    sim._seq += 1
    heappush(sim._queue, (sim.now + 0.5, 1, sim._seq, stale[0]))
    with pytest.raises(AssertionError, match="processed twice"):
        sim.run()


def test_past_calendar_entry_raises():
    """A calendar entry before the clock (a corrupted heap) stops the
    run instead of moving simulated time backwards."""
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0

    past = Event(sim)
    past._ok = True
    past._value = None
    sim._seq += 1
    heappush(sim._queue, (1.0, 1, sim._seq, past))
    with pytest.raises(AssertionError, match="moved backwards"):
        sim.run()
    assert sim.now == 5.0


def test_event_count_is_monotone():
    sim = Simulator()

    def proc():
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert sim.event_count >= 5


def test_unhandled_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(bad())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_exception_is_catchable_by_joining_process():
    sim = Simulator()
    caught = []

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def watcher(target):
        try:
            yield target
        except ValueError as exc:
            caught.append(str(exc))

    p = sim.process(bad())
    sim.process(watcher(p))
    sim.run()
    assert caught == ["boom"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def firer():
        yield sim.timeout(1.0)
        ev.succeed("payload")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_stop_from_callback_ends_run():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(1.0)
        log.append("first")
        sim.stop()
        log.append("unreachable")  # pragma: no cover

    def other():
        yield sim.timeout(2.0)
        log.append("second")  # pragma: no cover

    sim.process(proc())
    sim.process(other())
    sim.run()
    assert log == ["first"]


def test_repr_mentions_now():
    sim = Simulator()
    assert "now=0.0" in repr(sim)


def test_nested_subprocess_join():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 10

    def parent():
        value = yield sim.process(child())
        return value + 1

    p = sim.process(parent())
    assert sim.run(until=p) == 11


def test_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run()
