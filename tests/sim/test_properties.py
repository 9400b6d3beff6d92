"""Property-based tests of the DES kernel invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.filters import BlurFilter
from repro.sim import Resource, Simulator, Store
from repro.sim.events import AllOf, Event


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
def test_clock_is_monotone(delays):
    """The simulation clock never goes backwards, whatever the schedule."""
    sim = Simulator()
    observed = []

    def proc(d):
        yield sim.timeout(d)
        observed.append(sim.now)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30))
def test_all_processes_complete(delays):
    """run() with no horizon drains every process."""
    sim = Simulator()
    done = []

    def proc(i, d):
        yield sim.timeout(d)
        done.append(i)

    for i, d in enumerate(delays):
        sim.process(proc(i, d))
    sim.run()
    assert sorted(done) == list(range(len(delays)))


@given(
    st.integers(1, 5),
    st.lists(st.floats(0.1, 5.0), min_size=1, max_size=20),
)
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(capacity, holds):
    """At no instant do more than `capacity` processes hold the resource."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = 0

    def user(hold):
        nonlocal max_seen
        req = res.request()
        yield req
        max_seen = max(max_seen, res.count)
        yield sim.timeout(hold)
        res.release(req)

    for h in holds:
        sim.process(user(h))
    sim.run()
    assert max_seen <= capacity
    assert res.count == 0
    assert res.grants == len(holds)


@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 100), min_size=1, max_size=40),
)
@settings(max_examples=50)
def test_store_preserves_fifo_order_and_items(capacity, items):
    """Everything put into a bounded store comes out, in order."""
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == list(items)


@given(st.lists(st.floats(0.0, 20.0), min_size=2, max_size=20))
@settings(max_examples=50)
def test_determinism_same_schedule_same_trace(delays):
    """Two identical simulations produce identical event traces."""

    def run_once():
        sim = Simulator()
        trace = []

        def proc(i, d):
            yield sim.timeout(d)
            trace.append((i, sim.now))

        for i, d in enumerate(delays):
            sim.process(proc(i, d))
        sim.run()
        return trace

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# event-calendar ordering
# ---------------------------------------------------------------------------

#: a small grid of delays so Hypothesis generates plenty of exact ties
_DELAY_GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@given(st.lists(_DELAY_GRID, min_size=1, max_size=60))
def test_timeouts_fire_in_timestamp_then_fifo_order(delays):
    """Timeouts wake in (timestamp, insertion-order) order — including
    exact-tie timestamps, where FIFO insertion order must decide."""
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        t = sim.timeout(d, value=i)
        t.callbacks.append(lambda e: fired.append(e.value))
    sim.run()
    expected = [i for _, i in sorted(
        ((d, i) for i, d in enumerate(delays)), key=lambda pair: pair[0])]
    # sorted() is stable, so ties keep insertion order — the kernel must too.
    assert fired == expected


@given(st.lists(st.tuples(_DELAY_GRID, st.sampled_from([0, 1])),
                min_size=1, max_size=60))
def test_calendar_orders_by_time_priority_fifo(entries):
    """The full tie-break chain: timestamp, then priority (urgent events
    first), then insertion sequence."""
    sim = Simulator()
    fired = []
    for i, (delay, priority) in enumerate(entries):
        ev = Event(sim)
        ev._ok = True
        ev._value = i
        ev.callbacks.append(lambda e: fired.append(e._value))
        sim._schedule(ev, delay=delay, priority=priority)
    sim.run()
    expected = [i for _, _, i in sorted(
        (delay, priority, i) for i, (delay, priority) in enumerate(entries))]
    assert fired == expected


@given(st.lists(_DELAY_GRID, min_size=1, max_size=12))
def test_allof_fires_exactly_once(delays):
    """The all-of join triggers exactly once, at the last component."""
    sim = Simulator()
    events = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
    cond = AllOf(sim, events)
    fired = []
    cond.callbacks.append(lambda e: fired.append(sim.now))
    sim.run()
    assert len(fired) == 1, "composite event must be processed exactly once"
    assert fired[0] == max(delays)
    assert all(e.processed for e in events)
    assert cond.value == list(range(len(events)))


@given(st.lists(_DELAY_GRID, min_size=1, max_size=12),
       st.lists(_DELAY_GRID, min_size=1, max_size=12))
def test_nested_conditions_fire_exactly_once(first, second):
    """AllOf over two AllOf groups still fires exactly once."""
    sim = Simulator()
    a = AllOf(sim, [sim.timeout(d) for d in first])
    b = AllOf(sim, [sim.timeout(d) for d in second])
    cond = AllOf(sim, [a, b])
    count = []
    cond.callbacks.append(lambda e: count.append(sim.now))
    sim.run()
    assert len(count) == 1
    assert count[0] == max(max(first), max(second))


# ---------------------------------------------------------------------------
# BlurFilter properties (the fast path is fuzzed, not just spot-checked)
# ---------------------------------------------------------------------------

def _dyadic_image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Random image with exactly representable (k/256) float32 values."""
    return (rng.integers(0, 256, size=(h, w, 3)).astype(np.float32)
            / np.float32(256.0))


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_blur_constant_image_is_fixpoint(seed, h, w, radius):
    rng = np.random.default_rng(seed)
    level = np.float32(int(rng.integers(0, 256)) / 256.0)
    image = np.full((h, w, 3), level, dtype=np.float32)
    out = BlurFilter(radius=radius).apply(image)
    assert out.shape == image.shape and out.dtype == np.float32
    assert np.array_equal(out, image), "blur of a constant image must be exact"


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 16),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_blur_preserves_brightness_and_range(seed, h, w, radius):
    """The normalized box filter neither creates nor destroys light:
    every output pixel is a convex combination of inputs, and the global
    mean drifts only through edge re-normalization."""
    image = _dyadic_image(np.random.default_rng(seed), h, w)
    out = BlurFilter(radius=radius).apply(image)
    eps = 1e-6
    assert out.min() >= image.min() - eps
    assert out.max() <= image.max() + eps
    interior = max(h - 2 * radius, 0) * max(w - 2 * radius, 0)
    edge_fraction = 1.0 - interior / (h * w)
    bound = float(image.max() - image.min()) * edge_fraction + eps
    assert abs(float(out.mean()) - float(image.mean())) <= bound


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_blur_radius_covering_image_averages_everything(seed, h, w):
    """radius >= max(h, w): every window is the whole image, so the
    output is one flat level."""
    image = _dyadic_image(np.random.default_rng(seed), h, w)
    out = BlurFilter(radius=max(h, w)).apply(image)
    for c in range(3):
        assert np.all(out[:, :, c] == out[0, 0, c])


@given(st.integers(1, 20))
def test_run_until_time_stops_exactly(n):
    """run(until=t) leaves the clock at exactly t with work remaining."""
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker())
    sim.run(until=float(n) + 0.5)
    assert sim.now == float(n) + 0.5
