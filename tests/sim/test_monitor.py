"""Tests for the monitoring/statistics helpers."""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import StatAccumulator, TimeSeries, quantile, running_sum

from .monitor_oracle import ScalarAccumulator, scalar_integrate

#: sample values: ints, NaN, and finite floats whose sums or squares
#: overflow to inf
SAMPLES = st.one_of(st.floats(allow_infinity=False),
                    st.integers(-10**6, 10**6),
                    st.sampled_from([math.nan, 1e200, -1.7e308, 1.7e308]))


def _hex(x):
    return float(x).hex()


@contextmanager
def _silent():
    """Fail on any warning: Python float arithmetic warns on nothing,
    so neither may the bulk code that reproduces it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# ---------------------------------------------------------------------------
# quantile / StatAccumulator
# ---------------------------------------------------------------------------

def test_quantile_simple():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert quantile([1.0], 0.0) == 1.0
    assert quantile([1.0], 1.0) == 1.0


def test_quantile_extremes_hit_end_points():
    values = [3.0, 7.0, 9.0, 20.0]
    assert quantile(values, 0.0) == 3.0
    assert quantile(values, 1.0) == 20.0


def test_quantile_two_samples_interpolates():
    assert quantile([10.0, 20.0], 0.0) == 10.0
    assert quantile([10.0, 20.0], 0.25) == pytest.approx(12.5)
    assert quantile([10.0, 20.0], 0.5) == pytest.approx(15.0)
    assert quantile([10.0, 20.0], 1.0) == 20.0


def test_quantile_validation():
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
    with pytest.raises(ValueError):
        quantile([], 0.5)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
       st.floats(0.0, 1.0))
def test_quantile_matches_numpy(values, q):
    ours = quantile(sorted(values), q)
    theirs = float(np.quantile(np.array(values), q, method="linear"))
    assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)


def test_stat_accumulator_summary():
    acc = StatAccumulator("idle")
    acc.extend([1.0, 2.0, 3.0, 4.0])
    assert acc.count == 4
    assert acc.mean == pytest.approx(2.5)
    assert acc.min == 1.0 and acc.max == 4.0
    assert acc.total == pytest.approx(10.0)
    q1, med, q3 = acc.quartiles()
    assert med == pytest.approx(2.5)
    assert q1 == pytest.approx(1.75)
    assert q3 == pytest.approx(3.25)
    summary = acc.summary()
    assert summary["median"] == pytest.approx(2.5)


def test_stat_accumulator_empty_raises():
    acc = StatAccumulator()
    with pytest.raises(ValueError):
        _ = acc.mean
    with pytest.raises(ValueError):
        _ = acc.std


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=100))
def test_stat_accumulator_std_matches_numpy(values):
    acc = StatAccumulator()
    acc.extend(values)
    assert acc.std == pytest.approx(float(np.std(values)), abs=1e-6)


@given(st.lists(SAMPLES, max_size=60), st.lists(SAMPLES, max_size=10))
def test_stat_accumulator_extend_is_bitwise_repeated_add(values, prefix):
    """``extend`` is ``add`` in a loop: samples, sum and mean agree bit
    for bit with the scalar running sum, also on top of earlier
    samples, and the bulk sum warns no more than Python floats do."""
    oracle, many = ScalarAccumulator(), StatAccumulator()
    for v in prefix:
        oracle.add(v)
        many.add(v)
    for v in values:
        oracle.add(v)
    with _silent():
        many.extend(iter(values))
        total = many.total
    assert list(map(_hex, many._samples)) == list(map(_hex, oracle.samples))
    assert all(type(x) is float for x in many._samples)
    assert _hex(total) == _hex(oracle.sum)
    if oracle.samples:
        assert _hex(many.mean) == _hex(oracle.mean)


@given(st.lists(st.one_of(
    st.tuples(st.just("add"), SAMPLES),
    st.tuples(st.just("extend"), st.lists(SAMPLES, max_size=8)),
    st.tuples(st.just("read"), st.none())), max_size=30))
def test_stat_accumulator_interleaved_add_extend_matches_scalar(ops):
    """Reads between ``add`` and ``extend`` calls fold the sum part by
    part; every read equals the scalar running sum."""
    oracle, acc = ScalarAccumulator(), StatAccumulator()
    for op, arg in ops:
        if op == "add":
            oracle.add(arg)
            acc.add(arg)
        elif op == "extend":
            for v in arg:
                oracle.add(v)
            acc.extend(arg)
        else:
            with _silent():
                assert _hex(acc.total) == _hex(oracle.sum)
                if oracle.samples:
                    assert _hex(acc.mean) == _hex(oracle.mean)
    assert list(map(_hex, acc._samples)) == list(map(_hex, oracle.samples))
    with _silent():
        if oracle.samples:
            assert _hex(acc.mean) == _hex(oracle.mean)
        assert _hex(acc.total) == _hex(oracle.sum)


@given(st.floats(), st.lists(st.floats(), max_size=40))
def test_running_sum_adds_left_to_right(start, values):
    total = start
    for v in values:
        total += v
    with _silent():
        got = running_sum(start, np.array(values))
    assert _hex(got) == _hex(total)


def test_stat_accumulator_repr():
    acc = StatAccumulator("x")
    assert "empty" in repr(acc)
    acc.add(1.0)
    assert "n=1" in repr(acc)


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_timeseries_value_at_and_integrate():
    ts = TimeSeries("power", initial=22.0)
    ts.record(10.0, 50.0)
    ts.record(20.0, 22.0)
    assert ts.value_at(0.0) == 22.0
    assert ts.value_at(10.0) == 50.0
    assert ts.value_at(15.0) == 50.0
    assert ts.value_at(25.0) == 22.0
    # integral: 10*22 + 10*50 + tail
    assert ts.integrate(0.0, 20.0) == pytest.approx(220.0 + 500.0)
    assert ts.integrate(0.0, 30.0) == pytest.approx(220.0 + 500.0 + 220.0)
    assert ts.integrate(5.0, 15.0) == pytest.approx(5 * 22.0 + 5 * 50.0)


def test_timeseries_monotonicity_enforced():
    ts = TimeSeries()
    ts.record(5.0, 1.0)
    with pytest.raises(ValueError):
        ts.record(4.0, 2.0)


def test_timeseries_same_instant_overwrites():
    ts = TimeSeries(initial=0.0)
    ts.record(5.0, 1.0)
    ts.record(5.0, 2.0)
    assert ts.value_at(5.0) == 2.0
    assert len(ts.times) == 2


def test_timeseries_sample_grid():
    ts = TimeSeries(initial=1.0)
    ts.record(2.0, 3.0)
    samples = ts.sample(0.0, 4.0, 1.0)
    assert samples == [(0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (3.0, 3.0), (4.0, 3.0)]


def test_timeseries_integrate_zero_width():
    ts = TimeSeries(initial=5.0)
    assert ts.integrate(3.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        ts.integrate(3.0, 2.0)


@given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.0, 100.0)),
                min_size=1, max_size=20))
def test_timeseries_integral_additivity(steps):
    """∫[0,T] == ∫[0,m] + ∫[m,T] for any midpoint m."""
    ts = TimeSeries(initial=1.0)
    t = 0.0
    for dt, v in steps:
        t += dt
        ts.record(t, v)
    total = ts.integrate(0.0, t)
    mid = t / 2.0
    assert total == pytest.approx(
        ts.integrate(0.0, mid) + ts.integrate(mid, t), rel=1e-9, abs=1e-9
    )


#: a step between records: equal times, forward steps, and a step back
STEPS = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.just(-0.5))


@given(st.floats(-5.0, 5.0), st.lists(st.tuples(STEPS, st.floats(-1e3, 1e3)),
                                      max_size=30),
       st.booleans())
def test_timeseries_extend_is_repeated_record(initial, steps, at_zero):
    """``extend`` leaves the series ``record`` in a loop leaves, runs of
    equal times and records at t=0 included, and raises the same error
    at the same point on a non-monotone time."""
    times, values, t = [], [], 0.0
    if at_zero:
        times.append(0.0)
        values.append(initial + 1.0)
    for dt, v in steps:
        t += dt
        times.append(t)
        values.append(v)
    one, bulk = TimeSeries("p", initial), TimeSeries("p", initial)
    errors = []
    for series, fill in ((one, lambda s: [s.record(a, b)
                                          for a, b in zip(times, values)]),
                         (bulk, lambda s: s.extend(times, values))):
        try:
            with _silent():
                fill(series)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    assert errors[0] == errors[1]
    assert list(map(_hex, bulk.times)) == list(map(_hex, one.times))
    assert list(map(_hex, bulk.values)) == list(map(_hex, one.values))


def test_timeseries_extend_raises_after_the_good_prefix():
    ts = TimeSeries("p", initial=1.0)
    with pytest.raises(ValueError, match="non-monotone record at t=2.0 < 3.0"):
        ts.extend([0.0, 3.0, 3.0, 2.0, 5.0], [2.0, 4.0, 6.0, 8.0, 9.0])
    assert ts.times == [0.0, 3.0]
    assert ts.values == [2.0, 6.0]


@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-1e3, 1e3)),
                max_size=25),
       st.floats(0.0, 1.0), st.floats(0.0, 1.5))
def test_integrate_matches_scalar_walk(steps, lo, hi):
    """The array integral equals the segment walk bit for bit, from any
    t0 > 0 to a t1 inside the series or past its last point."""
    ts = TimeSeries(initial=3.0)
    t = 0.0
    for dt, v in steps:
        t += dt
        ts.record(t, v)
    end = ts.times[-1]
    t0 = lo * end
    for t1 in (max(t0, hi * end), end, end + 2.5, None):
        want = scalar_integrate(ts.times, ts.values, t0, t1)
        with _silent():
            got = ts.integrate(t0, t1)
        assert _hex(got) == _hex(want)
