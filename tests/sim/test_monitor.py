"""Tests for the monitoring/statistics helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import StatAccumulator, TimeSeries, quantile


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


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-10**6, 10**6)), max_size=60),
       st.lists(st.floats(-1e3, 1e3), max_size=10))
def test_stat_accumulator_extend_is_bitwise_repeated_add(values, prefix):
    """``extend`` is ``add`` in a loop: samples, sum and sum of squares
    agree bit for bit, also on top of earlier samples."""
    one, many = StatAccumulator(), StatAccumulator()
    for v in prefix:
        one.add(v)
        many.add(v)
    for v in values:
        one.add(v)
    many.extend(iter(values))
    assert [x.hex() for x in many._samples] == [x.hex() for x in one._samples]
    assert all(type(x) is float for x in many._samples)
    assert many.total.hex() == one.total.hex()
    assert many._sum_sq.hex() == one._sum_sq.hex()


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
