"""Windowed frame-wave jumps: many short jumps per run, still exact.

The walkthrough's culling costs are piecewise constant, so a 400-frame
run locks and jumps many times — each jump ending just before the next
cost change the schedule could feel — or, where the transfer period
alternates, locks a multi-frame super-period.  Every such run must
still match the event engine at the precision the engines actually
achieve (1e-9 relative here, on every RunResult field), not merely
inside the 2-5 % model-regression bands of metrics-tolerances.json.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import BatchedEngine
from repro.engine.batched import admissible_prefix
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry

FRAMES = 400
REL = 1e-9

#: (config, arrangement, pipelines): renderer-bound, strip-renderer,
#: blocked-renderer, super-period and single-core runs
POINTS = [
    ("one_renderer", "ordered", 5),
    ("n_renderers", "ordered", 5),
    ("one_renderer", "unordered", 3),
    ("mcpc_renderer", "ordered", 6),
    ("single_core", "ordered", 1),
]


def _assert_close(name, expected, actual):
    """Recursive field comparison: exact for ints/strings, REL for floats."""
    if isinstance(expected, dict):
        assert expected.keys() == actual.keys(), name
        for key in expected:
            _assert_close(f"{name}.{key}", expected[key], actual[key])
    elif isinstance(expected, (list, tuple)):
        assert len(expected) == len(actual), name
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_close(f"{name}[{i}]", e, a)
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=REL, abs_tol=1e-15), (
            name, expected, actual)
    else:
        assert actual == expected, (name, expected, actual)


@pytest.mark.parametrize("config,arrangement,pipelines", POINTS)
def test_multi_jump_matches_event_engine(config, arrangement, pipelines):
    kwargs = dict(config=config, arrangement=arrangement,
                  pipelines=pipelines, frames=FRAMES)
    event_runner = PipelineRunner(engine="event", **kwargs)
    event_result = event_runner.run()
    engine = BatchedEngine(PipelineRunner(engine="batched", **kwargs))
    batched_result = engine.run()

    assert len(engine.jumps) > 1 or max(engine.strides) > 1, engine.jumps
    assert len(engine.strides) == len(engine.jumps)
    skipped = sum(j for _, j, _ in engine.jumps)
    assert engine.frames_simulated + skipped == FRAMES
    for field in dataclasses.fields(event_result):
        _assert_close(field.name, getattr(event_result, field.name),
                      getattr(batched_result, field.name))
    # every frame's birth and completion, not just their quartiles: a
    # short jump lands with frames in flight whose births predate it
    expected, actual = event_runner.last_metrics, engine.runner.last_metrics
    _assert_close("frame_birth", expected.frame_birth, actual.frame_birth)
    _assert_close("frame_completions", expected.frame_completions,
                  actual.frame_completions)


def test_super_period_locks_alternating_transfer():
    """mcpc_renderer at 6 pipelines never settles on one period Δ: its
    transfer period alternates between two floats.  A k-frame
    super-period lock must catch it and skip most of the walkthrough."""
    engine = BatchedEngine(PipelineRunner(config="mcpc_renderer",
                                          pipelines=6, frames=FRAMES))
    engine.run()
    assert engine.strides and min(engine.strides) > 1
    assert engine.frames_simulated < FRAMES // 4


# -- the admissibility rule --------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=1, max_value=4),
       pattern=st.lists(st.floats(min_value=1e-3, max_value=0.5),
                        min_size=4, max_size=4),
       count=st.integers(min_value=1, max_value=60),
       blocked=st.booleans(),
       data=st.data())
def test_admissible_prefix_stops_before_spike(k, pattern, count, blocked,
                                              data):
    """A cost just outside what the lock can absorb ends the prefix.

    Unblocked, that is any cost one ulp off the locked k-frame pattern;
    blocked, any cost one ulp above the observed window (the frames
    before it may vary freely inside the window).
    """
    spike = data.draw(st.integers(min_value=0, max_value=count - 1))
    costs = [pattern[i % k] for i in range(k + count)]
    window = None
    if blocked:
        window = max(pattern[:k]) * 1.5
        for i in range(spike):
            costs[k + i] = data.draw(st.floats(min_value=0.0,
                                               max_value=window))
        costs[k + spike] = float(np.nextafter(window, np.inf))
    else:
        costs[k + spike] = float(np.nextafter(costs[k + spike], np.inf))
    assert admissible_prefix(np.array(costs), k, count, k, window) == spike


def test_admissible_prefix_runs_to_the_end_of_a_constant_stretch():
    costs = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 3.0])
    assert admissible_prefix(costs, 2, 10, 1) == 3
    # a blocking window that absorbs the 3.0 spike lets the jump run on
    assert admissible_prefix(costs, 2, 10, 1, window=3.0) == 4


# -- the wave instants: the one event only the batched stream carries --------

def _telemetry_run(engine, **kwargs):
    telemetry = Telemetry(enabled=True)
    runner = PipelineRunner(engine=engine, telemetry=telemetry, **kwargs)
    if engine == "event":
        runner.run()
        return telemetry, None
    batched = BatchedEngine(runner)
    batched.run()
    return telemetry, batched


def _split(event):
    """(discrete identity, float parts) of one telemetry event."""
    fields = sorted(event.fields.items())
    discrete = tuple((k, v) for k, v in fields if not isinstance(v, float))
    floats = [event.t, event.dur or 0.0, event.value or 0.0]
    floats += [v for _, v in fields if isinstance(v, float)]
    return ((event.kind, event.category, event.track or "", event.name,
             discrete), floats)


@pytest.mark.parametrize("config,arrangement,pipelines,frames", [
    ("mcpc_renderer", "ordered", 5, 50),
    ("one_renderer", "ordered", 5, FRAMES),
    # a 5-frame super-period: replicas advance frame fields by 5
    ("mcpc_renderer", "flipped", 6, FRAMES),
])
def test_wave_instants_are_the_only_extra_events(config, arrangement,
                                                 pipelines, frames):
    """Each jump emits one ``engine``/``wave`` instant for live progress
    sinks; the event engine has no jumps and so no such instant.  With
    the ``engine`` category set aside the two streams agree event for
    event (times within the jumps' last-ulp drift)."""
    kwargs = dict(config=config, arrangement=arrangement,
                  pipelines=pipelines, frames=frames)
    tel_event, _ = _telemetry_run("event", **kwargs)
    tel_batched, engine = _telemetry_run("batched", **kwargs)
    assert engine.jumps
    waves = [e for e in tel_batched.events if e.category == "engine"]
    assert [e.name for e in waves] == ["wave"] * len(engine.jumps)
    assert sum(e.fields["frames"] for e in waves) == sum(
        j for _, j, _ in engine.jumps)
    assert not [e for e in tel_event.events if e.category == "engine"]

    expected = sorted(_split(e) for e in tel_event.events)
    actual = sorted(_split(e) for e in tel_batched.events
                    if e.category != "engine")
    assert len(actual) == len(expected)
    for (key_e, floats_e), (key_a, floats_a) in zip(expected, actual):
        assert key_a == key_e
        for x, y in zip(floats_e, floats_a):
            assert math.isclose(y, x, rel_tol=REL, abs_tol=1e-12), (
                key_e, floats_e, floats_a)
