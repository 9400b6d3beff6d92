"""Readers declare what they read, and the engines emit nothing else.

A sink's ``reads`` predicate tells the emitters what to produce; a sink
without one reads the stream a disabled hub always carried to its
sinks (:func:`~repro.telemetry.hub.sink_only_stream`).  None of this
may change what a reader computes: the progress heartbeats, the stage
spans an undeclared sink sees and the Gantt chart stay the same, and
no test here reads a wall clock (the heartbeat throttle is off).
"""

from collections import Counter

import pytest

from repro.engine import BatchedEngine
from repro.obsv import FrameProgressSink
from repro.pipeline import PipelineRunner
from repro.telemetry import MetricsSink, Telemetry
from repro.telemetry.hub import sink_only_stream

#: the spec the service workload POSTs, a multi-jump batched run and a
#: small event run
SERVICE = dict(config="mcpc_renderer", arrangement="ordered", pipelines=3,
               frames=50, engine="batched")
JUMPING = dict(config="n_renderers", arrangement="ordered", pipelines=5,
               frames=400, engine="batched")
EVENT = dict(config="one_renderer", arrangement="ordered", pipelines=2,
             frames=20, engine="event")
RUNS = {"service": SERVICE, "jumping": JUMPING, "event": EVENT}


class Counting:
    """Counts what the hub dispatches to it, reading what ``inner``
    declares (or, with ``reads=None``, declaring nothing)."""

    def __init__(self, inner, reads=None):
        self.inner = inner
        self.dispatched = 0
        if reads is not None:
            self.reads = reads

    def __call__(self, event):
        self.dispatched += 1
        self.inner(event)


def _run(spec, hub):
    runner = PipelineRunner(telemetry=hub, **spec)
    if spec["engine"] == "batched":
        engine = BatchedEngine(runner)
        engine.run()
        return engine
    runner.run()
    return None


def _heartbeats(spec, declared=True, enabled=False):
    beats = []
    sink = FrameProgressSink(beats.append, 0, "d", spec["frames"],
                             min_interval_s=0.0)
    hub = Telemetry(enabled=enabled)
    hub.add_sink(sink if declared else Counting(sink))
    _run(spec, hub)
    assert sink.frames_done == spec["frames"]
    return [(b.frames_done, b.period_s) for b in beats]


def test_service_spec_heartbeats_are_pinned():
    # no jump at 50 frames: a heartbeat every second frame
    assert _heartbeats(SERVICE) == [(f, 0.0) for f in range(2, 51, 2)]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_heartbeats_do_not_depend_on_the_declaration(run):
    spec = RUNS[run]
    declared = _heartbeats(spec)
    assert declared == _heartbeats(spec, declared=False)
    assert declared == _heartbeats(spec, declared=False, enabled=True)
    if run == "jumping":
        assert any(period > 0.0 for _, period in declared)


@pytest.mark.parametrize("run", ["service", "jumping"])
def test_progress_only_run_dispatches_a_span_per_frame_and_wave(run):
    spec = RUNS[run]
    sink = FrameProgressSink(lambda beat: None, 0, "d", spec["frames"],
                             min_interval_s=0.0)
    counting = Counting(sink, reads=FrameProgressSink.reads)
    hub = Telemetry(enabled=False)
    hub.add_sink(counting)
    engine = _run(spec, hub)
    waves = len(engine.jumps)
    assert counting.dispatched <= spec["frames"] + waves
    # the live frames' completion spans and one instant per wave
    assert counting.dispatched == engine.frames_simulated + waves
    if run == "jumping":
        assert waves > 0


def _key(event):
    return (event.kind, event.category, event.name, event.track,
            float(event.t).hex(), float(event.dur).hex(),
            tuple(sorted(event.fields.items())))


@pytest.mark.parametrize("run", sorted(RUNS))
def test_undeclared_sink_gets_the_sink_only_stream(run):
    spec = RUNS[run]
    seen = []
    hub = Telemetry(enabled=False)
    hub.add_sink(seen.append)
    _run(spec, hub)
    # everything a full hub dispatches, of which the sink-only stream is
    # the stage busy/idle spans and the engine instants
    everything = []
    full = Telemetry()
    full.add_sink(everything.append)
    _run(spec, full)
    assert {e.category for e in seen} <= {"stage", "engine"}
    assert Counter(map(_key, seen)) == Counter(
        _key(e) for e in everything
        if sink_only_stream(e.category, e.name, e.track))
    assert any(e.name == "idle" for e in seen)


def test_event_run_keeps_feeding_run_metrics_to_a_declared_hub():
    # the event engine's RunMetrics come through its MetricsSink, which
    # reads the stage busy/idle spans on every track
    plain = PipelineRunner(**EVENT).run()
    hub = Telemetry(enabled=False)
    hub.add_sink(Counting(lambda event: None,
                          reads=FrameProgressSink.reads))
    assert PipelineRunner(telemetry=hub, **EVENT).run() == plain
    assert MetricsSink.reads("stage", "idle", "blur[0]")
    assert not MetricsSink.reads("stage", "wait", "blur[0]")
