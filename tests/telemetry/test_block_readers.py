"""The readers of periodic blocks agree with the expanded stream.

``chrome_trace``, ``analyze_telemetry`` and ``stage_busy_spans`` read a
batched hub's periodic blocks in place; each must return exactly what
it returns for the fully expanded ``hub.events`` list.
"""

import dataclasses

import pytest

from repro.analysis import analyze_events, analyze_telemetry
from repro.engine import BatchedEngine
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry, chrome_trace, stage_busy_spans
from repro.telemetry.hub import Stretch

#: (config, arrangement, pipelines, frames) of a run whose hub holds
#: several one-frame blocks, and of one whose block spans three frames
MULTI_BLOCK = ("one_renderer", "flipped", 3, 150)
SUPER_PERIOD = ("mcpc_renderer", "unordered", 6, 60)


def _run(point):
    config, arrangement, pipelines, frames = point
    hub = Telemetry()
    engine = BatchedEngine(PipelineRunner(
        config=config, arrangement=arrangement, pipelines=pipelines,
        frames=frames, engine="batched", telemetry=hub))
    result = engine.run()
    return hub, engine, result


@pytest.fixture(scope="module", params=[MULTI_BLOCK, SUPER_PERIOD],
                ids=["multi-block", "stride-3"])
def batched_run(request):
    hub, engine, result = _run(request.param)
    blocks = [s for s in hub.stretches() if s.repeats]
    if request.param is MULTI_BLOCK:
        assert len(blocks) >= 2
    else:
        assert max(engine.strides) > 1
        assert max(s.stride for s in blocks) > 1
    return hub, result


def _fields(insight):
    out = {}
    for f in dataclasses.fields(insight):
        value = getattr(insight, f.name)
        if f.name == "idle_stats":
            value = {kind: vars(acc) for kind, acc in value.items()}
        out[f.name] = value
    return out


def test_chrome_trace_reads_blocks_in_place(batched_run):
    hub, _ = batched_run
    assert chrome_trace(hub) == chrome_trace(hub.events)


def test_analysis_reads_blocks_in_place(batched_run):
    hub, result = batched_run
    in_place = analyze_telemetry(hub, result)
    expanded = analyze_events(hub.events,
                              makespan=result.walkthrough_seconds)
    assert _fields(in_place) == _fields(expanded)


def test_stage_busy_spans_read_blocks_in_place(batched_run):
    hub, _ = batched_run
    assert stage_busy_spans(hub) == stage_busy_spans(hub.events)


def test_readers_build_no_replica_events(batched_run, monkeypatch):
    hub, result = batched_run
    expected_doc = chrome_trace(hub.events)
    expected = _fields(analyze_events(hub.events,
                                      makespan=result.walkthrough_seconds))

    def refuse(*args, **kwargs):
        raise AssertionError("a reader expanded the periodic blocks")

    monkeypatch.setattr(Telemetry, "_materialize", refuse)
    monkeypatch.setattr(Stretch, "expand", refuse)
    assert _fields(analyze_telemetry(hub, result)) == expected
    assert chrome_trace(hub) == expected_doc
