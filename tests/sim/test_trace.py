"""Tests for the ASCII Gantt chart drawn from the hub's stage spans."""

import pytest

from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry, render_gantt, stage_busy_spans


def _hub(*spans):
    """A hub holding one stage busy span per ``(track, t0, t1)``."""
    tel = Telemetry()
    for track, t0, t1 in spans:
        tel.span("stage", track, "busy", t0, t1)
    return tel


def test_render_gantt_basic():
    tel = _hub(("blur", 0.0, 5.0), ("swap", 5.0, 10.0))
    art = render_gantt(tel, width=10, t1=10.0)
    lines = art.splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("bbbbb.....")
    assert lines[2].endswith(".....bbbbb")


def test_render_gantt_overlapping_spans_keep_open_span_visible():
    # Regression: a short span starting later than a long still-open one
    # used to hide the long span for the rest of the row (the bisect
    # picked the latest-started span even after it had ended).
    tel = _hub(("t", 0.0, 10.0), ("t", 2.0, 3.0))
    art = render_gantt(tel, width=10, t1=10.0)
    row = art.splitlines()[1].split()[-1]
    assert row == "bbbbbbbbbb"


def test_render_gantt_gap_after_short_span_still_idle():
    tel = _hub(("t", 0.0, 2.0), ("t", 4.0, 6.0))
    art = render_gantt(tel, width=10, t1=10.0)
    row = art.splitlines()[1].split()[-1]
    assert row == "bb..bb...."


def test_render_gantt_validation():
    tel = Telemetry()
    with pytest.raises(ValueError):
        render_gantt(tel, width=4)
    with pytest.raises(ValueError):
        render_gantt(tel, t1=1.0)  # nothing to render
    tel.span("stage", "t", "idle", 0.0, 1.0)
    with pytest.raises(ValueError):
        render_gantt(tel, t1=1.0)  # idle spans are not drawn
    tel.span("stage", "t", "busy", 0.0, 1.0)
    with pytest.raises(ValueError):
        render_gantt(tel, t0=1.0, t1=1.0)


def test_render_gantt_track_selection():
    tel = _hub(("a", 0.0, 1.0), ("b", 0.0, 1.0))
    art = render_gantt(tel.events, width=8, tracks=["b"])
    assert "a" not in art.splitlines()[1]
    assert art.splitlines()[1].startswith("b")


def test_pipeline_runner_records_trace():
    tel = Telemetry()
    PipelineRunner(config="one_renderer", pipelines=2, frames=8,
                   telemetry=tel).run()
    spans = stage_busy_spans(tel)
    tracks = list(dict.fromkeys(s.track for s in spans))
    assert "render" in tracks
    assert "blur[0]" in tracks and "blur[1]" in tracks

    def busy(track):
        return sum(s.dur for s in spans if s.track == track)

    # Blur dominates its pipeline's time; scratch mostly idles.
    assert busy("blur[0]") > 3 * busy("scratch[0]")


def test_runner_without_trace_has_none():
    runner = PipelineRunner(config="one_renderer", pipelines=1, frames=4)
    runner.run()
    assert not runner.last_telemetry.enabled
    assert stage_busy_spans(runner.last_telemetry) == []
