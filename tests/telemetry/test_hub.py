"""Tests for the telemetry hub: emission, retention, sinks."""

import pytest

from repro.pipeline.metrics import RunMetrics
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsSink,
    Telemetry,
    TelemetryEvent,
)


def test_span_retained_with_fields():
    tel = Telemetry()
    tel.span("stage", "blur[0]", "busy", 1.0, 3.0, frame=7)
    (event,) = tel.events
    assert event.kind == "span"
    assert event.category == "stage"
    assert event.track == "blur[0]"
    assert event.t == 1.0 and event.dur == 2.0 and event.end == 3.0
    assert event.fields == {"frame": 7}


def test_span_rejects_negative_duration():
    tel = Telemetry()
    with pytest.raises(ValueError):
        tel.span("stage", "t", "busy", 2.0, 1.0)


def test_instant_and_sample_events():
    tel = Telemetry()
    tel.emit("dvfs", "set_frequency", 0.5, track="frequency", mhz=800)
    tel.sample("power", "scc_watts", 1.0, 48.5)
    kinds = [e.kind for e in tel.events]
    assert kinds == ["instant", "sample"]
    assert tel.events[0].fields["mhz"] == 800
    assert tel.events[1].value == pytest.approx(48.5)
    assert tel.events[1].track == "scc_watts"


def test_disabled_hub_retains_nothing():
    tel = Telemetry(enabled=False)
    tel.span("stage", "t", "busy", 0.0, 1.0)
    tel.emit("dvfs", "x", 0.0)
    tel.sample("power", "w", 0.0, 1.0)
    assert tel.events == []
    assert len(tel.counters) == 0


def test_sinks_observe_even_when_disabled():
    tel = Telemetry(enabled=False)
    seen = []
    tel.add_sink(seen.append)
    tel.span("stage", "t", "busy", 0.0, 1.0)
    assert len(seen) == 1
    assert tel.events == []  # retention still off


def test_remove_sink():
    tel = Telemetry()
    seen = []
    sink = tel.add_sink(seen.append)
    tel.remove_sink(sink)
    tel.remove_sink(sink)  # removing twice is a no-op
    tel.span("stage", "t", "busy", 0.0, 1.0)
    assert seen == []


def test_queries_tracks_horizon_clear():
    tel = Telemetry()
    tel.span("stage", "blur[0]", "busy", 0.0, 2.0)
    tel.span("stage", "swap[0]", "busy", 1.0, 4.0)
    tel.span("mesh", "link 0,0->1,0", "xfer", 0.0, 1.0)
    assert tel.tracks("stage") == ["blur[0]", "swap[0]"]
    assert "link 0,0->1,0" in tel.tracks()
    assert len(tel.events_in("mesh")) == 1
    assert tel.horizon == pytest.approx(4.0)
    tel.clear()
    assert tel.events == [] and tel.horizon == 0.0


@pytest.mark.parametrize("stride", [1, 3])
def test_periodic_block_replicas_advance_frames_by_stride(stride):
    """A block spanning ``stride`` frames (a super-period) repeats with
    its frame/tag fields advanced by ``stride`` per replica."""
    tel = Telemetry()
    tel.span("stage", "blur[0]", "busy", 0.0, 0.5, frame=4)
    tel.emit("rcce", "send", 0.25, tag=4, bytes=64)
    tel.add_periodic_block(0, 2, 2, 1.0, stride=stride)
    assert tel.event_count == 6
    assert [e.t for e in tel.events] == [0.0, 0.25, 1.0, 1.25, 2.0, 2.25]
    frames = [e.fields.get("frame", e.fields.get("tag")) for e in tel.events]
    assert frames == [4, 4, 4 + stride, 4 + stride,
                      4 + 2 * stride, 4 + 2 * stride]
    assert tel.events[3].fields["bytes"] == 64
    assert tel.horizon == pytest.approx(2.5)
    (stretch,) = tel.stretches()
    expected = _expand_by_hand(list(stretch.events), [(0, 2, 2, 1.0, stride)])
    assert list(stretch.expand()) == tel.events == expected


def _expand_by_hand(raw, blocks):
    """The replica rule spelled out: replica ``k`` of a block starts
    ``k * dt`` later, integer frame/tag fields ``k * stride`` higher."""
    out, cursor = [], 0
    for start, end, repeats, dt, stride in blocks:
        out.extend(raw[cursor:end])
        for k in range(1, repeats + 1):
            for e in raw[start:end]:
                fields = dict(e.fields)
                for key in ("frame", "tag"):
                    if isinstance(fields.get(key), int):
                        fields[key] += k * stride
                out.append(TelemetryEvent(e.kind, e.category, e.name,
                                          e.t + k * dt, dur=e.dur,
                                          track=e.track, value=e.value,
                                          fields=fields))
        cursor = end
    return out + raw[cursor:]


@pytest.mark.parametrize("stride", [1, 3])
def test_stretch_walk_expands_like_the_replica_rule(stride):
    """Plain stretches around two blocks: the walk yields each stretch
    once, and expanding it gives the stream the replica rule defines."""
    tel = Telemetry()
    tel.emit("stage", "bind", 0.0, track="blur[0]", core=3)
    tel.span("stage", "blur[0]", "busy", 0.1, 0.5, frame=4)
    tel.emit("rcce", "send", 0.25, tag=4, bytes=64)
    tel.sample("power", "scc_watts", 0.3, 48.0)
    tel.span("mesh", "link 0,0->1,0", "xfer", 2.1, 2.2, bytes=8)
    tel.add_periodic_block(1, 4, 2, 0.7, stride=stride)
    tel.span("stage", "blur[0]", "busy", 2.3, 2.4, frame=9)
    tel.add_periodic_block(4, 6, 3, 0.3, stride=stride)
    tel.span("stage", "blur[0]", "idle", 3.5, 3.6)
    blocks = [(1, 4, 2, 0.7, stride), (4, 6, 3, 0.3, stride)]
    stretches = list(tel.stretches())
    assert [(len(s.events), s.repeats) for s in stretches] == \
        [(1, 0), (3, 2), (2, 3), (1, 0)]
    raw = [e for s in stretches for e in s.events]
    expected = _expand_by_hand(raw, blocks)
    assert [e for s in stretches for e in s.expand()] == expected
    assert tel.events == expected
    assert tel.event_count == len(expected) == 7 + 3 * 2 + 2 * 3


def test_metrics_sink_translates_stage_spans():
    tel = Telemetry()
    metrics = RunMetrics()
    tel.add_sink(MetricsSink(metrics))
    tel.span("stage", "blur[2]", "busy", 0.0, 1.5)
    tel.span("stage", "blur[2]", "idle", 1.5, 2.0)
    tel.span("mesh", "link", "xfer", 0.0, 1.0)  # ignored by the sink
    assert metrics.busy["blur"].count == 1
    assert metrics.busy["blur"].total == pytest.approx(1.5)
    assert metrics.idle["blur"].total == pytest.approx(0.5)
    assert "link" not in metrics.busy


def test_null_telemetry_is_disabled():
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.span("stage", "t", "busy", 0.0, 1.0)
    assert NULL_TELEMETRY.events == []
