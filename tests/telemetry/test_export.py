"""Tests for the Chrome-trace exporter, counter dumps and top reports."""

import json

import pytest

from repro.telemetry import (
    CounterRegistry,
    Telemetry,
    chrome_trace,
    counters_dump,
    stage_busy_spans,
    top_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_counters,
)


def _sample_hub() -> Telemetry:
    tel = Telemetry()
    tel.span("stage", "blur[0]", "busy", 0.0, 1.5, frame=0)
    tel.span("stage", "blur[0]", "busy", 2.0, 3.0, frame=1)
    tel.span("mesh", "link 0,0->1,0", "xfer", 0.5, 0.75)
    tel.emit("dvfs", "set_frequency", 0.25, track="frequency", mhz=800)
    tel.sample("power", "scc_watts", 1.0, 48.0)
    return tel


def test_chrome_trace_structure():
    doc = chrome_trace(_sample_hub())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert validate_chrome_trace(doc) == []

    by_ph = {}
    for e in events:
        by_ph.setdefault(e["ph"], []).append(e)
    # One process per category, one thread per track, all labelled.
    proc_names = {e["args"]["name"] for e in by_ph["M"]
                  if e["name"] == "process_name"}
    thread_names = {e["args"]["name"] for e in by_ph["M"]
                    if e["name"] == "thread_name"}
    assert proc_names == {"stage", "mesh", "dvfs", "power"}
    assert {"blur[0]", "link 0,0->1,0"} <= thread_names

    spans = by_ph["X"]
    assert {s["name"] for s in spans} == {"busy", "xfer"}
    busy0 = min((s for s in spans if s["name"] == "busy"),
                key=lambda s: s["ts"])
    assert busy0["ts"] == pytest.approx(0.0)
    assert busy0["dur"] == pytest.approx(1.5e6)  # seconds -> microseconds
    assert busy0["args"] == {"frame": 0}

    (counter,) = by_ph["C"]
    assert counter["args"] == {"scc_watts": 48.0}
    (instant,) = by_ph["i"]
    assert instant["args"]["mhz"] == 800

    # Sorted by ts after the metadata prologue.
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts)


def test_validator_flags_problems():
    assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
    bad_keys = {"traceEvents": [{"ph": "X", "ts": 0.0}]}
    problems = validate_chrome_trace(bad_keys)
    assert len(problems) == 1 and "missing keys" in problems[0]
    backwards = {"traceEvents": [
        {"ph": "X", "ts": 5.0, "pid": 1, "tid": 1, "name": "a"},
        {"ph": "X", "ts": 2.0, "pid": 1, "tid": 1, "name": "b"},
    ]}
    problems = validate_chrome_trace(backwards)
    assert len(problems) == 1 and "backwards" in problems[0]


def test_stage_busy_spans_keeps_only_stage_busy():
    """The Gantt filter, written once: stage busy spans of a hub or of an
    event list, in stream order; idle/wait spans, other categories and
    instants are dropped."""
    tel = Telemetry()
    tel.span("stage", "blur[0]", "busy", 0.0, 1.0, frame=0)
    tel.span("stage", "blur[0]", "idle", 1.0, 2.0)
    tel.span("mesh", "link", "busy", 0.0, 1.0)
    tel.emit("stage", "busy", 0.5, track="blur[0]")
    tel.span("stage", "swap[0]", "busy", 1.0, 2.0)
    spans = stage_busy_spans(tel)
    assert [(e.track, e.t, e.end) for e in spans] == [
        ("blur[0]", 0.0, 1.0), ("swap[0]", 1.0, 2.0)]
    assert stage_busy_spans(tel.events) == spans


def test_write_chrome_trace(tmp_path):
    path = write_chrome_trace(tmp_path / "trace.json", _sample_hub())
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []


def test_counters_dump_json_and_csv():
    reg = CounterRegistry()
    reg.inc("mesh.bytes", 100.0)
    reg.set_gauge("power.scc_watts", 48.0)
    reg.observe("lat", 2.0)
    doc = json.loads(counters_dump(reg, "json"))
    assert doc["counters"]["mesh.bytes"] == 100.0
    assert doc["gauges"]["power.scc_watts"] == 48.0
    csv_text = counters_dump(reg, "csv")
    assert csv_text.splitlines()[0] == "name,kind,value"
    assert "mesh.bytes,counter,100.0" in csv_text
    assert "lat.count,histogram,1.0" in csv_text
    with pytest.raises(ValueError):
        counters_dump(reg, "xml")


def test_write_counters_picks_format_by_suffix(tmp_path):
    reg = CounterRegistry()
    reg.inc("a", 1.0)
    json_path = write_counters(tmp_path / "c.json", reg)
    assert json.loads(json_path.read_text())["counters"]["a"] == 1.0
    csv_path = write_counters(tmp_path / "c.csv", reg)
    assert csv_path.read_text().startswith("name,kind,value")


def test_top_report_sections():
    tel = Telemetry()
    tel.counters.inc("mesh.link.0,0->1,0.bytes", 3 * (1 << 20))
    tel.counters.inc("mesh.link.1,0->2,0.bytes", 1 << 20)
    tel.counters.inc("dram.mc0.bytes", 1 << 20)
    tel.counters.inc("dram.mc0.requests", 10)
    tel.counters.inc("stage.blur[0].busy_s", 5.0)
    tel.counters.inc("stage.blur[0].frames", 10)
    report = top_report(tel, top=3, horizon=10.0)
    assert "hottest mesh links" in report
    assert "0,0->1,0" in report and "75.0 %" in report
    assert "mc0" in report and "10 requests" in report
    assert "blur[0]" in report and "50.0 % util" in report


def test_top_report_top_zero_is_not_empty_placeholder():
    tel = Telemetry()
    tel.counters.inc("dram.mc0.bytes", 1.0)
    report = top_report(tel, top=0, horizon=1.0)
    # Rows truncated to zero, but traffic exists: no misleading
    # "(no controller traffic recorded)" placeholder.
    assert "no controller traffic" not in report


def test_top_report_empty_hub():
    report = top_report(Telemetry(), top=3)
    assert "no mesh traffic" in report
    assert "no controller traffic" in report
    assert "no stage activity" in report
