"""End-to-end telemetry: instrumented runs, counters, trace export."""

import pytest

from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry, chrome_trace, validate_chrome_trace


@pytest.fixture(scope="module")
def profiled_run():
    tel = Telemetry()
    runner = PipelineRunner(config="mcpc_renderer", pipelines=2, frames=10,
                            telemetry=tel)
    result = runner.run()
    return tel, runner, result


def test_run_populates_counter_families(profiled_run):
    tel, _, _ = profiled_run
    reg = tel.counters
    assert reg.match("mesh.link.*.bytes")
    assert reg.match("dram.mc*.bytes") and reg.match("dram.mc*.requests")
    assert reg.match("stage.*.busy_s") and reg.match("stage.*.frames")
    assert reg.value("rcce.messages") > 0
    assert reg.value("power.trace_points") > 0
    assert reg.value("mesh.bytes") > 0


def test_run_has_one_track_per_stage_and_link(profiled_run):
    tel, runner, _ = profiled_run
    stage_tracks = set(tel.tracks("stage"))
    # connect + 2x5 filters + transfer, one track each
    for expected in ("connect", "transfer", "blur[0]", "blur[1]",
                     "sepia[0]", "swap[1]"):
        assert expected in stage_tracks
    link_tracks = set(tel.tracks("mesh"))
    assert link_tracks  # every active link got a track
    assert all(t.startswith("link ") for t in link_tracks)
    assert len(tel.tracks("dram")) > 0


def test_run_trace_exports_and_validates(profiled_run):
    tel, _, _ = profiled_run
    doc = chrome_trace(tel)
    assert validate_chrome_trace(doc) == []
    assert len(doc["traceEvents"]) > len(tel.events)  # + metadata


def test_stage_counters_match_metrics(profiled_run):
    tel, runner, _ = profiled_run
    # Per-instance telemetry counters aggregate to the RunMetrics numbers.
    def total(suffix):
        # Not a glob: "[" opens a character class in fnmatch patterns.
        return sum(tel.counters.value(n) for n in tel.counters.names()
                   if n.startswith("stage.blur[") and n.endswith(suffix))

    assert total(".busy_s") == pytest.approx(
        runner.last_metrics.busy["blur"].total)
    assert total(".frames") == runner.last_metrics.busy["blur"].count


def test_default_run_collects_no_telemetry():
    runner = PipelineRunner(config="one_renderer", pipelines=1, frames=4)
    runner.run()
    tel = runner.last_telemetry
    assert tel.enabled is False
    assert tel.events == []
    assert len(tel.counters) == 0
    # ...but the metrics still flowed through the hub's sink.
    assert runner.last_metrics.busy["blur"].count == 4


def test_telemetry_does_not_change_simulated_time():
    base = PipelineRunner(config="one_renderer", pipelines=2, frames=8).run()
    instr = PipelineRunner(config="one_renderer", pipelines=2, frames=8,
                           telemetry=Telemetry()).run()
    assert instr.walkthrough_seconds == pytest.approx(
        base.walkthrough_seconds)
    assert instr.scc_energy_j == pytest.approx(base.scc_energy_j)


def test_hub_reuse_across_runs_detaches_sinks():
    tel = Telemetry()
    r1 = PipelineRunner(config="one_renderer", pipelines=1, frames=4,
                        telemetry=tel)
    r1.run()
    assert tel._sinks == []  # per-run sinks removed
    r2 = PipelineRunner(config="one_renderer", pipelines=1, frames=4,
                        telemetry=tel)
    r2.run()
    # The second run's metrics only saw its own 4 frames.
    assert r2.last_metrics.busy["blur"].count == 4
    # The hub accumulated both runs' events and counters.
    assert tel.counters.value("stage.blur[0].frames") == 8


def test_dvfs_changes_emit_events():
    tel = Telemetry()
    runner = PipelineRunner(config="one_renderer", pipelines=1, frames=4,
                            frequency_plan={"blur": 800.0}, telemetry=tel)
    runner.run()
    assert tel.counters.value("dvfs.changes") > 0
    names = {e.name for e in tel.events_in("dvfs")}
    assert "set_frequency" in names
    gauges = tel.counters.match("dvfs.tile*.mhz")
    assert any(g.value == 800.0 for g in gauges.values())
