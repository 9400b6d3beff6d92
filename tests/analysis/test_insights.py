"""Property tests for the trace insight engine.

Three exactness invariants hold on every configuration:

* the critical path telescopes — its duration equals the makespan
  bit-for-bit whenever the walk reaches time zero;
* per-stage attribution is a *partition* of ``[0, makespan]`` — the
  intervals share boundary floats and the categories sum back to the
  wall time;
* the idle statistics rebuilt from spans are sample-identical to the
  ``RunMetrics`` accumulators.
"""

import json
import math

import pytest

from repro.analysis import (
    ATTRIBUTION_CATEGORIES,
    analyze_events,
    analyze_telemetry,
    verdict_from_result,
)
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry, chrome_trace, events_from_chrome

FRAMES = 16
CONFIGS = [
    ("single_core", 1),
    ("one_renderer", 4),
    ("n_renderers", 3),
    ("mcpc_renderer", 3),
]


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: c[0])
def run(request):
    config, pipelines = request.param
    telemetry = Telemetry()
    result = PipelineRunner(config=config, pipelines=pipelines,
                            frames=FRAMES, telemetry=telemetry).run()
    return config, telemetry, result, analyze_telemetry(telemetry, result)


# -- critical path ------------------------------------------------------------

def test_path_duration_equals_makespan_exactly(run):
    _, _, result, insight = run
    path = insight.critical_path
    assert insight.makespan == result.walkthrough_seconds
    assert path.origin == 0.0
    assert path.duration == insight.makespan  # bit-for-bit, not approx
    assert path.segments


def test_path_segments_telescope(run):
    """Chronological, gap-free, and anchored at both ends."""
    _, _, _, insight = run
    segments = insight.critical_path.segments
    assert segments[0].t0 == 0.0
    assert segments[-1].t1 == insight.makespan
    for a, b in zip(segments, segments[1:]):
        assert a.t1 == b.t0  # shared floats, never arithmetic
    for seg in segments:
        assert seg.kind in ("busy", "handoff", "wait", "startup")
        assert seg.t1 >= seg.t0


def test_path_composition_accounts_for_everything(run):
    _, _, _, insight = run
    by_kind = insight.critical_path.seconds_by_kind()
    total = sum(by_kind.values())
    assert total == pytest.approx(insight.makespan, abs=1e-9)


# -- attribution --------------------------------------------------------------

def test_attribution_partitions_wall_time(run):
    _, _, _, insight = run
    for track, att in insight.tracks.items():
        assert att.wall_s == insight.makespan
        intervals = att.intervals
        assert intervals[0][0] == 0.0, track
        assert intervals[-1][1] == insight.makespan, track
        for (_, a1, _), (b0, _, _) in zip(intervals, intervals[1:]):
            assert a1 == b0, track  # the identical float boundary
        for t0, t1, label in intervals:
            assert t1 >= t0
            assert label in ATTRIBUTION_CATEGORIES, (track, label)
        assert att.total() == pytest.approx(insight.makespan, abs=1e-9)


def test_attribution_categories_sum_back(run):
    _, _, _, insight = run
    for track, att in insight.tracks.items():
        assert set(att.seconds) <= set(ATTRIBUTION_CATEGORIES)
        assert math.fsum(att.seconds.values()) \
            == pytest.approx(insight.makespan, abs=1e-9), track
        assert 0.0 <= att.busy_s <= insight.makespan + 1e-9


def test_kind_utilization_bounded(run):
    _, _, _, insight = run
    for kind, util in insight.kind_utilization.items():
        assert 0.0 < util <= 1.0 + 1e-9, kind


# -- idle statistics agree with RunMetrics ------------------------------------

def test_idle_quartiles_identical_to_run_metrics(run):
    _, _, result, insight = run
    rebuilt = insight.idle_quartiles()
    assert set(rebuilt) == set(result.idle_quartiles)
    for kind, quartiles in result.idle_quartiles.items():
        assert rebuilt[kind] == tuple(quartiles), kind


# -- verdicts -----------------------------------------------------------------

def test_verdict_well_formed(run):
    _, _, result, insight = run
    for verdict in (insight.verdict, verdict_from_result(result)):
        assert verdict.stage in insight.kind_utilization
        assert 0.0 <= verdict.confidence <= 1.0
        assert 0.0 < verdict.utilization <= 1.0 + 1e-9
        assert verdict.resource in ("core", "memory-controller", "mesh",
                                    "downstream")


def test_config_specific_verdicts(run):
    config, _, result, insight = run
    if config == "single_core":
        assert insight.verdict.stage == "single-core"
        assert insight.filter_verdict() is None
    elif config == "one_renderer":
        assert insight.verdict.stage == "render"
        assert verdict_from_result(result).stage == "render"
    if config != "single_core":
        fv = insight.filter_verdict()
        assert fv is not None
        assert fv.stage in ("sepia", "blur", "scratch", "flicker", "swap")


# -- upstream-cause attribution -----------------------------------------------

def test_upstream_chain_and_starvation_causes(run):
    config, _, _, insight = run
    if config == "single_core":
        pytest.skip("no pipeline chain on a single core")
    pipelines = max(int(t.split("[")[1][:-1]) for t in insight.tracks
                    if t.startswith("blur[")) + 1
    for p in range(pipelines):
        assert insight.tracks[f"blur[{p}]"].upstream == f"sepia[{p}]"
        assert insight.tracks[f"scratch[{p}]"].upstream == f"blur[{p}]"
    for track, att in insight.tracks.items():
        starved = att.seconds.get("starved", 0.0)
        assert sum(att.starved_by.values()) \
            == pytest.approx(starved, abs=1e-9), track
        assert set(att.starved_by) <= {"upstream_working",
                                       "upstream_starved",
                                       "upstream_handoff", "source"}


# -- trace round-trip ---------------------------------------------------------

def test_chrome_trace_round_trip(run):
    """Analysis of a trace file agrees with in-process analysis, and the
    telescoping invariant survives the microsecond round-trip."""
    _, telemetry, _, insight = run
    doc = json.loads(json.dumps(chrome_trace(telemetry)))
    rebuilt = analyze_events(events_from_chrome(doc))
    assert rebuilt.critical_path.origin == 0.0
    assert rebuilt.critical_path.duration == rebuilt.makespan  # exact
    assert rebuilt.makespan == pytest.approx(insight.makespan, rel=1e-6)
    assert rebuilt.verdict.stage == insight.verdict.stage
    assert set(rebuilt.tracks) == set(insight.tracks)
    for track, att in rebuilt.tracks.items():
        assert att.total() == pytest.approx(rebuilt.makespan, abs=1e-9)


def test_to_dict_is_json_able(run):
    _, _, _, insight = run
    doc = json.loads(json.dumps(insight.to_dict()))
    assert doc["critical_path"]["duration_s"] == insight.makespan
    assert doc["verdict"]["stage"] == insight.verdict.stage
    assert insight.format_text()


# -- error paths --------------------------------------------------------------

def test_analyze_rejects_empty_stream():
    with pytest.raises(ValueError, match="no stage activity"):
        analyze_events([])


def test_analyze_rejects_mismatched_makespan(run):
    _, telemetry, _, insight = run
    with pytest.raises(ValueError, match="does not match"):
        analyze_events(telemetry.events, makespan=insight.makespan * 1.5)


def test_analyze_rejects_hub_without_events():
    with pytest.raises(ValueError, match="no stage activity"):
        analyze_telemetry(Telemetry())
