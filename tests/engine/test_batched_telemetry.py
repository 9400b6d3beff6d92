"""Differential suite for the batched engine's synthesized telemetry.

The contract (docs/observability.md, "Observing the batched engine"):

* **pre-jump streams are bit-exact** — before any frame-wave jump the
  coarse scheduler walks the same grant/hold floats as the event
  kernel, so the synthesized stream must equal the event engine's
  event for event, field for field (and so must the Chrome-trace
  export built from it);
* **post-jump analysis is tolerance-clean** — the jump replicates one
  captured period at offsets ``k*delta``, which costs a last-ulp float
  drift; per-stage attribution, critical path and bottleneck verdicts
  must agree within the committed ``metrics-tolerances.json``, and the
  Fig. 9/10/11 paper findings must hold on the batched path;
* **the synthesized trace is structurally valid** — the repo's
  ``scripts/validate_trace.py`` gate (monotone counters, per-core
  non-overlapping stage slices, required track families) passes on a
  trace the batched engine produced;
* **counters match across the matrix** — a Hypothesis sweep over
  config x pipelines x frames keeps every counter glued to the event
  engine's (exactly for counts, to float tolerance where a jump
  advances a seconds-accumulator in closed form).
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (Tolerances, analyze_telemetry, diff_snapshots,
                            snapshot_from_result)
from repro.pipeline import PipelineRunner
from repro.telemetry import (Telemetry, chrome_trace, render_gantt,
                             stage_busy_spans, write_chrome_trace)
from repro.telemetry.export import write_counters

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TOLERANCES = Tolerances.load(REPO_ROOT / "metrics-tolerances.json")

#: the paper's bottleneck-analysis scenarios (Figs. 9/10/11): expected
#: deep-verdict stage per configuration
FIG_SCENARIOS = [
    ("one_renderer", 4, "render"),
    ("n_renderers", 3, "render"),
    ("mcpc_renderer", 5, "connect"),
]


#: DVFS plans of the pre-jump checks: their ``dvfs`` and ``power``
#: events come from the batched engine's own DVFS and power models
PLANS = pytest.mark.parametrize(
    "plan", [None, {"blur": 800}, {"sepia": 400.0}],
    ids=["no-plan", "blur800", "sepia400"])


def _run(engine, config, pipelines, frames, plan=None):
    telemetry = Telemetry(enabled=True)
    runner = PipelineRunner(config=config, pipelines=pipelines,
                            frames=frames, telemetry=telemetry,
                            frequency_plan=plan, engine=engine)
    result = runner.run()
    return telemetry, result


def _key(event):
    """Order-free identity of one telemetry event."""
    return (event.kind, event.category, event.track, event.name,
            event.t, event.dur, event.value,
            tuple(sorted(event.fields.items())))


def _counters(telemetry):
    return dict(telemetry.counters.snapshot()["counters"])


# -- pre-jump region: bit-exact -----------------------------------------------

@PLANS
def test_pre_jump_stream_bit_exact(plan):
    """8 frames on mcpc_renderer stays pre-steady-state: the synthesized
    stream must equal the event engine's exactly, not approximately."""
    tel_event, res_event = _run("event", "mcpc_renderer", 3, 8, plan)
    tel_batched, res_batched = _run("batched", "mcpc_renderer", 3, 8, plan)
    assert res_batched.walkthrough_seconds == res_event.walkthrough_seconds
    events = sorted(_key(e) for e in tel_event.events)
    synthesized = sorted(_key(e) for e in tel_batched.events)
    assert len(events) == len(synthesized)
    assert events == synthesized
    assert _counters(tel_batched) == _counters(tel_event)


def _canonical_trace(doc):
    """The trace with pid/tid resolved to their metadata names.

    Numeric pid/tid values follow hub emission order, which is not part
    of the contract — the (category, track) names they map to are.
    """
    processes = {}
    threads = {}
    for e in doc["traceEvents"]:
        if e.get("ph") != "M":
            continue
        if e["name"] == "process_name":
            processes[e["pid"]] = e["args"]["name"]
        else:
            threads[(e["pid"], e["tid"])] = e["args"]["name"]
    canon = []
    for e in doc["traceEvents"]:
        if e.get("ph") == "M":
            continue
        named = dict(e)
        named["pid"] = processes[e["pid"]]
        named["tid"] = threads.get((e["pid"], e["tid"]), 0)
        canon.append(json.dumps(named, sort_keys=True))
    return sorted(canon)


@PLANS
def test_pre_jump_chrome_trace_bit_exact(plan):
    """The Chrome-trace export of the synthesized stream carries the
    identical span set (serialized floats and fields included)."""
    tel_event, _ = _run("event", "mcpc_renderer", 3, 8, plan)
    tel_batched, _ = _run("batched", "mcpc_renderer", 3, 8, plan)
    assert (_canonical_trace(chrome_trace(tel_batched))
            == _canonical_trace(chrome_trace(tel_event)))


# -- Fig. 9/10/11: attribution within committed tolerances --------------------

@pytest.mark.parametrize("config,pipelines,expected_stage", FIG_SCENARIOS)
def test_attribution_matches_within_tolerances(config, pipelines,
                                               expected_stage):
    """50 frames reaches steady state on the mcpc scenario, so this
    exercises the O(1) jump aggregation, not just the coarse scheduler.
    The metric snapshots (attr.* / critpath.* / verdict labels) must
    diff clean under the committed tolerances."""
    frames = 50
    tel_event, res_event = _run("event", config, pipelines, frames)
    tel_batched, res_batched = _run("batched", config, pipelines, frames)
    insight_event = analyze_telemetry(tel_event, res_event)
    insight_batched = analyze_telemetry(tel_batched, res_batched)

    snap_event = snapshot_from_result(res_event, insight=insight_event)
    snap_batched = snapshot_from_result(res_batched,
                                        insight=insight_batched)
    diff = diff_snapshots(snap_event, snap_batched, TOLERANCES)
    assert diff.ok, diff.format_text(verbose=True)

    # the paper findings hold on the batched path
    assert insight_batched.verdict.stage == expected_stage
    assert insight_batched.verdict.stage == insight_event.verdict.stage
    assert insight_batched.verdict.resource == insight_event.verdict.resource
    fv = insight_batched.filter_verdict()
    assert fv is not None and fv.stage == insight_event.filter_verdict().stage
    assert insight_batched.makespan == pytest.approx(
        insight_event.makespan, rel=1e-9)


# -- structural validity: the committed trace gate ----------------------------

def test_validate_trace_clean_on_synthesized_trace(tmp_path):
    """scripts/validate_trace.py (the CI profile gate) accepts a trace
    plus counters dump produced entirely by telemetry synthesis."""
    telemetry, _ = _run("batched", "mcpc_renderer", 5, 50)
    trace = write_chrome_trace(tmp_path / "batched.json", telemetry)
    counters = write_counters(tmp_path / "counters.json",
                              telemetry.counters)
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "validate_trace.py"),
         str(trace), str(counters)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- Gantt fidelity -----------------------------------------------------------

def test_trace_only_run_matches_event_gantt():
    """The stage busy spans the Gantt chart draws (``repro run --gantt``)
    are the same on both engines, and so is the chart."""
    spans = {}
    for engine in ("event", "batched"):
        telemetry = Telemetry()
        PipelineRunner(config="mcpc_renderer", pipelines=3, frames=12,
                       telemetry=telemetry, engine=engine).run()
        spans[engine] = stage_busy_spans(telemetry)
    key = lambda events: sorted(  # noqa: E731 - local one-liner
        (e.track, e.name, e.t, e.end) for e in events)
    assert key(spans["batched"]) == key(spans["event"])
    assert render_gantt(spans["batched"]) == render_gantt(spans["event"])


# -- Hypothesis: counters glued across the matrix -----------------------------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    config=st.sampled_from(["one_renderer", "n_renderers",
                            "mcpc_renderer", "single_core"]),
    pipelines=st.integers(min_value=1, max_value=4),
    frames=st.integers(min_value=1, max_value=24),
)
def test_hypothesis_counters_match(config, pipelines, frames):
    """Counts are exact; seconds-counters may carry the one-ulp-per-jump
    closed-form drift, never more."""
    tel_event, _ = _run("event", config, pipelines, frames)
    tel_batched, _ = _run("batched", config, pipelines, frames)
    event_counters = _counters(tel_event)
    batched_counters = _counters(tel_batched)
    assert set(batched_counters) == set(event_counters)
    for name, expected in event_counters.items():
        actual = batched_counters[name]
        if float(expected).is_integer() and float(actual).is_integer():
            assert actual == expected, name
        else:
            assert math.isclose(actual, expected,
                                rel_tol=1e-9, abs_tol=1e-12), (
                name, expected, actual)
