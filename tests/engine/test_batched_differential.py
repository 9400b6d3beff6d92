"""Differential suite: the batched engine vs the event engine.

Two layers of the contract from docs/performance.md:

* **timing mode is tolerance-clean** — the same scenario matrix at 20
  frames exercises the coarse scheduler and (where the run turns
  periodic) the frame-wave jump; ``diff_snapshots`` under the committed
  ``metrics-tolerances.json`` must report zero regressions;
* **a Hypothesis sweep** over frames x pipelines x DVFS plans keeps the
  two engines glued together on configurations nobody hand-picked.
"""

import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import Tolerances, diff_snapshots, snapshot_from_result
from repro.engine import BatchedEngine
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry

from tests.golden.harness import (FRAMES, IMAGE_SIDE, PIPELINES, SCENARIOS,
                                  SEED, _workload)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TOLERANCES = Tolerances.from_dict(
    json.loads((REPO_ROOT / "metrics-tolerances.json").read_text()))


def _runner(scenario: str, *, engine: str,
            frames: int = FRAMES) -> PipelineRunner:
    spec = SCENARIOS[scenario]
    return PipelineRunner(
        config=spec["config"],
        pipelines=PIPELINES,
        arrangement=spec["arrangement"],
        frames=frames,
        image_side=IMAGE_SIDE,
        workload=_workload(frames, IMAGE_SIDE),
        seed=SEED,
        frequency_plan=spec.get("frequency_plan"),
        engine=engine,
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_scenarios_timing_mode_within_tolerances(scenario):
    """Timing mode takes the batched path; diff must be clean.

    20 frames is enough for the mcpc scenarios to reach steady state, so
    this exercises the frame-wave jump, not just the coarse scheduler.
    """
    frames = 20
    batched = _runner(scenario, engine="batched", frames=frames)
    event_result = _runner(scenario, engine="event", frames=frames).run()
    diff = diff_snapshots(snapshot_from_result(event_result),
                          snapshot_from_result(batched.run()),
                          TOLERANCES)
    assert batched.last_chip is None  # the batched engine served it
    assert diff.ok, diff.format_text(verbose=True)


def test_jump_engages_and_stays_within_tolerances():
    """The flagship config must actually take a wave jump (otherwise the
    perf claim is vacuous) and still match the event engine."""
    event_result = PipelineRunner(config="mcpc_renderer", pipelines=5,
                                  frames=50).run()
    engine = BatchedEngine(PipelineRunner(config="mcpc_renderer",
                                          pipelines=5, frames=50))
    batched_result = engine.run()
    assert engine.jumps, "steady state never detected on mcpc_renderer/5pl"
    skipped = sum(j for _, j, _ in engine.jumps)
    assert engine.frames_simulated + skipped == 50
    diff = diff_snapshots(snapshot_from_result(event_result),
                          snapshot_from_result(batched_result),
                          TOLERANCES)
    assert diff.ok, diff.format_text(verbose=True)
    # the walkthrough agrees far beyond the committed 2% — the only
    # drift is the last-ulp cost of the one t+J*delta wave shift
    assert batched_result.walkthrough_seconds == pytest.approx(
        event_result.walkthrough_seconds, rel=1e-9)


def test_batched_engine_serves_every_run_mode():
    """Telemetry on or off, a sampled power trace, a plain run: the
    batched engine serves each one itself (the event engine would leave
    its chip on ``last_chip``)."""
    base = dict(config="one_renderer", pipelines=1, frames=3, image_side=16,
                engine="batched")
    # telemetry is synthesized; a sampled power trace is derived from the
    # engine's own power model
    for extra in ({"telemetry": Telemetry()},
                  {"telemetry": Telemetry(enabled=False)}, {},
                  {"power_trace_dt": 0.1}):
        runner = PipelineRunner(**base, **extra)
        runner.run()
        assert runner.last_chip is None, extra


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    config=st.sampled_from(["one_renderer", "n_renderers", "mcpc_renderer",
                            "single_core"]),
    pipelines=st.integers(min_value=1, max_value=4),
    frames=st.integers(min_value=1, max_value=24),
    plan=st.sampled_from([None, {"blur": 800}, {"sepia": 400.0},
                          {"transfer": 800, "blur": 400}]),
)
def test_hypothesis_differential(config, pipelines, frames, plan):
    """Random frames x pipelines x DVFS plans: engines stay glued."""
    kwargs = dict(config=config, pipelines=pipelines, frames=frames,
                  image_side=32, frequency_plan=plan)
    if config == "single_core" and plan is not None:
        plan = {"single-core": next(iter(plan.values()))}
        kwargs["frequency_plan"] = plan
    event_result = PipelineRunner(engine="event", **kwargs).run()
    batched = PipelineRunner(engine="batched", **kwargs)
    diff = diff_snapshots(snapshot_from_result(event_result),
                          snapshot_from_result(batched.run()),
                          TOLERANCES)
    assert batched.last_chip is None  # the batched engine served it
    assert diff.ok, diff.format_text(verbose=True)
