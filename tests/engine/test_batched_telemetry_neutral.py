"""Telemetry observes the batched engine and never perturbs it.

With a hub on, the batched engine synthesizes the event engine's span
and counter stream from the same scheduler loop that serves plain runs.
Every scheduling decision must be the same either way: the result,
every frame's birth and completion, and every jump are bit-equal with
the hub on and with it off, and with a hub that keeps only the stage
and host categories (what ``repro run --gantt`` builds).  The one
exception is a jump the telemetry stream itself refuses (``telemetry``
in ``lock_misses``); none of the runs below meets one.
"""

import pytest

from repro.engine import BatchedEngine
from repro.exec.cache import result_to_cache_dict
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry, render_gantt

#: the categories the Gantt chart's hub keeps
GANTT = {"stage", "host"}

from tests.golden.harness import (FRAMES, IMAGE_SIDE, PIPELINES, SCENARIOS,
                                  SEED, _workload)

#: 400-frame points: multi-jump strip renderers, a flipped single
#: renderer, an MCPC super-period and the single-core baseline
LONG_POINTS = [
    ("n_renderers", "ordered", 5),
    ("one_renderer", "flipped", 3),
    ("mcpc_renderer", "ordered", 6),
    ("single_core", "ordered", 1),
]


def _decisions(make_runner, telemetry):
    engine = BatchedEngine(make_runner(telemetry))
    result = engine.run()
    metrics = engine.runner.last_metrics
    return {
        "result": result_to_cache_dict(result),
        "births": metrics.frame_birth,
        "completions": metrics.frame_completions,
        "jumps": engine.jumps,
        "strides": engine.strides,
    }


def _assert_neutral(make_runner):
    plain = _decisions(make_runner, None)
    for hub in (Telemetry(enabled=True), Telemetry(categories=GANTT)):
        observed = _decisions(make_runner, hub)
        for key in plain:
            assert observed[key] == plain[key], (hub, key)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_scenario_is_telemetry_neutral(scenario):
    spec = SCENARIOS[scenario]

    def make_runner(telemetry):
        return PipelineRunner(
            config=spec["config"], arrangement=spec["arrangement"],
            pipelines=PIPELINES, frames=FRAMES, image_side=IMAGE_SIDE,
            workload=_workload(FRAMES, IMAGE_SIDE), seed=SEED,
            frequency_plan=spec.get("frequency_plan"),
            telemetry=telemetry, engine="batched")

    _assert_neutral(make_runner)


@pytest.mark.parametrize("config,arrangement,pipelines", LONG_POINTS)
def test_long_run_is_telemetry_neutral(config, arrangement, pipelines):
    def make_runner(telemetry):
        return PipelineRunner(config=config, arrangement=arrangement,
                              pipelines=pipelines, frames=400,
                              telemetry=telemetry, engine="batched")

    _assert_neutral(make_runner)


@pytest.mark.parametrize("engine,frames", [("event", 40), ("batched", 400)])
def test_stage_and_host_hub_draws_the_same_gantt(engine, frames):
    """The Gantt hub keeps the full hub's stage and host events, in
    order, and nothing else: no other category and no counter of one."""
    hubs = full, gantt = Telemetry(), Telemetry(categories=GANTT)
    for hub in hubs:
        PipelineRunner(config="mcpc_renderer", pipelines=3, frames=frames,
                       telemetry=hub, engine=engine).run()
    assert render_gantt(gantt) == render_gantt(full)
    assert gantt.events == [e for e in full.events if e.category in GANTT]
    assert {e.category for e in gantt.events} == GANTT
    snap = gantt.counters.snapshot()
    assert snap["counters"] and not snap["gauges"]
    assert {name.split(".")[0] for name in snap["counters"]} == {"stage"}
    assert snap["counters"] == {
        name: value for name, value in full.counters.snapshot()["counters"]
        .items() if name.startswith("stage.")}
