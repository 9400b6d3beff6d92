"""Telemetry observes the batched engine and never perturbs it.

With a hub on, the batched engine synthesizes the event engine's span
and counter stream from the same scheduler loop that serves plain runs.
Every scheduling decision must be the same either way: the result,
every frame's birth and completion, and every jump are bit-equal with
the hub on and with it off.  The one exception is a jump the telemetry
stream itself refuses (``telemetry`` in ``lock_misses``); none of the
runs below meets one.
"""

import pytest

from repro.engine import BatchedEngine
from repro.exec.cache import result_to_cache_dict
from repro.pipeline import PipelineRunner
from repro.telemetry import Telemetry

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
    observed = _decisions(make_runner, Telemetry(enabled=True))
    for key in plain:
        assert observed[key] == plain[key], key


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
