"""Tests for the pipeline-count autotuner."""

import pytest

from repro.pipeline import PipelineRunner
from repro.pipeline.autotune import autotune


def test_validation():
    with pytest.raises(ValueError):
        autotune("single_core")
    with pytest.raises(TypeError):
        autotune("n_renderers", shortlist=0)


def test_autotune_mcpc_finds_the_paper_optimum():
    """The paper's best MCPC setting is 5 pipelines; every count the
    ordered arrangement can place (1..8) is an exact run."""
    result = autotune("mcpc_renderer", frames=400)
    assert result.best_pipelines == 5
    assert result.best.walkthrough_seconds < 60.0
    assert set(result.verified) == set(range(1, 9))


def test_autotune_nrenderers_prefers_the_maximum():
    result = autotune("n_renderers", frames=400)
    assert result.best_pipelines in (6, 7)
    assert set(result.verified) == set(range(1, 8))


def test_autotune_one_renderer_saturates_flat():
    """Anything >= 3 pipelines is within noise; the tuner must pick a
    saturated point, not 1 or 2."""
    result = autotune("one_renderer", frames=400)
    assert result.best_pipelines >= 3


def test_autotune_time_matches_the_event_engine_outside_the_snapshot():
    """mcpc_renderer/8 lies outside the 63-point Table-I snapshot; the
    tuner's batched answer there equals the event engine's."""
    tuned = autotune("mcpc_renderer", frames=400).verified[8]
    event = PipelineRunner(config="mcpc_renderer", pipelines=8,
                           frames=400).run()
    assert tuned.walkthrough_seconds == pytest.approx(
        event.walkthrough_seconds, rel=1e-9)


def test_summary_mentions_best():
    result = autotune("mcpc_renderer", frames=100)
    text = result.summary()
    assert "<-- best" in text
    assert f"best = {result.best_pipelines} pipeline(s)" in text
