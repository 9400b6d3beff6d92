"""Tests for the pipeline runner (short walkthroughs for speed)."""

import pytest

from repro.engine import BatchedEngine
from repro.pipeline import CONFIGURATIONS, PipelineRunner, RunResult
from repro.pipeline.arrangements import dvfs_study_placement

FRAMES = 40


def run(config, pipelines=2, **kw):
    return PipelineRunner(config=config, pipelines=pipelines, frames=FRAMES,
                          **kw).run()


def test_unknown_config_rejected():
    with pytest.raises(ValueError):
        PipelineRunner(config="quantum")
    with pytest.raises(ValueError):
        PipelineRunner(frames=0)


@pytest.mark.parametrize("value", (2.7, True, "2.5"))
def test_lossy_counts_rejected(value):
    """2.7 pipelines must not quietly run 2."""
    with pytest.raises(ValueError, match="pipelines"):
        PipelineRunner(pipelines=value)
    with pytest.raises(ValueError, match="frames"):
        PipelineRunner(frames=value)


def test_all_configurations_run():
    for cfg in CONFIGURATIONS:
        result = run(cfg)
        assert isinstance(result, RunResult)
        assert result.walkthrough_seconds > 0
        assert result.frames == FRAMES


def test_single_core_ignores_pipelines():
    result = run("single_core", pipelines=5)
    assert result.pipelines == 0
    assert result.cores_used == 1


def test_more_pipelines_is_not_slower_nrend():
    times = [run("n_renderers", pipelines=n).walkthrough_seconds
             for n in (1, 2, 4)]
    assert times[0] > times[1] > times[2]


def test_one_renderer_saturates():
    t3 = run("one_renderer", pipelines=3).walkthrough_seconds
    t6 = run("one_renderer", pipelines=6).walkthrough_seconds
    # Render-bound: adding pipelines beyond ~3 gains almost nothing.
    assert t6 == pytest.approx(t3, rel=0.05)


def test_arrangement_has_no_significant_influence():
    """The paper's headline negative result (±2% in Table I)."""
    times = {
        arr: run("n_renderers", pipelines=3,
                 arrangement=arr).walkthrough_seconds
        for arr in ("unordered", "ordered", "flipped")
    }
    base = times["ordered"]
    for arr, t in times.items():
        assert t == pytest.approx(base, rel=0.05), arr


def test_result_metrics_populated():
    result = run("mcpc_renderer", pipelines=3)
    assert result.cores_used == 2 + 5 * 3
    assert result.scc_avg_power_w > 22.0
    assert result.scc_energy_j == pytest.approx(
        result.scc_avg_power_w * result.walkthrough_seconds, rel=1e-6)
    assert "blur" in result.idle_quartiles
    assert "blur" in result.busy_means
    assert len(result.mc_utilizations) == 4
    assert result.seconds_per_frame == pytest.approx(
        result.walkthrough_seconds / FRAMES)


def test_speedup_helper():
    result = run("n_renderers", pipelines=4)
    assert result.speedup_vs(2 * result.walkthrough_seconds) == pytest.approx(2.0)
    broken = RunResult(config="x", arrangement="y", pipelines=1, frames=1,
                       walkthrough_seconds=0.0, cores_used=1,
                       scc_energy_j=0, scc_avg_power_w=0,
                       mcpc_energy_above_idle_j=0)
    with pytest.raises(ValueError):
        broken.speedup_vs(10.0)


def test_mcpc_energy_accounted_only_for_mcpc_config():
    het = run("mcpc_renderer", pipelines=2)
    scc_only = run("n_renderers", pipelines=2)
    assert het.mcpc_energy_above_idle_j > 0
    assert scc_only.mcpc_energy_above_idle_j == pytest.approx(0.0)


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_power_trace_sampling(engine):
    result = PipelineRunner(config="n_renderers", pipelines=2, frames=FRAMES,
                            power_trace_dt=1.0, engine=engine).run()
    assert len(result.power_trace) >= 2
    t0, p0 = result.power_trace[0]
    assert t0 == 0.0
    assert p0 > 22.0  # cores already active at t=0


@pytest.mark.parametrize("config, plan", [
    ("n_renderers", None),
    ("mcpc_renderer", {"blur": 800}),
    ("one_renderer", {"sepia": 400.0}),
])
def test_batched_power_trace_equals_event(config, plan):
    """The batched engine serves a sampled power trace from its own
    power model: sample for sample the event engine's, through jumps."""
    def runner(engine, frames):
        return PipelineRunner(config=config, pipelines=3, frames=frames,
                              frequency_plan=plan, power_trace_dt=0.5,
                              engine=engine)

    event = runner("event", 400).run()
    served = runner("batched", 400)
    batched = served.run()
    assert served.last_chip is None  # not the event fallback
    assert len(batched.power_trace) > 100
    assert batched.power_trace == event.power_trace
    # a short run takes no jump, so its energy is bit-identical too (a
    # jump's wave shift moves it in the last ulps)
    event = runner("event", 8).run()
    engine = BatchedEngine(runner("batched", 8))
    batched = engine.run()
    assert not engine.jumps
    assert batched.power_trace == event.power_trace
    assert batched.scc_energy_j == event.scc_energy_j
    assert batched.scc_avg_power_w == event.scc_avg_power_w


def test_batched_run_builds_no_chip():
    """``last_chip`` is the event engine's chip; a batched run has none
    (its MC utilizations are in the result)."""
    runner = PipelineRunner(config="n_renderers", pipelines=2, frames=20,
                            engine="batched")
    result = runner.run()
    assert runner.last_chip is None
    assert max(result.mc_utilizations) > 0.0
    runner = PipelineRunner(config="n_renderers", pipelines=2, frames=20)
    runner.run()
    assert runner.last_chip.memory.controllers[1].requests > 0


def test_every_frame_completes_in_order():
    runner = PipelineRunner(config="one_renderer", pipelines=3, frames=FRAMES)
    runner.run()
    completions = [f for f, _ in runner.last_metrics.frame_completions]
    assert completions == list(range(FRAMES))


def test_custom_placement_used():
    placement = dvfs_study_placement()
    result = PipelineRunner(config="mcpc_renderer", pipelines=1,
                            frames=FRAMES, placement=placement).run()
    assert result.cores_used == 7
    assert result.arrangement == "dvfs-study"


def test_frequency_plan_speeds_up_blur_bound_run():
    placement = dvfs_study_placement()
    base = PipelineRunner(config="mcpc_renderer", pipelines=1, frames=FRAMES,
                          placement=placement).run()
    fast = PipelineRunner(config="mcpc_renderer", pipelines=1, frames=FRAMES,
                          placement=placement,
                          frequency_plan={"blur": 800.0}).run()
    assert fast.walkthrough_seconds < 0.80 * base.walkthrough_seconds
    assert fast.scc_avg_power_w > base.scc_avg_power_w


def test_frequency_plan_mixed_saves_power_keeps_speed():
    placement = dvfs_study_placement()
    fast = PipelineRunner(config="mcpc_renderer", pipelines=1, frames=FRAMES,
                          placement=placement,
                          frequency_plan={"blur": 800.0}).run()
    mixed = PipelineRunner(
        config="mcpc_renderer", pipelines=1, frames=FRAMES,
        placement=placement,
        frequency_plan={"blur": 800.0, "scratch": 400.0, "flicker": 400.0,
                        "swap": 400.0, "transfer": 400.0}).run()
    assert mixed.walkthrough_seconds == pytest.approx(
        fast.walkthrough_seconds, rel=0.02)
    assert mixed.scc_avg_power_w < fast.scc_avg_power_w


def test_frequency_plan_unknown_stage_rejected():
    with pytest.raises(ValueError, match="unknown stage"):
        PipelineRunner(config="n_renderers", pipelines=1, frames=4,
                       frequency_plan={"warp": 800.0}).run()


def test_determinism():
    a = run("mcpc_renderer", pipelines=3)
    b = run("mcpc_renderer", pipelines=3)
    assert a.walkthrough_seconds == b.walkthrough_seconds
    assert a.scc_energy_j == b.scc_energy_j


def _run_log(**kw):
    """The ``run.*`` event-log records of one runner.run()."""
    import io
    import json

    from repro.obsv import configure_event_log, reset_event_log

    buf = io.StringIO()
    configure_event_log(buf, level="info")
    try:
        PipelineRunner(config="one_renderer", pipelines=2, frames=8,
                       **kw).run()
        text = buf.getvalue()
    finally:
        reset_event_log()  # closes the stream
    return [r for r in map(json.loads, text.splitlines())
            if r["event"].startswith("run.")]


def test_event_log_names_the_engine_that_ran():
    """One ``run.start`` per run; ``run.finish`` names the engine, and
    only the event engine reports a simulated event count (the batched
    engine processes no kernel events worth counting)."""
    batched = _run_log(engine="batched")
    assert [r["event"] for r in batched] == ["run.start", "run.finish"]
    assert batched[1]["engine"] == "batched"
    assert "sim_events" not in batched[1]

    event = _run_log(engine="event")
    assert [r["event"] for r in event] == ["run.start", "run.finish"]
    assert event[1]["engine"] == "event"
    assert event[1]["sim_events"] > 0
