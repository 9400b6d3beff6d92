"""The batched engine's per-frame cost tables equal the scalar costs.

:func:`repro.pipeline.stage.cost_table` prices every frame of a
per-frame compute in one element-wise pass; the engine then scales the
table to the core's clock or to the MCPC (``/ speedup``).  Each entry
must equal the scalar path — the event engine's ``compute_cost(op,
…)(f)`` followed by its chip's ``compute_time`` — bit for bit, on every
frame.
"""

import pytest

from repro.engine import BatchedEngine
from repro.pipeline import PipelineRunner
from repro.pipeline.describe import PER_FRAME_COSTS
from repro.pipeline.stage import compute_cost
from repro.scc import SCCChip

FRAMES = 400


def _event_chip(runner, graph):
    """A chip clocked as the event engine clocks it for ``runner``."""
    chip = SCCChip()
    runner._apply_frequency_plan(chip.dvfs, graph)
    return chip


def _assert_tables_match_scalar(runner):
    engine = BatchedEngine(runner)
    chip = _event_chip(runner, engine.graph)
    seen = set()
    for node, actor in zip(engine.graph.stages, engine.actors):
        ops = [op for op in node.program
               if op.kind == "compute" and op.arg in PER_FRAME_COSTS]
        if not ops:
            assert actor.costs == []
            continue
        (op,) = ops
        fn = compute_cost(op, runner.cost, runner.workload,
                          engine.num_pipelines, engine.mcpc_config.udp)
        if node.core is None:
            speedup = engine.mcpc_config.speedup_vs_scc_core
            want = [fn(f) / speedup for f in range(FRAMES)]
        else:
            want = [chip.compute_time(node.core, fn(f))
                    for f in range(FRAMES)]
        assert len(actor.costs) == FRAMES
        assert all(got == w for got, w in zip(actor.costs, want))
        assert all(got == w for got, w in zip(actor.cost_arr.tolist(), want))
        seen.add(op.arg)
    return seen


@pytest.mark.parametrize("strips", range(1, 8))
def test_strip_render_tables_are_bit_equal(strips):
    runner = PipelineRunner(config="n_renderers", pipelines=strips,
                            frames=FRAMES, engine="batched")
    assert _assert_tables_match_scalar(runner) == {"render-strip"}


@pytest.mark.parametrize("config, kind", [
    ("one_renderer", "render"),
    ("mcpc_renderer", "render"),  # on the MCPC: / speedup
    ("single_core", "single-core"),
])
def test_full_frame_tables_are_bit_equal(config, kind):
    runner = PipelineRunner(config=config, pipelines=3, frames=FRAMES,
                            engine="batched")
    assert _assert_tables_match_scalar(runner) == {kind}


@pytest.mark.parametrize("config, plan, kind", [
    ("n_renderers", {"render": 800, "blur": 400}, "render-strip"),
    ("one_renderer", {"render": 400}, "render"),
    ("single_core", {"single-core": 800}, "single-core"),
])
def test_tables_are_bit_equal_under_a_frequency_plan(config, plan, kind):
    """Table I runs only at 533 MHz; a plan scales the renderers' costs
    (the plan's first stage) by a factor other than one."""
    runner = PipelineRunner(config=config, pipelines=4, frames=FRAMES,
                            engine="batched", frequency_plan=plan)
    graph = runner._stage_graph()
    chip = _event_chip(runner, graph)
    cores = graph.stage_cores()[next(iter(plan))]
    assert all(chip.dvfs.scaling_factor(core) != 1.0 for core in cores)
    assert _assert_tables_match_scalar(runner) == {kind}
