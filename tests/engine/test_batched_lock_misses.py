"""``BatchedEngine.lock_misses``: why frames were not jumped.

Each steady-state test that fails counts once, under the first
criterion it failed; a lock whose admissible jump is too short counts
as ``prefix``.  The counts are diagnostics only: they change no
decision and stay out of the ``RunResult``.
"""

from repro.engine import BatchedEngine
from repro.exec.cache import result_to_cache_dict
from repro.pipeline import PipelineRunner
from repro.pipeline.workload import WalkthroughWorkload

CRITERIA = {"period", "frames", "ops", "spacing", "stores", "resources",
            "births", "samples", "telemetry", "prefix"}


class _ConstantWorkload(WalkthroughWorkload):
    """The walkthrough with every frame costing what frame 0 costs."""

    def profile(self, frame, strip_index=0, num_strips=1):
        return super().profile(0, strip_index, num_strips)


def test_run_that_never_locks_counts_its_misses():
    engine = BatchedEngine(PipelineRunner(config="n_renderers", pipelines=7,
                                          frames=30, engine="batched"))
    result = engine.run()
    assert not engine.jumps
    assert engine.frames_simulated == 30
    assert sum(engine.lock_misses.values()) > 0
    assert set(engine.lock_misses) <= CRITERIA
    assert "lock_misses" not in result_to_cache_dict(result)


def test_constant_cost_run_misses_only_before_its_first_jump():
    frames = 60
    engine = BatchedEngine(PipelineRunner(
        config="one_renderer", pipelines=3, frames=frames,
        workload=_ConstantWorkload(frames=frames), engine="batched"))
    at_first_jump = []
    jump = engine._jump

    def record_then_jump(*args, **kwargs):
        if not at_first_jump:
            at_first_jump.append(dict(engine.lock_misses))
        jump(*args, **kwargs)

    engine._jump = record_then_jump
    engine.run()
    assert engine.jumps
    assert sum(at_first_jump[0].values()) > 0
    assert engine.lock_misses == at_first_jump[0]
    assert set(engine.lock_misses) <= CRITERIA


def test_every_criterion_name_is_documented():
    """A 400-frame strip-renderer run meets most criteria; each name it
    reports is one of the documented ones."""
    engine = BatchedEngine(PipelineRunner(config="n_renderers", pipelines=5,
                                          frames=400, engine="batched"))
    engine.run()
    assert engine.lock_misses.get("prefix", 0) > 0
    assert set(engine.lock_misses) <= CRITERIA
