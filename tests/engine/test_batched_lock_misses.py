"""``BatchedEngine.lock_misses``: why frames were not jumped.

Each steady-state test that fails counts once, under the first
criterion it failed; a lock whose admissible jump is too short counts
as ``prefix``.  The counts are diagnostics only: they change no
decision and stay out of the ``RunResult``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.engine import BatchedEngine
from repro.exec.cache import result_to_cache_dict
from repro.pipeline import PipelineRunner
from repro.pipeline.workload import WalkthroughWorkload

CRITERIA = {"period", "frames", "ops", "spacing", "stores", "resources",
            "births", "samples", "telemetry", "prefix"}


class _ConstantWorkload(WalkthroughWorkload):
    """The walkthrough with every frame costing what frame 0 costs."""

    def _build_table(self, num_strips):
        table = super()._build_table(num_strips)
        return np.repeat(table[:, :1], self.frames, axis=1)


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


#: the detector's decisions on three 400-frame Table-I points: frames
#: simulated, lock misses by criterion, ``(trigger frame, frames skipped)``
#: per jump and the jumps' strides (the golden snapshot pins the periods)
DECISIONS = {
    "n_renderers/ordered/7": (
        321,
        {"frames": 178, "ops": 56, "period": 1279, "prefix": 23,
         "resources": 12, "samples": 30, "spacing": 109},
        [(56, 2), (71, 14), (90, 6), (101, 10), (117, 8), (209, 6),
         (220, 4), (242, 7), (271, 7), (363, 9), (382, 6)],
        [1] * 11),
    "one_renderer/flipped/3": (
        199,
        {"period": 236, "prefix": 23, "samples": 3, "spacing": 26},
        [(11, 2), (17, 5), (31, 27), (64, 2), (70, 15), (89, 7), (100, 11),
         (115, 14), (140, 4), (164, 12), (185, 3), (194, 3), (202, 13),
         (220, 4), (234, 15), (252, 3), (263, 2), (271, 11), (291, 4),
         (309, 3), (316, 13), (338, 6), (362, 10), (381, 7), (392, 5)],
        [1] * 25),
    # the super-period lock: one 3-frame stride skips the rest of the run
    "mcpc_renderer/unordered/6": (
        19,
        {"period": 33, "resources": 3, "spacing": 8},
        [(14, 381)],
        [3]),
}


@pytest.mark.parametrize("point", sorted(DECISIONS))
def test_detector_decisions_are_pinned(point):
    config, arrangement, n = point.split("/")
    engine = BatchedEngine(PipelineRunner(
        config=config, arrangement=arrangement, pipelines=int(n),
        frames=400, engine="batched"))
    engine.run()
    frames_simulated, misses, jumps, strides = DECISIONS[point]
    assert engine.frames_simulated == frames_simulated
    assert engine.lock_misses == Counter(misses)
    assert [(frame, j) for frame, j, _ in engine.jumps] == jumps
    assert engine.strides == strides
