"""Robustness and failure-injection tests across the stack."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import MacroPipeline, PipelineRunner
from repro.rcce import RCCEComm
from repro.scc import SCCChip
from repro.sim import DeadlockError, Simulator


# ---------------------------------------------------------------------------
# failure injection: a dying stage must surface, not hang silently
# ---------------------------------------------------------------------------

def test_dead_stage_is_reported_as_deadlock():
    """If a stage stops consuming, the run ends in DeadlockError —
    the kernel's unmatched-communication diagnosis."""
    chip = SCCChip(Simulator())
    comm = RCCEComm(chip)

    def producer():
        for i in range(10):
            yield from comm.send(0, 1, 1000, tag=i)

    def flaky_consumer():
        for _ in range(3):  # dies after three frames
            yield from comm.recv(1, 0)

    p = chip.sim.process(producer())
    chip.sim.process(flaky_consumer())
    with pytest.raises(DeadlockError):
        chip.sim.run(until=p)


def test_crashing_stage_propagates_exception():
    """An exception inside a stage process reaches the caller with the
    original traceback, not a generic failure."""
    chip = SCCChip(Simulator())
    comm = RCCEComm(chip)

    def producer():
        yield from comm.send(0, 1, 100)

    def crasher():
        yield from comm.recv(1, 0)
        raise RuntimeError("filter kernel exploded")

    chip.sim.process(producer())
    chip.sim.process(crasher())
    with pytest.raises(RuntimeError, match="filter kernel exploded"):
        chip.sim.run()


# ---------------------------------------------------------------------------
# property-based end-to-end invariants
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(1, 500_000), min_size=1, max_size=15),
       st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_macro_pipeline_conserves_items(sizes, n_stages):
    """Whatever flows in flows out, once, in order."""
    pipe = MacroPipeline()
    for i in range(n_stages):
        pipe.add_stage(f"s{i}", 1e-4, func=lambda x: x)
    items = [(s, idx) for idx, s in enumerate(sizes)]
    result = pipe.run(items)
    assert result.items_completed == len(sizes)
    assert result.outputs == list(range(len(sizes)))


@given(st.lists(st.floats(1e-5, 5e-3), min_size=2, max_size=5))
@settings(max_examples=20, deadline=None)
def test_macro_pipeline_period_bounded_by_service_sum(services):
    """Makespan is sandwiched between the bottleneck bound and the
    fully-serial bound."""
    pipe = MacroPipeline()
    for i, s in enumerate(services):
        pipe.add_stage(f"s{i}", s)
    n_items = 25
    result = pipe.run([10_000] * n_items)
    bottleneck = max(services)
    serial = sum(services)
    # Communication adds overhead, so both bounds get slack factors.
    assert result.makespan_s >= n_items * bottleneck
    assert result.makespan_s <= n_items * (serial + 0.01) + 1.0


@given(st.integers(1, 7), st.sampled_from(["unordered", "ordered", "flipped"]))
@settings(max_examples=10, deadline=None)
def test_runner_always_completes_all_frames(n, arrangement):
    frames = 6
    runner = PipelineRunner(config="n_renderers", pipelines=n,
                            arrangement=arrangement, frames=frames)
    result = runner.run()
    assert result.frames == frames
    completions = [f for f, _ in runner.last_metrics.frame_completions]
    assert completions == list(range(frames))
    assert result.walkthrough_seconds > 0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_payload_runs_valid_for_any_seed(seed):
    """Stochastic filters never push pixels out of range."""
    from repro.pipeline import WalkthroughWorkload, render_film

    workload = WalkthroughWorkload(frames=2, image_side=24)
    for frame in render_film(workload, "one_renderer", 1, 2, seed=seed):
        assert frame.dtype == np.float32
        assert np.all(frame >= 0.0) and np.all(frame <= 1.0)
