"""The batched engine runs on the static chip description alone.

It reads routes, the memory-controller map and mesh/memory parameters
from ``SCCTopology``, ``xy_route`` and ``SCCConfig``, and keeps its own
DVFS and power models, so a batched run never constructs the event
kernel's ``Simulator`` or the event-time ``SCCChip``: not on the plain
path, not while synthesizing telemetry, not for a sampled power trace.
"""

import pytest

from repro.pipeline import PipelineRunner
from repro.scc import SCCChip
from repro.sim import Simulator
from repro.telemetry import Telemetry


def test_batched_runs_build_no_simulator_and_no_chip(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"batched run built a {type(self).__name__}")

    monkeypatch.setattr(Simulator, "__init__", refuse)
    monkeypatch.setattr(SCCChip, "__init__", refuse)
    base = dict(config="mcpc_renderer", pipelines=3, frames=30,
                frequency_plan={"blur": 800}, engine="batched")
    for extra in ({}, {"telemetry": Telemetry()}, {"power_trace_dt": 0.5}):
        result = PipelineRunner(**base, **extra).run()
        assert result.walkthrough_seconds > 0
    assert result.power_trace
    # the guard bites: the event engine does build both
    with pytest.raises(AssertionError, match="built a"):
        PipelineRunner(config="mcpc_renderer", pipelines=3, frames=3).run()
