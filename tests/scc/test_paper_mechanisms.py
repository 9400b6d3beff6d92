"""Mechanisms behind two paper findings, read off the event engine's chip.

The findings themselves live in :mod:`repro.report.paper`; these checks
need the simulated chip a run leaves behind (``runner.last_chip``),
which only the discrete-event engine builds.
"""

import pytest

from repro.pipeline import PipelineRunner
from repro.report.paper import ABLATION_CHIPS, POWER_IDLE_W


def test_local_stores_silence_the_memory_controllers():
    """With Cell-style local stores, hand-offs never touch DRAM (the
    paper's closing argument for local memory banks)."""
    runner = PipelineRunner(config="n_renderers", pipelines=3, frames=40,
                            chip_config=ABLATION_CHIPS["local_memory"])
    runner.run()
    assert sum(mc.bytes_served
               for mc in runner.last_chip.memory.controllers) == 0


def test_power_returns_to_idle_after_the_run():
    """Fig. 14: the trace falls back to the 22 W idle floor."""
    runner = PipelineRunner(config="mcpc_renderer", pipelines=3, frames=40)
    runner.run()
    assert runner.last_chip.power.current_power() == pytest.approx(
        POWER_IDLE_W)
