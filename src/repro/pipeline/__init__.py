"""Parallel macro pipelining — the paper's core contribution.

Build one of the paper's renderer configurations with
:class:`PipelineRunner`, run the 400-frame walkthrough on the simulated
SCC+MCPC kit, and get back every metric the evaluation section reports
(walkthrough time, per-stage idle quartiles, power trace, energy).
"""

from .autotune import TuneResult, autotune
from .arrangements import (
    ARRANGEMENTS,
    FILTERS_PER_PIPELINE,
    Placement,
    make_placement,
    max_pipelines,
)
from .costmodel import FILTER_SECONDS_FULL_FRAME, FULL_FRAME_PIXELS, CostModel
from .film import render_film
from .macro import MacroPipeline, MacroRunResult, MacroStageSpec, WorkItem
from .metrics import RunMetrics, RunResult
from .runner import CONFIGURATIONS, ENGINES, FILTER_KEYS, PipelineRunner
from .sweep import series, sweep_arrangements, sweep_image_sizes, sweep_pipelines
from .stage import Stage, StageContext
from .workload import DEFAULT_IMAGE_SIDE, WalkthroughWorkload, default_workload

__all__ = [
    "MacroPipeline",
    "MacroRunResult",
    "MacroStageSpec",
    "WorkItem",
    "autotune",
    "TuneResult",
    "sweep_pipelines",
    "sweep_arrangements",
    "sweep_image_sizes",
    "series",
    "PipelineRunner",
    "CONFIGURATIONS",
    "ENGINES",
    "FILTER_KEYS",
    "render_film",
    "CostModel",
    "FULL_FRAME_PIXELS",
    "FILTER_SECONDS_FULL_FRAME",
    "RunMetrics",
    "RunResult",
    "Placement",
    "make_placement",
    "max_pipelines",
    "ARRANGEMENTS",
    "FILTERS_PER_PIPELINE",
    "WalkthroughWorkload",
    "default_workload",
    "DEFAULT_IMAGE_SIDE",
    "Stage",
    "StageContext",
]
