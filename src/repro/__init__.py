"""repro — reproduction of "Parallel Macro Pipelining on the Intel SCC
Many-Core Computer" (Süß, Schoenrock, Meisner, Plessl; IPDPSW 2013).

Subpackages
-----------
``repro.sim``
    Deterministic discrete-event simulation kernel.
``repro.scc``
    The simulated SCC chip: mesh NoC, memory controllers, caches, DVFS,
    power model.
``repro.rcce``
    RCCE-style blocking message passing over the simulated chip.
``repro.host``
    The MCPC host, UDP links and the visualization client.
``repro.render``
    Software 3D renderer: octree, frustum culling, rasterizer,
    procedural city, walkthrough camera path.
``repro.filters``
    The five silent-film filters (sepia, blur, scratch, flicker, swap).
``repro.pipeline``
    The paper's contribution: parallel macro pipelines — configurations,
    arrangements, cost model, runner, metrics.
``repro.cluster``
    The Mogon HPC cluster comparison platform.
``repro.telemetry``
    Unified observability: structured events, hierarchical counters,
    Chrome-trace export and top reports (see docs/observability.md).
``repro.report``
    Paper reference values and table formatting for the benches.

Quick start
-----------
>>> from repro.pipeline import PipelineRunner
>>> result = PipelineRunner(config="mcpc_renderer", pipelines=5,
...                         frames=40).run()
>>> result.pipelines
5
"""

from . import (
    cluster,
    filters,
    host,
    pipeline,
    rcce,
    render,
    report,
    scc,
    sim,
    telemetry,
)
from .pipeline import CostModel, PipelineRunner, RunResult
from .telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "sim",
    "scc",
    "rcce",
    "host",
    "render",
    "filters",
    "pipeline",
    "cluster",
    "telemetry",
    "report",
    "Telemetry",
    "PipelineRunner",
    "RunResult",
    "CostModel",
    "__version__",
]
