"""The stage graph of the paper's configurations.

``describe(config, pipelines, arrangement, placement)`` returns the
stage graph a run builds — which stages exist, on which cores, who
hands frames to whom — without running anything.  It is the one place
the wiring is decided: the event engine (``PipelineRunner``), the
batched engine (:mod:`repro.engine.batched`) and the static deadlock
proof (:mod:`repro.pipeline.protocol`) each read their stages off this
graph, and the CLI's ``describe`` subcommand prints it.

Node order is the engines' stage-start order, which breaks ties between
simultaneous events; the MCPC host process therefore comes last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..filters import FILTER_ORDER
from .arrangements import Placement, make_placement

__all__ = ["CONFIGURATIONS", "FILTER_KEYS", "SIF_SOCKET", "SIF_CAPACITY",
           "StageNode", "ConfigDescription", "describe"]

CONFIGURATIONS = ("single_core", "one_renderer", "n_renderers",
                  "mcpc_renderer")

#: pipeline stage order within a pipeline (the filters' own order)
FILTER_KEYS = FILTER_ORDER

#: the MCPC host -> connect stage socket: a bounded queue of whole frames
SIF_SOCKET = "sif-socket"
SIF_CAPACITY = 2

#: human-readable one-liners for each configuration (paper §V)
_SUMMARIES = {
    "single_core": "the 382 s baseline: every stage time-shared on one "
                   "SCC core",
    "one_renderer": "one SCC render core draws full frames and feeds all "
                    "pipelines with strips (render-bound beyond ~3 "
                    "pipelines)",
    "n_renderers": "sort-first: a render core per pipeline draws only its "
                   "strip (scales to the 7-pipeline maximum)",
    "mcpc_renderer": "heterogeneous: the MCPC's Xeon renders and streams "
                     "frames over UDP into a connect stage (the paper's "
                     "fastest SCC setup)",
}


@dataclass(frozen=True)
class StageNode:
    """One stage instance in the graph."""

    key: str
    core: Optional[int]           # None = runs on the MCPC
    feeds: Tuple[str, ...] = ()
    #: which engine stage this node becomes: ``"single"``, ``"render"``
    #: (one renderer feeding every pipeline), ``"strip"`` (a per-pipeline
    #: renderer), ``"connect"``, ``"host"``, ``"filter"`` or ``"transfer"``
    role: str = ""
    #: the pipeline a per-pipeline stage belongs to
    pipeline: Optional[int] = None
    #: cores this stage receives from / sends to, in hand-off order
    inputs: Tuple[int, ...] = ()
    outputs: Tuple[int, ...] = ()

    @property
    def base(self) -> str:
        """The key without its pipeline index: ``sepia[0]`` -> ``sepia``."""
        return self.key.split("[")[0]


@dataclass
class ConfigDescription:
    """The full stage graph of a configuration."""

    config: str
    arrangement: str
    pipelines: int
    summary: str
    stages: List[StageNode] = field(default_factory=list)
    placement: Optional[Placement] = None

    @property
    def cores(self) -> List[int]:
        """Every SCC core the graph occupies, in node order."""
        return [s.core for s in self.stages if s.core is not None]

    @property
    def scc_cores_used(self) -> int:
        return len(self.cores)

    @property
    def queues(self) -> Dict[str, int]:
        """Bounded queues between stages: name -> capacity."""
        if self.config == "mcpc_renderer":
            return {SIF_SOCKET: SIF_CAPACITY}
        return {}

    def stage_cores(self) -> Dict[str, List[int]]:
        """Stage base key -> its SCC cores (the frequency plan's keys)."""
        cores: Dict[str, List[int]] = {}
        for s in self.stages:
            if s.core is not None:
                cores.setdefault(s.base, []).append(s.core)
        return cores

    def stage(self, key: str) -> StageNode:
        for s in self.stages:
            if s.key == key:
                return s
        raise KeyError(key)

    def to_text(self) -> str:
        lines = [f"{self.config} ({self.arrangement}), "
                 f"{self.pipelines} pipeline(s): {self.summary}",
                 f"SCC cores used: {self.scc_cores_used}"]
        for s in self.stages:
            where = "MCPC" if s.core is None else f"core {s.core:2d}"
            feeds = " -> " + ", ".join(s.feeds) if s.feeds else ""
            lines.append(f"  {s.key:12s} [{where}]{feeds}")
        return "\n".join(lines)


def describe(config: str, pipelines: int = 1, arrangement: str = "ordered",
             placement: Optional[Placement] = None) -> ConfigDescription:
    """Build the stage graph for a configuration without simulating.

    ``placement`` overrides the arrangement's own core assignment (the
    §VI-D DVFS study); the graph then takes its pipeline count and
    arrangement name from it.
    """
    if config not in CONFIGURATIONS:
        raise ValueError(f"unknown config {config!r}; "
                         f"choose from {CONFIGURATIONS}")
    if placement is None:
        if config == "single_core":
            placement = Placement(arrangement, input_cores=[0],
                                  filter_cores=[], transfer_core=1)
        else:
            placement = make_placement(
                arrangement, pipelines,
                per_pipeline_input=(config == "n_renderers"))
    elif config == "n_renderers" and \
            len(placement.input_cores) != placement.num_pipelines:
        raise ValueError("n_renderers needs one input core per "
                         "pipeline in the placement")

    if config == "single_core":
        desc = ConfigDescription(config, placement.arrangement, 0,
                                 _SUMMARIES[config], placement=placement)
        desc.stages.append(StageNode("single-core", placement.input_cores[0],
                                     ("viewer",), role="single"))
        return desc

    n = placement.num_pipelines
    desc = ConfigDescription(config, placement.arrangement, n,
                             _SUMMARIES[config], placement=placement)
    stages = desc.stages
    first = tuple(chain[0] for chain in placement.filter_cores)
    sepias = tuple(f"sepia[{p}]" for p in range(n))
    if config == "n_renderers":
        for p in range(n):
            stages.append(StageNode(
                f"render[{p}]", placement.input_cores[p], (sepias[p],),
                role="strip", pipeline=p, outputs=(first[p],)))
    else:
        key = "render" if config == "one_renderer" else "connect"
        stages.append(StageNode(key, placement.input_cores[0], sepias,
                                role=key, outputs=first))

    for p, chain in enumerate(placement.filter_cores):
        hops = (placement.input_cores[p if config == "n_renderers" else 0],
                *chain, placement.transfer_core)
        for j, key in enumerate(FILTER_KEYS):
            feeds = (f"{FILTER_KEYS[j + 1]}[{p}]"
                     if j + 1 < len(FILTER_KEYS) else "transfer")
            stages.append(StageNode(
                f"{key}[{p}]", chain[j], (feeds,), role="filter",
                pipeline=p, inputs=(hops[j],), outputs=(hops[j + 2],)))

    stages.append(StageNode(
        "transfer", placement.transfer_core, ("viewer",), role="transfer",
        inputs=tuple(chain[-1] for chain in placement.filter_cores)))
    if config == "mcpc_renderer":
        stages.append(StageNode("mcpc-render", None, ("connect",),
                                role="host"))
    return desc
