"""The stage graph of the paper's configurations.

``describe(config, pipelines, arrangement, placement)`` returns the
stage graph a run builds — which stages exist, on which cores, who
hands frames to whom — without running anything.  It is the one place
the wiring is decided, and each node also carries its **per-frame op
program**: the RCCE loop the paper writes once per core (wait for the
strip, fetch it, compute, deposit it with the successor), spelled as a
short tuple of :class:`StageOp`.  Ops name cores, queues, links, cost
kinds and strips symbolically, so the graph stays free of the workload.

Three consumers read the programs: the event engine interprets them
(:class:`repro.pipeline.stage.Stage`), the batched engine compiles them
to coarse ``(resource, hold)`` programs (:mod:`repro.engine.batched`)
and the static deadlock proof projects them onto their hand-offs
(:mod:`repro.pipeline.protocol`).  The CLI's ``describe`` subcommand
prints them.

Node order is the engines' stage-start order, which breaks ties between
simultaneous events; the MCPC host process therefore comes last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..filters import FILTER_ORDER
from .arrangements import Placement, make_placement

__all__ = ["CONFIGURATIONS", "FILTER_KEYS", "SIF_SOCKET", "SIF_CAPACITY",
           "PER_FRAME_COSTS", "StageOp", "StageNode", "ConfigDescription",
           "describe"]

CONFIGURATIONS = ("single_core", "one_renderer", "n_renderers",
                  "mcpc_renderer")

#: pipeline stage order within a pipeline (the filters' own order)
FILTER_KEYS = FILTER_ORDER

#: the MCPC host -> connect stage socket: a bounded queue of whole frames
SIF_SOCKET = "sif-socket"
SIF_CAPACITY = 2

#: ``compute`` cost kinds whose cost changes with the frame (the
#: renderers: their cost follows the walkthrough's culling statistics)
PER_FRAME_COSTS = frozenset({"render", "render-strip", "single-core"})

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


class StageOp(NamedTuple):
    """One step of a stage's per-frame loop.

    ``kind`` is one of

    * ``recv`` (``arg`` = source core): RCCE receive, then fetch the
      strip from the own partition;
    * ``get`` / ``put`` (``arg`` = queue name): take / hand a whole
      frame from / to a bounded queue;
    * ``mesh`` (``arg`` = ``"sif"``): the frame crosses the mesh from
      the system interface to this core;
    * ``compute`` (``arg`` = cost kind: a filter key, ``"render"``,
      ``"render-strip"``, ``"single-core"``, ``"connect"`` or
      ``"assemble"``): a compute burst on the stage's processor;
    * ``write_own``: land the frame in the own partition;
    * ``send`` (``arg`` = destination core): deposit a strip in the
      receiver's partition (RCCE send);
    * ``udp`` (``arg`` = ``"uplink"`` or ``"downlink"``): move the frame
      over a host link;
    * ``done``: the frame reaches the viewer.

    ``strip`` is the strip whose bytes a ``recv``/``send`` moves, or
    whose pixels or profile a ``compute`` costs (None: the whole frame).
    """

    kind: str
    arg: Any = None
    strip: Optional[int] = None

    def __str__(self) -> str:
        if self.arg is None or self.kind == "compute":
            return self.kind
        return f"{self.kind} {self.arg}"


@dataclass(frozen=True)
class StageNode:
    """One stage instance in the graph."""

    key: str
    core: Optional[int]           # None = runs on the MCPC
    feeds: Tuple[str, ...] = ()
    #: the pipeline a per-pipeline stage belongs to
    pipeline: Optional[int] = None
    #: the per-frame loop, in order (see :class:`StageOp`)
    program: Tuple[StageOp, ...] = ()

    @property
    def base(self) -> str:
        """The key without its pipeline index: ``sepia[0]`` -> ``sepia``."""
        return self.key.split("[")[0]

    @property
    def input_steps(self) -> Tuple[int, ...]:
        """Positions of the program's input ops (``recv``/``get``)."""
        return tuple(i for i, op in enumerate(self.program)
                     if op.kind in ("recv", "get"))


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
            ops = ", ".join(str(op) for op in s.program)
            lines.append(f"  {s.key:12s} [{where}]{feeds}: {ops}")
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
        desc.stages.append(StageNode(
            "single-core", placement.input_cores[0], ("viewer",),
            program=(StageOp("compute", "single-core"),
                     StageOp("udp", "downlink"), StageOp("done"))))
        return desc

    n = placement.num_pipelines
    desc = ConfigDescription(config, placement.arrangement, n,
                             _SUMMARIES[config], placement=placement)
    stages = desc.stages
    first = tuple(chain[0] for chain in placement.filter_cores)
    sepias = tuple(f"sepia[{p}]" for p in range(n))
    sends = tuple(StageOp("send", dst, p) for p, dst in enumerate(first))
    if config == "n_renderers":
        for p in range(n):
            stages.append(StageNode(
                f"render[{p}]", placement.input_cores[p], (sepias[p],),
                pipeline=p,
                program=(StageOp("compute", "render-strip", p), sends[p])))
    elif config == "one_renderer":
        stages.append(StageNode(
            "render", placement.input_cores[0], sepias,
            program=(StageOp("compute", "render"), *sends)))
    else:
        stages.append(StageNode(
            "connect", placement.input_cores[0], sepias,
            program=(StageOp("get", SIF_SOCKET), StageOp("mesh", "sif"),
                     StageOp("compute", "connect"), StageOp("write_own"),
                     *sends)))

    for p, chain in enumerate(placement.filter_cores):
        hops = (placement.input_cores[p if config == "n_renderers" else 0],
                *chain, placement.transfer_core)
        for j, key in enumerate(FILTER_KEYS):
            feeds = (f"{FILTER_KEYS[j + 1]}[{p}]"
                     if j + 1 < len(FILTER_KEYS) else "transfer")
            stages.append(StageNode(
                f"{key}[{p}]", chain[j], (feeds,), pipeline=p,
                program=(StageOp("recv", hops[j], p),
                         StageOp("compute", key, p),
                         StageOp("send", hops[j + 2], p))))

    stages.append(StageNode(
        "transfer", placement.transfer_core, ("viewer",),
        program=(*(StageOp("recv", chain[-1], p)
                   for p, chain in enumerate(placement.filter_cores)),
                 StageOp("compute", "assemble"), StageOp("udp", "downlink"),
                 StageOp("done"))))
    if config == "mcpc_renderer":
        stages.append(StageNode(
            "mcpc-render", None, ("connect",),
            program=(StageOp("compute", "render"), StageOp("udp", "uplink"),
                     StageOp("put", SIF_SOCKET))))
    return desc
