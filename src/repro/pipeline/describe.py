"""The stage graph of the paper's configurations.

``describe(config, pipelines, arrangement, placement)`` returns the
stage graph a run builds — which stages exist, on which cores, who
hands frames to whom — without running anything.  It is the one place
the wiring is decided, and each node also carries its **per-frame op
program**: the RCCE loop the paper writes once per core (wait for the
strip, fetch it, compute, deposit it with the successor), spelled as a
short tuple of :class:`StageOp`.  Ops name cores, queues, links, cost
kinds and strips symbolically, so the graph stays free of the workload.

It also wires the Mogon reruns (:data:`CLUSTER_CONFIGURATIONS`, paper
§VI-A): one node's cores, numbered in stage order, hand strips through
private capacity-1 queues, and a coreless remote renderer (like the
MCPC) feeds the external setup's frame socket.

Four consumers read the programs: the event engine interprets them
(:class:`repro.pipeline.stage.Stage`), the batched engine compiles them
to coarse ``(resource, hold)`` programs (:mod:`repro.engine.batched`),
the static deadlock proof projects them onto their hand-offs
(:mod:`repro.pipeline.protocol`), and the max-plus evaluator there
times the cluster graphs.  The CLI's ``describe`` subcommand prints
them.

Node order is the engines' stage-start order, which breaks ties between
simultaneous events; the MCPC host process therefore comes last.  A
cluster graph is in hand-off order instead: the remote renderer first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..filters import FILTER_ORDER
from .arrangements import Placement, make_placement

__all__ = ["CONFIGURATIONS", "CLUSTER_CONFIGURATIONS", "FILTER_KEYS",
           "SIF_SOCKET", "SIF_CAPACITY", "PER_FRAME_COSTS", "StageOp",
           "StageNode", "ConfigDescription", "describe"]

CONFIGURATIONS = ("single_core", "one_renderer", "n_renderers",
                  "mcpc_renderer")

#: the Mogon reruns, each wired like the SCC configuration it maps to
_SCC_TWIN = {"external_renderer": "mcpc_renderer",
             "single_renderer": "one_renderer",
             "parallel_renderer": "n_renderers"}
CLUSTER_CONFIGURATIONS = tuple(_SCC_TWIN)

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
    "external_renderer": "another Mogon node renders and streams frames",
    "single_renderer": "one Mogon core renders and feeds every pipeline",
    "parallel_renderer": "sort-first: a Mogon render core per pipeline",
}


class StageOp(NamedTuple):
    """One step of a stage's per-frame loop.

    ``kind`` is one of

    * ``recv`` (``arg`` = source core): RCCE receive, then fetch the
      strip from the own partition;
    * ``get`` / ``put`` (``arg`` = queue name): take / hand a frame (or
      a cluster stage's strip) from / to a bounded queue;
    * ``mesh`` (``arg`` = ``"sif"``): the frame crosses the mesh from
      the system interface to this core;
    * ``compute`` (``arg`` = cost kind: a filter key, ``"render"``,
      ``"render-strip"``, ``"single-core"``, ``"connect"``, ``"assemble"``
      or a macro stage's ``"item"``): a compute burst on the stage's
      processor;
    * ``write_own``: land the frame in the own partition;
    * ``send`` (``arg`` = destination core): deposit a strip in the
      receiver's partition (RCCE send);
    * ``udp`` (``arg`` = ``"uplink"`` or ``"downlink"``): move the frame
      over a host link;
    * ``done``: the frame reaches the viewer.

    ``strip`` is the strip whose bytes a ``recv``/``send``/``put`` moves, or
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
    #: bounded queues between stages: name -> capacity
    queues: Dict[str, int] = field(default_factory=dict)

    @property
    def cores(self) -> List[int]:
        """Every core the graph occupies, in node order."""
        return [s.core for s in self.stages if s.core is not None]

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
        cluster = self.config in CLUSTER_CONFIGURATIONS
        host, chip = ("remote node", "Node") if cluster else ("MCPC", "SCC")
        lines = [f"{self.config} ({self.arrangement}), "
                 f"{self.pipelines} pipeline(s): {self.summary}",
                 f"{chip} cores used: {len(self.cores)}"]
        for s in self.stages:
            where = host if s.core is None else f"core {s.core:2d}"
            feeds = " -> " + ", ".join(s.feeds) if s.feeds else ""
            ops = ", ".join(str(op) for op in s.program)
            lines.append(f"  {s.key:12s} [{where}]{feeds}: {ops}")
        return "\n".join(lines)


def describe(config: str, pipelines: int = 1, arrangement: str = "ordered",
             placement: Optional[Placement] = None) -> ConfigDescription:
    """Build the stage graph for a configuration without simulating.

    ``placement`` overrides the arrangement's own core assignment (the
    §VI-D DVFS study); the graph then takes its pipeline count and
    arrangement name from it.  A cluster configuration takes neither: a
    Mogon node has no mesh, so its arrangement is ``"cluster"``.
    """
    cluster = config in CLUSTER_CONFIGURATIONS
    shape = _SCC_TWIN.get(config, config)
    if shape not in CONFIGURATIONS:
        raise ValueError(f"unknown config {config!r}; choose from "
                         f"{CONFIGURATIONS + CLUSTER_CONFIGURATIONS}")
    if cluster:
        if placement is not None or pipelines < 1:
            raise ValueError("a cluster graph takes >= 1 pipeline, no placement")
        k, w = (pipelines if shape == "n_renderers" else 1), len(FILTER_KEYS)
        placement = Placement("cluster", list(range(k)), [
            list(range(k + w * p, k + w * (p + 1))) for p in range(pipelines)
        ], k + w * pipelines)
    elif placement is None and config == "single_core":
        placement = Placement(arrangement, input_cores=[0], filter_cores=[],
                              transfer_core=1)
    elif placement is None:
        placement = make_placement(arrangement, pipelines,
                                   per_pipeline_input=config == "n_renderers")
    elif config == "n_renderers" and \
            len(placement.input_cores) != placement.num_pipelines:
        raise ValueError("n_renderers needs one input core per "
                         "pipeline in the placement")

    n = placement.num_pipelines
    desc = ConfigDescription(config, placement.arrangement, n,
                             _SUMMARIES[config], placement=placement)
    stages, queues = desc.stages, desc.queues
    if config == "single_core":
        stages.append(StageNode(
            "single-core", placement.input_cores[0], ("viewer",),
            program=(StageOp("compute", "single-core"),
                     StageOp("udp", "downlink"), StageOp("done"))))
        return desc

    # strip p from core src / to core dst; on the cluster through the
    # private queue of the stage (or transfer input) ``name``
    def take(p: int, src: int, name: str) -> StageOp:
        return StageOp("get", name) if cluster else StageOp("recv", src, p)

    def hand(p: int, dst: int, name: str) -> StageOp:
        if cluster:
            queues[name] = 1
        return StageOp("put", name, p) if cluster else StageOp("send", dst, p)

    first = tuple(chain[0] for chain in placement.filter_cores)
    sepias = tuple(f"sepia[{p}]" for p in range(n))
    sends = tuple(hand(p, dst, sepias[p]) for p, dst in enumerate(first))
    if shape == "n_renderers":
        for p in range(n):
            stages.append(StageNode(
                f"render[{p}]", placement.input_cores[p], (sepias[p],),
                pipeline=p,
                program=(StageOp("compute", "render-strip", p), sends[p])))
    elif shape == "one_renderer":
        stages.append(StageNode(
            "render", placement.input_cores[0], sepias,
            program=(StageOp("compute", "render"), *sends)))
    else:
        queues[SIF_SOCKET] = SIF_CAPACITY
        if cluster:  # the socket lands in the node's own memory
            connect = (StageOp("get", SIF_SOCKET),
                       StageOp("compute", "connect"))
        else:
            connect = (StageOp("get", SIF_SOCKET), StageOp("mesh", "sif"),
                       StageOp("compute", "connect"), StageOp("write_own"))
        stages.append(StageNode("connect", placement.input_cores[0], sepias,
                                program=(*connect, *sends)))

    for p, chain in enumerate(placement.filter_cores):
        hops = (placement.input_cores[p if shape == "n_renderers" else 0],
                *chain, placement.transfer_core)
        names = [f"{key}[{p}]" for key in (*FILTER_KEYS, "transfer")]
        for j, key in enumerate(FILTER_KEYS):
            feeds = names[j + 1] if j + 1 < len(FILTER_KEYS) else "transfer"
            stages.append(StageNode(
                names[j], chain[j], (feeds,), pipeline=p,
                program=(take(p, hops[j], names[j]),
                         StageOp("compute", key, p),
                         hand(p, hops[j + 2], names[j + 1]))))

    stages.append(StageNode(
        "transfer", placement.transfer_core, ("viewer",),
        program=(*(take(p, chain[-1], f"transfer[{p}]")
                   for p, chain in enumerate(placement.filter_cores)),
                 StageOp("compute", "assemble"), StageOp("udp", "downlink"),
                 StageOp("done"))))
    if shape == "mcpc_renderer":
        stages.insert(0 if cluster else len(stages), StageNode(
            "render" if cluster else "mcpc-render", None, ("connect",),
            program=(StageOp("compute", "render"), StageOp("udp", "uplink"),
                     StageOp("put", SIF_SOCKET))))
    return desc
