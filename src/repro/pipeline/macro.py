"""Generic macro pipelines on the simulated SCC — the reusable API.

The paper closes by arguing its findings "should easily translate to
other problem domains where parallel macro pipelines are used".  This
module is that generalization: build a pipeline of *arbitrary* stages
(any per-item service time, any Python transform), place it on SCC
cores, and run a stream of work items through it with the same
no-local-memory hand-off semantics as the silent-film pipeline.

A pipeline is a stage graph (:meth:`MacroPipeline.graph`) that runs on
the event engine like the paper configurations
(:func:`repro.pipeline.stage.run_stages`), from per-item tables of
service times and byte sizes.

Example
-------
>>> from repro.pipeline.macro import MacroPipeline
>>> pipe = (MacroPipeline()
...         .add_stage("parse", service_s=0.010)
...         .add_stage("compress",
...                    service_s=lambda item: 0.001 * item.nbytes / 1000)
...         .add_stage("emit", service_s=0.002))
>>> result = pipe.run(items=[100_000] * 50)
>>> result.items_completed
50
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..rcce import RCCEComm
from ..scc import SCCChip
from .costmodel import CostModel
from .describe import ConfigDescription, StageNode, StageOp
from .metrics import RunMetrics
from .runner import whole
from .stage import StageContext, run_stages

__all__ = ["WorkItem", "MacroStageSpec", "MacroRunResult", "MacroPipeline"]

ServiceTime = Union[float, Callable[["WorkItem"], float]]
#: byte counts or ``(nbytes, payload)`` tuples
Items = Sequence[Union[int, Tuple[int, Any]]]

#: the graph node that sends the items into the first stage
SOURCE = "source"


@dataclass
class WorkItem:
    """One unit of work flowing through a macro pipeline."""

    index: int
    nbytes: int
    payload: Any = None


@dataclass(frozen=True)
class MacroStageSpec:
    """Specification of one stage."""

    name: str
    service_s: ServiceTime
    #: optional functional transform applied to the payload
    func: Optional[Callable[[Any], Any]] = None
    #: optional explicit core; auto-placed when None
    core_id: Optional[int] = None

    def service_for(self, item: WorkItem) -> float:
        t = (self.service_s(item) if callable(self.service_s)
             else float(self.service_s))
        if not 0 <= t < math.inf:
            raise ValueError(f"stage {self.name!r}: service time must be "
                             f"finite and >= 0, not {t!r}")
        return t


@dataclass
class MacroRunResult:
    """Outcome of a macro-pipeline run."""

    items_completed: int
    makespan_s: float
    #: steady-state throughput (items/second over the whole run)
    throughput: float
    #: per-stage mean service time
    stage_busy_means: Dict[str, float]
    #: per-stage mean wait-for-input time
    stage_idle_means: Dict[str, float]
    #: payloads collected at the sink (when transforms are used)
    outputs: List[Any] = field(default_factory=list)
    #: joules the chip drew during the run
    energy_j: float = 0.0


class _ItemTables(NamedTuple):
    """A run's per-item data, read where a walkthrough's per-frame data
    is: by ``send`` ops and by ``compute`` ``item`` ops."""

    nbytes: List[int]
    seconds: List[List[float]]

    def send_bytes(self, strip: Optional[int], pipelines: int) -> List[int]:
        return self.nbytes


class MacroPipeline:
    """Builder + runner for arbitrary macro pipelines on the SCC model.

    Parameters
    ----------
    chip:
        A simulated chip; a fresh default one is created when omitted.
    cores:
        Optional explicit core ids, one per stage (in ``add_stage``
        order); defaults to consecutive cores along the chip.
    """

    def __init__(self, chip: Optional[SCCChip] = None,
                 cores: Optional[Sequence[int]] = None) -> None:
        self.chip = chip or SCCChip()
        self.stages: List[MacroStageSpec] = []
        self._explicit_cores = list(cores) if cores is not None else None

    def add_stage(self, name: str, service_s: ServiceTime,
                  func: Optional[Callable[[Any], Any]] = None,
                  core_id: Optional[int] = None) -> "MacroPipeline":
        """Append a stage; returns ``self`` for chaining."""
        if name in (SOURCE, *(s.name for s in self.stages)) or "[" in name:
            # a graph node key; the metrics strip a ``[...]`` suffix
            raise ValueError(f"stage name {name!r} is taken or contains '['")
        self.stages.append(MacroStageSpec(name, service_s, func, core_id))
        return self

    def _assign_cores(self) -> List[int]:
        """The source's core, then one per stage."""
        n, num_cores = len(self.stages), self.chip.num_cores
        if n + 1 > num_cores:
            raise ValueError(f"{n} stages plus the source need {n + 1} "
                             f"cores; the chip has {num_cores}")
        pins = ([s.core_id for s in self.stages]
                if self._explicit_cores is None else self._explicit_cores)
        if len(pins) != n:
            raise ValueError("cores must match the number of stages")
        free = (c for c in range(num_cores) if c not in pins)
        cores = [next(free) if c is None else c for c in pins]
        if len(set(cores)) != len(cores):
            raise ValueError("stages must run on distinct cores")
        for c in cores:
            self.chip.topology.core(c)
        source = next(c for c in range(num_cores) if c not in cores)
        return [source, *cores]

    def _work(self, items: Items) -> List[WorkItem]:
        if not items:
            raise ValueError("nothing to process")
        pairs = (item if isinstance(item, tuple) else (item, None)
                 for item in items)
        return [WorkItem(i, whole(nbytes, "item size", least=0), payload)
                for i, (nbytes, payload) in enumerate(pairs)]

    def graph(self, items: Items) -> ConfigDescription:
        """The stage graph :meth:`run` runs ``items`` through: the source
        node, then stage ``i`` costed by row ``i`` of the cost table."""
        if not self.stages:
            raise ValueError("add at least one stage before running")
        hops, n = self._assign_cores(), len(self.stages)
        names = [SOURCE, *(s.name for s in self.stages)]
        desc = ConfigDescription("macro", "custom", 1,
                                 f"{len(items)} item(s) through {n} stage(s)")
        for i, (name, core) in enumerate(zip(names, hops)):
            ops = [StageOp("recv", hops[i - 1]),
                   StageOp("compute", "item", i - 1)] if i else []
            ops.append(StageOp("send", hops[i + 1]) if i < n
                       else StageOp("done"))
            desc.stages.append(StageNode(name, core, tuple(names[i + 1:i + 2]),
                                         program=tuple(ops)))
        return desc

    def run(self, items: Items) -> MacroRunResult:
        """Push ``items`` through the pipeline.

        Each item is a byte count or a ``(nbytes, payload)`` tuple.
        Transforms run first, as a fold in stage order (each service
        time sees the item as earlier stages left it); the timed run
        moves byte counts only.
        """
        graph, work = self.graph(items), self._work(items)
        seconds = []
        for spec in self.stages:
            seconds.append([spec.service_for(item) for item in work])
            if spec.func is not None:
                work = [WorkItem(item.index, item.nbytes,
                                 spec.func(item.payload)) for item in work]

        sim, metrics = self.chip.sim, RunMetrics()
        t0 = sim.now
        run_stages(StageContext(
            chip=self.chip, comm=RCCEComm(self.chip), cost=CostModel(),
            workload=_ItemTables([item.nbytes for item in work], seconds),
            metrics=metrics, frames=len(work), num_pipelines=1), graph)
        end = sim.now
        done, makespan = len(metrics.frame_completions), end - t0
        return MacroRunResult(
            items_completed=done, makespan_s=makespan,
            throughput=done / makespan if makespan > 0 else 0.0,
            stage_busy_means={k: a.mean for k, a in metrics.busy.items()
                              if k != SOURCE},
            stage_idle_means={k: a.mean for k, a in metrics.idle.items()},
            outputs=[item.payload for item in work
                     if item.payload is not None],
            energy_j=self.chip.power.energy(t0, end),
        )
