"""Macro-pipeline stages as discrete-event processes.

Each stage is one simulated SCC core running a loop:

    wait for input → fetch it from the private partition → compute →
    deposit the result in the successor's partition → repeat

exactly the structure the paper describes for RCCE programs on a chip
without local memory.  The loop is not written per stage: every node of
the stage graph carries its per-frame op program
(:class:`~repro.pipeline.describe.StageOp`), and :class:`Stage`
interprets it on the event kernel through the chip, RCCE and UDP
models.  The batched engine compiles the same programs
(:mod:`repro.engine.batched`).  The per-stage bookkeeping follows from
the program's shape:

* **idle** is the wait of the first input op (Fig. 15); the waits of
  later inputs are telemetry-only ``wait`` spans;
* **busy** runs from the end of the last input op to the end of the
  frame; a stage without inputs is busy from its loop top, where it
  also marks the frame's birth (first writer wins);
* **tags**: an input sets the frame tag a stage stamps on its sends and
  spans (the message's tag, the queue item); a stage without inputs
  stamps its frame number.

All stages share a :class:`StageContext` carrying the chip, the RCCE
layer, the cost model, the workload and the metrics collector.  Messages
carry byte counts and frame indices only: the DES advances by modeled
times alone.  The pixels the stages would draw are a pure function of
the workload and seed (:mod:`repro.pipeline.film`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

from ..host import MCPC, UDPChannel, UDPConfig
from ..rcce import RCCEComm
from ..render import RenderProfile
from ..scc import SCCChip
from ..scc.topology import SIF_LOCATION
from ..sim import Store
from ..telemetry import MetricsSink, Telemetry
from .costmodel import CostModel
from .describe import PER_FRAME_COSTS, ConfigDescription, StageNode, StageOp
from .metrics import RunMetrics
from .workload import WalkthroughWorkload

__all__ = ["StageContext", "Stage", "compute_cost", "cost_table",
           "run_stages"]


@dataclass
class StageContext:
    """Everything a stage needs to run."""

    chip: SCCChip
    comm: RCCEComm
    cost: CostModel
    #: the walkthrough, or a macro run's item tables
    workload: WalkthroughWorkload
    metrics: RunMetrics
    frames: int
    num_pipelines: int
    #: SCC → MCPC link (transfer stage → visualization client)
    downlink: Optional[UDPChannel] = None
    #: MCPC → SCC link (host renderer → connect stage)
    uplink: Optional[UDPChannel] = None
    mcpc: Optional[MCPC] = None
    #: the telemetry hub the stages report into; a private disabled hub
    #: is created when none is given so the metrics sink always has
    #: somewhere to listen
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        if self.telemetry is None:
            self.telemetry = Telemetry(enabled=False)
        # RunMetrics is a thin consumer of the hub: stages emit spans,
        # this sink translates them.  It is per-context, so detach it
        # (detach_sinks) before reusing an externally supplied hub for
        # another run.
        self._sinks = [self.telemetry.add_sink(MetricsSink(self.metrics))]

    def detach_sinks(self) -> None:
        """Remove this context's metrics sink from the hub."""
        assert self.telemetry is not None
        for sink in self._sinks:
            self.telemetry.remove_sink(sink)
        self._sinks = []

    @property
    def sim(self):
        return self.chip.sim


def compute_cost(op: StageOp, cost: CostModel, workload: WalkthroughWorkload,
                 pipelines: int, uplink: Optional[UDPConfig]
                 ) -> Callable[[int], float]:
    """Frame -> seconds at 533 MHz on an SCC core of a ``compute`` op.

    Only the :data:`~repro.pipeline.describe.PER_FRAME_COSTS` kinds
    depend on the frame; ``connect`` needs the uplink (its datagram
    count); ``item`` reads a macro run's ``seconds[stage][item]``.  Both
    engines and the cluster cost their compute ops here.
    """
    kind, p = op.arg, op.strip
    if kind == "item":
        return workload.seconds[p].__getitem__
    if kind in PER_FRAME_COSTS:
        strip = _cost_strip(op, pipelines)
        return lambda f: _frame_cost(kind, cost, workload.profile(f, *strip))
    if kind == "connect":
        assert uplink is not None
        seconds = cost.connect_seconds(
            uplink.datagrams_for(workload.frame_bytes()), pipelines)
    elif kind == "assemble":
        seconds = cost.assemble_seconds(workload.image_side ** 2)
    else:  # one of the filters, on its pipeline's strip
        seconds = cost.filter_seconds(
            kind, workload.viewport(p, pipelines).pixels)
    return lambda f: seconds


def cost_table(op: StageOp, cost: CostModel, workload: WalkthroughWorkload,
               pipelines: int) -> np.ndarray:
    """Every frame's :func:`compute_cost` of a per-frame ``compute`` op
    (a :data:`~repro.pipeline.describe.PER_FRAME_COSTS` kind), priced in
    one element-wise pass over the culling table: the same arithmetic in
    the same order, so each entry equals the scalar cost bit for bit."""
    return _frame_cost(op.arg, cost,
                       workload.profile_table(*_cost_strip(op, pipelines)))


def _cost_strip(op: StageOp, pipelines: int) -> Tuple[int, int]:
    """``(strip, strips)`` a per-frame compute renders: its own strip of
    the split, or the full frame."""
    return (op.strip, pipelines) if op.arg == "render-strip" else (0, 1)


def _frame_cost(kind: str, cost: CostModel, profile: RenderProfile) -> Any:
    """Seconds of a per-frame compute over ``profile`` (scalar counters,
    or :meth:`WalkthroughWorkload.profile_table`'s arrays)."""
    if kind == "single-core":
        return cost.single_core_frame_seconds(profile)
    return cost.render_seconds(profile, sort_first=kind == "render-strip")


class Stage:
    """One stage node's op program as a discrete-event process.

    ``queues`` maps the program's queue names (``get``/``put``) to the
    run's :class:`~repro.sim.Store` instances.  A node without a core
    runs on the MCPC: its computes go through the host model and its
    busy span is a ``host`` span, invisible to the stage metrics.
    """

    def __init__(self, node: StageNode, ctx: StageContext,
                 queues: Optional[Dict[str, Store]] = None) -> None:
        self.node = node
        self.key = node.key
        self.core_id = node.core
        self.ctx = ctx
        self.queues = queues or {}
        self.links = {"uplink": ctx.uplink, "downlink": ctx.downlink}
        if node.core is None and (ctx.mcpc is None or ctx.uplink is None):
            raise ValueError("MCPC rendering needs ctx.mcpc and ctx.uplink")

    # -- telemetry --------------------------------------------------------
    # Each recorder is resolved once per run and is None when no reader
    # of the hub reads what it would log.

    def _busy_recorder(self) -> Optional[Callable[[float, int], None]]:
        """Callback logging a service interval ending now.

        The attached :class:`~repro.telemetry.MetricsSink` turns the span
        into the historical ``metrics.record_busy`` call; an enabled hub
        retains it for the Chrome trace and the Gantt chart.  ``frame``
        tags the span with the frame being served so the insight engine
        can label critical-path segments.  The MCPC's span is a ``host``
        span: the MCPC is no SCC core and stays invisible to the stage
        metrics.
        """
        ctx, key = self.ctx, self.key
        tel = ctx.telemetry
        assert tel is not None
        category = "stage" if self.core_id is not None else "host"
        span = tel.wants(category, "busy", key)
        # Per-instance keys (blur[2], not blur): RunMetrics already
        # aggregates per kind; the registry keeps the resolution.
        count = self.core_id is not None and tel.keeps("stage")
        if not (span or count):
            return None
        frames_name = f"stage.{key}.frames"
        busy_name = f"stage.{key}.busy_s"

        def record(start: float, frame: int) -> None:
            now = ctx.sim.now
            if span:
                tel.span(category, key, "busy", start, now, frame=frame)
            if count:
                tel.counters.inc(frames_name)
                tel.counters.inc(busy_name, now - start)

        return record

    def _idle_recorder(self) -> Optional[Callable[[float], None]]:
        """Callback logging the first input's wait, ending now."""
        ctx, key = self.ctx, self.key
        tel = ctx.telemetry
        assert tel is not None
        span = tel.wants("stage", "idle", key)
        count = tel.keeps("stage")
        if not (span or count):
            return None
        idle_name = f"stage.{key}.idle_s"

        def record(seconds: float) -> None:
            now = ctx.sim.now
            if span:
                tel.span("stage", key, "idle", now - seconds, now)
            if count:
                tel.counters.inc(idle_name, seconds)

        return record

    def _wait_recorder(self, src: Any) -> Optional[Callable[[float], None]]:
        """Callback recording a later input's wait as a ``wait`` span.

        RunMetrics' Fig. 15 idle definition only counts the first
        input's wait (``idle`` spans); the later inputs' waits use a
        distinct span name so the metrics sink ignores them while the
        insight engine still sees the full starvation window.
        """
        ctx, key = self.ctx, self.key
        tel = ctx.telemetry
        assert tel is not None
        if not tel.wants("stage", "wait", key):
            return None

        def record(seconds: float) -> None:
            if seconds > 0.0:
                now = ctx.sim.now
                tel.span("stage", key, "wait", now - seconds, now,
                         src_core=src)

        return record

    # -- the interpreter --------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        """Run the node's program once per frame."""
        ctx = self.ctx
        sim = ctx.sim
        chip = ctx.chip
        comm = ctx.comm
        metrics = ctx.metrics
        core = self.core_id
        n = ctx.num_pipelines
        wl = ctx.workload
        inputs = self.node.input_steps
        uplink = ctx.uplink.config if ctx.uplink is not None else None
        # Loop-invariant work (costs, byte counts, callbacks) is
        # resolved once, so the frame loop only dispatches.
        steps = []
        for i, op in enumerate(self.node.program):
            kind, arg = op.kind, op.arg
            extra: Any = None
            if kind in ("recv", "get"):
                extra = (self._idle_recorder() if i == inputs[0]
                         else self._wait_recorder(arg))
                if kind == "get":
                    arg = self.queues[arg]
            elif kind == "compute":
                if core is None:
                    kind = "mcpc"
                arg = compute_cost(op, ctx.cost, wl, n, uplink)
            elif kind == "send":
                # bytes by frame: a strip's size, or each macro item's
                extra = wl.send_bytes(op.strip, n)
            elif kind == "put":
                arg = self.queues[arg]
            elif kind != "done":  # whole-frame moves
                extra = wl.frame_bytes()
                if kind == "udp":
                    arg = self.links[arg]
                elif kind == "mesh":
                    arg = chip.topology.core(core).coord
            steps.append((kind, arg, extra))
        compute_time = chip.compute_time
        record_busy = self._busy_recorder()
        for frame in range(ctx.frames):
            tag = frame
            start = sim.now
            if not inputs:
                metrics.mark_frame_birth(frame, start)
            for kind, arg, extra in steps:
                if kind == "recv":
                    msg = yield from comm.recv(core, arg, idle_cb=extra)
                    tag = msg.tag
                    start = sim.now
                elif kind == "compute":
                    yield sim.timeout(compute_time(core, arg(frame)))
                elif kind == "send":
                    yield from comm.send(core, arg, extra[frame], tag=tag)
                elif kind == "get":
                    wait_start = sim.now
                    tag = yield arg.get()
                    if extra is not None:
                        extra(sim.now - wait_start)
                    start = sim.now
                elif kind == "mesh":
                    # the frame enters the chip at the system interface
                    # router and crosses the mesh to this core
                    yield from chip.mesh.transfer(SIF_LOCATION, arg, extra,
                                                  core=core)
                elif kind == "write_own":
                    yield from chip.memory.write_own(core, extra)
                elif kind == "udp":
                    yield from arg.transfer(extra)
                elif kind == "mcpc":
                    # mcpc.compute() takes SCC-core-seconds and applies
                    # the Xeon's speed-up internally
                    assert ctx.mcpc is not None
                    yield from ctx.mcpc.compute(arg(frame))
                elif kind == "put":
                    yield arg.put(tag)
                else:  # done
                    metrics.record_frame_done(tag, sim.now)
            if record_busy is not None:
                record_busy(start, tag)

    def start(self):
        """Spawn the stage on the context's simulator."""
        tel = self.ctx.telemetry
        assert tel is not None
        if (self.core_id is not None
                and tel.wants("stage", "bind", self.key)):
            # Track -> core binding: lets trace consumers group stage
            # slices by the core they actually ran on.
            tel.emit("stage", "bind", self.ctx.sim.now, track=self.key,
                     core=self.core_id)
        return self.ctx.sim.process(self.run(), name=self.key)

    def __repr__(self) -> str:
        return f"<Stage {self.key!r} core={self.core_id}>"


def run_stages(ctx: StageContext, graph: ConfigDescription) -> None:
    """Run ``graph`` until every stage ends (at ``ctx.sim.now``), its
    cores powered on.  Both runners run here."""
    sim, power = ctx.sim, ctx.chip.power
    queues = {name: Store(sim, capacity=capacity, name=name)
              for name, capacity in graph.queues.items()}
    stages = [Stage(node, ctx, queues) for node in graph.stages]
    power.set_cores_active(graph.cores, True)
    processes = [stage.start() for stage in stages]
    sim.run(until=sim.all_of(processes))
    power.set_cores_active(graph.cores, False)
