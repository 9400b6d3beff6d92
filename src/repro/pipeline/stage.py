"""Macro-pipeline stages as discrete-event processes.

Each stage is one simulated SCC core running a loop:

    wait for input → fetch it from the private partition → compute →
    deposit the result in the successor's partition → repeat

exactly the structure the paper describes for RCCE programs on a chip
without local memory.  All stages share a :class:`StageContext` carrying
the chip, the RCCE layer, the cost model, the workload and the metrics
collector.

Messages carry byte counts and frame indices only: the DES advances by
modeled times alone.  The pixels the stages would draw are a pure
function of the workload and seed (:mod:`repro.pipeline.film`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from ..host import MCPC, UDPChannel, VisualizationClient
from ..rcce import RCCEComm
from ..scc import SCCChip
from ..scc.topology import SIF_LOCATION
from ..sim import Store
from ..sim.trace import TraceRecorder
from ..telemetry import MetricsSink, Telemetry, TraceSink
from .costmodel import CostModel
from .metrics import RunMetrics
from .workload import WalkthroughWorkload

__all__ = [
    "StageContext",
    "Stage",
    "SingleRendererStage",
    "StripRendererStage",
    "FilterStage",
    "TransferStage",
    "ConnectStage",
    "MCPCRenderProcess",
    "SingleCoreProcess",
]


@dataclass
class StageContext:
    """Everything a stage needs to run."""

    chip: SCCChip
    comm: RCCEComm
    cost: CostModel
    workload: WalkthroughWorkload
    metrics: RunMetrics
    frames: int
    num_pipelines: int
    viewer: Optional[VisualizationClient] = None
    #: SCC → MCPC link (transfer stage → visualization client)
    downlink: Optional[UDPChannel] = None
    #: MCPC → SCC link (host renderer → connect stage)
    uplink: Optional[UDPChannel] = None
    mcpc: Optional[MCPC] = None
    #: optional activity recorder (one track per stage instance)
    trace: Optional[TraceRecorder] = None
    #: the telemetry hub the stages report into; a private disabled hub
    #: is created when none is given so the metrics/trace sinks always
    #: have somewhere to listen
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        if self.telemetry is None:
            self.telemetry = Telemetry(enabled=False)
        # RunMetrics and TraceRecorder are thin consumers of the hub:
        # stages emit spans, these sinks translate them.  They are
        # per-context, so detach them (detach_sinks) before reusing an
        # externally supplied hub for another run.
        self._sinks = [self.telemetry.add_sink(MetricsSink(self.metrics))]
        if self.trace is not None:
            self._sinks.append(self.telemetry.add_sink(TraceSink(self.trace)))

    def detach_sinks(self) -> None:
        """Remove this context's metrics/trace sinks from the hub."""
        assert self.telemetry is not None
        for sink in self._sinks:
            self.telemetry.remove_sink(sink)
        self._sinks = []

    @property
    def sim(self):
        return self.chip.sim


class Stage:
    """Base class: owns a core and provides timing helpers."""

    def __init__(self, key: str, core_id: int, ctx: StageContext) -> None:
        self.key = key
        self.core_id = core_id
        self.ctx = ctx

    @property
    def base_key(self) -> str:
        """Stage kind without the per-pipeline suffix (metrics key)."""
        return self.key.split("[")[0]

    # -- helpers ------------------------------------------------------------
    def compute(self, seconds_at_533: float) -> Generator[Any, Any, None]:
        """Advance time by a compute burst, scaled to the core's clock."""
        yield self.ctx.sim.timeout(
            self.ctx.chip.compute_time(self.core_id, seconds_at_533))

    def run(self) -> Generator[Any, Any, None]:
        """The stage's process body (override)."""
        raise NotImplementedError

    def record_busy(self, start: float, frame: Optional[int] = None) -> None:
        """Log a service interval via the telemetry hub.

        The attached :class:`~repro.telemetry.MetricsSink` turns the span
        into the historical ``metrics.record_busy`` call; a
        :class:`~repro.telemetry.TraceSink` (when tracing) adds the
        Gantt-chart span.  ``frame`` tags the span with the frame being
        served so the insight engine can label critical-path segments.
        """
        ctx = self.ctx
        now = ctx.sim.now
        tel = ctx.telemetry
        assert tel is not None
        if frame is None:
            tel.span("stage", self.key, "busy", start, now)
        else:
            tel.span("stage", self.key, "busy", start, now, frame=frame)
        if tel.enabled:
            # Per-instance keys (blur[2], not blur): RunMetrics already
            # aggregates per kind; the registry keeps the resolution.
            tel.counters.inc(f"stage.{self.key}.frames")
            tel.counters.inc(f"stage.{self.key}.busy_s", now - start)

    def record_idle(self, seconds: float) -> None:
        """Log a wait interval ending now via the telemetry hub."""
        ctx = self.ctx
        now = ctx.sim.now
        tel = ctx.telemetry
        assert tel is not None
        tel.span("stage", self.key, "idle", now - seconds, now)
        if tel.enabled:
            tel.counters.inc(f"stage.{self.key}.idle_s", seconds)

    def start(self):
        """Spawn the stage on the context's simulator."""
        tel = self.ctx.telemetry
        assert tel is not None
        if tel.enabled:
            # Track -> core binding: lets trace consumers group stage
            # slices by the core they actually ran on.
            tel.emit("stage", "bind", self.ctx.sim.now, track=self.key,
                     core=self.core_id)
        return self.ctx.sim.process(self.run(), name=self.key)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key!r} core={self.core_id}>"


# ---------------------------------------------------------------------------
# render stages
# ---------------------------------------------------------------------------

class SingleRendererStage(Stage):
    """Configuration 1's renderer: one core renders the *full* frame,
    splits it into horizontal strips, and feeds every pipeline."""

    def __init__(self, core_id: int, ctx: StageContext,
                 first_filter_cores: List[int]) -> None:
        super().__init__("render", core_id, ctx)
        self.first_filter_cores = first_filter_cores

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        n = len(self.first_filter_cores)
        for frame in range(ctx.frames):
            start = ctx.sim.now
            ctx.metrics.mark_frame_birth(frame, start)
            profile = ctx.workload.profile(frame)
            yield from self.compute(ctx.cost.render_seconds(profile))
            for p, dst in enumerate(self.first_filter_cores):
                yield from ctx.comm.send(self.core_id, dst,
                                         ctx.workload.strip_bytes(p, n),
                                         tag=frame)
            self.record_busy(start, frame)


class StripRendererStage(Stage):
    """Configuration 2's renderer: one per pipeline, sort-first.

    Culls against its strip sub-frustum (which barely shrinks the
    triangle set) and rasterizes only its strip's pixels; pays the
    paper's frustum-adjustment overhead.
    """

    def __init__(self, core_id: int, ctx: StageContext, pipeline: int,
                 next_core: int) -> None:
        super().__init__(f"render[{pipeline}]", core_id, ctx)
        self.pipeline = pipeline
        self.next_core = next_core

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        n = ctx.num_pipelines
        p = self.pipeline
        for frame in range(ctx.frames):
            start = ctx.sim.now
            ctx.metrics.mark_frame_birth(frame, start)
            profile = ctx.workload.profile(frame, p, n)
            yield from self.compute(
                ctx.cost.render_seconds(profile, sort_first=True))
            nbytes = ctx.workload.strip_bytes(p, n)
            yield from ctx.comm.send(self.core_id, self.next_core, nbytes,
                                     tag=frame)
            self.record_busy(start, frame)


class MCPCRenderProcess:
    """Configuration 3's renderer: the host renders and streams frames
    over the UDP uplink into the connect stage's socket."""

    def __init__(self, ctx: StageContext, connect_queue: Store) -> None:
        if ctx.mcpc is None or ctx.uplink is None:
            raise ValueError("MCPC rendering needs ctx.mcpc and ctx.uplink")
        self.ctx = ctx
        self.connect_queue = connect_queue

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        assert ctx.mcpc is not None and ctx.uplink is not None
        tel = ctx.telemetry
        assert tel is not None
        for frame in range(ctx.frames):
            start = ctx.sim.now
            ctx.metrics.mark_frame_birth(frame, start)
            profile = ctx.workload.profile(frame)
            # mcpc.compute() takes SCC-core-seconds and applies the
            # Xeon's speed-up internally.
            yield from ctx.mcpc.compute(ctx.cost.render_seconds(profile))
            yield from ctx.uplink.transfer(ctx.workload.frame_bytes())
            yield self.connect_queue.put(frame)
            if tel.enabled:
                # Category "host", not "stage": the MCPC is no SCC core
                # and must stay invisible to RunMetrics' stage sink.
                tel.span("host", "mcpc-render", "busy", start, ctx.sim.now,
                         frame=frame)

    def start(self):
        return self.ctx.sim.process(self.run(), name="mcpc-render")


class ConnectStage(Stage):
    """Receives host-rendered frames off the SIF and carves them into
    strips for the pipelines — "this stage does nothing besides receiving
    the frames from the MCPC and distributing them among the pipelines"
    (but the UDP datagram processing on a P54C is anything but free).
    """

    def __init__(self, core_id: int, ctx: StageContext,
                 first_filter_cores: List[int],
                 connect_queue: Store) -> None:
        super().__init__("connect", core_id, ctx)
        self.first_filter_cores = first_filter_cores
        self.connect_queue = connect_queue

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        assert ctx.uplink is not None
        n = len(self.first_filter_cores)
        frame_bytes = ctx.workload.frame_bytes()
        datagrams = ctx.uplink.datagrams_for(frame_bytes)
        my_coord = ctx.chip.topology.core(self.core_id).coord
        connect_cost = ctx.cost.connect_seconds(datagrams, n)
        for _ in range(ctx.frames):
            wait_start = ctx.sim.now
            frame = yield self.connect_queue.get()
            self.record_idle(ctx.sim.now - wait_start)
            start = ctx.sim.now
            # The frame enters the chip at the system interface router
            # and crosses the mesh to this core...
            yield from ctx.chip.mesh.transfer(
                SIF_LOCATION, my_coord, frame_bytes, core=self.core_id)
            # ...then kernel/UDP processing of the fragments, then
            # landing the frame in the private partition.
            yield from self.compute(connect_cost)
            yield from ctx.chip.memory.write_own(self.core_id, frame_bytes)
            for p, dst in enumerate(self.first_filter_cores):
                yield from ctx.comm.send(self.core_id, dst,
                                         ctx.workload.strip_bytes(p, n),
                                         tag=frame)
            self.record_busy(start, frame)


# ---------------------------------------------------------------------------
# filter stages
# ---------------------------------------------------------------------------

class FilterStage(Stage):
    """One of the five silent-film filters on one core of one pipeline."""

    def __init__(self, filter_key: str, core_id: int, ctx: StageContext,
                 pipeline: int, prev_core: int, next_core: int) -> None:
        super().__init__(f"{filter_key}[{pipeline}]", core_id, ctx)
        self.pipeline = pipeline
        self.prev_core = prev_core
        self.next_core = next_core

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        n = ctx.num_pipelines
        pixels = ctx.workload.viewport(self.pipeline, n).pixels
        service = ctx.cost.filter_seconds(self.base_key, pixels)
        sim = ctx.sim
        compute_time = ctx.chip.compute_time
        core_id = self.core_id
        for _ in range(ctx.frames):
            msg = yield from ctx.comm.recv(
                core_id, self.prev_core,
                idle_cb=self.record_idle)
            start = sim.now
            # self.compute(service) inlined: five filter stages per
            # pipeline make this the most-executed stage loop.
            yield sim.timeout(compute_time(core_id, service))
            yield from ctx.comm.send(self.core_id, self.next_core,
                                     msg.nbytes, tag=msg.tag)
            self.record_busy(start, msg.tag)


# ---------------------------------------------------------------------------
# transfer stage
# ---------------------------------------------------------------------------

class TransferStage(Stage):
    """Collects the strips of each frame from all pipelines, assembles
    the frame and ships it to the visualization client over UDP.  There
    is always exactly one transfer stage."""

    def __init__(self, core_id: int, ctx: StageContext,
                 last_filter_cores: List[int]) -> None:
        super().__init__("transfer", core_id, ctx)
        self.last_filter_cores = last_filter_cores

    def _wait_recorder(self, src_core: int):
        """Callback recording a p>=1 strip wait as a ``wait`` span.

        RunMetrics' Fig. 15 idle definition only counts the first strip's
        wait (``idle`` spans); the later strips' waits use a distinct
        span name so the metrics sink ignores them while the insight
        engine still sees the full starvation window.
        """
        tel = self.ctx.telemetry

        def record(seconds: float) -> None:
            if seconds > 0.0:
                now = self.ctx.sim.now
                tel.span("stage", self.key, "wait", now - seconds, now,
                         src_core=src_core)

        return record

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        assert ctx.downlink is not None and ctx.viewer is not None
        tel = ctx.telemetry
        assert tel is not None
        n = len(self.last_filter_cores)
        frame_pixels = ctx.workload.image_side ** 2
        frame_bytes = ctx.workload.frame_bytes()
        assemble_cost = ctx.cost.assemble_seconds(frame_pixels)
        idle_cbs: List[Any] = [self.record_idle]
        for p in range(1, n):
            idle_cbs.append(self._wait_recorder(self.last_filter_cores[p])
                            if tel.enabled else None)
        for frame in range(ctx.frames):
            for p, src in enumerate(self.last_filter_cores):
                yield from ctx.comm.recv(self.core_id, src,
                                         idle_cb=idle_cbs[p])
            start = ctx.sim.now
            yield from self.compute(assemble_cost)
            yield from ctx.downlink.transfer(frame_bytes)
            ctx.viewer.display(frame)
            ctx.metrics.record_frame_done(frame, ctx.sim.now)
            self.record_busy(start, frame)


# ---------------------------------------------------------------------------
# single-core baseline
# ---------------------------------------------------------------------------

class SingleCoreProcess(Stage):
    """The 382 s baseline: the whole pipeline on one core.

    Hand-offs between stages stay in the core's own partition and caches,
    so only compute plus the final UDP send to the viewer is charged.
    """

    def __init__(self, core_id: int, ctx: StageContext) -> None:
        super().__init__("single-core", core_id, ctx)

    def run(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        assert ctx.downlink is not None and ctx.viewer is not None
        frame_bytes = ctx.workload.frame_bytes()
        for frame in range(ctx.frames):
            start = ctx.sim.now
            ctx.metrics.mark_frame_birth(frame, start)
            profile = ctx.workload.profile(frame)
            yield from self.compute(
                ctx.cost.single_core_frame_seconds(profile))
            yield from ctx.downlink.transfer(frame_bytes)
            ctx.viewer.display(frame)
            ctx.metrics.record_frame_done(frame, ctx.sim.now)
            self.record_busy(start, frame)
