"""The pipeline runner: build a configuration, simulate it, report.

This is the library's main entry point:

>>> from repro.pipeline import PipelineRunner
>>> result = PipelineRunner(config="mcpc_renderer", pipelines=5).run()
>>> round(result.walkthrough_seconds)  # doctest: +SKIP
52

Configurations (paper §V):

* ``"single_core"`` — the 382 s baseline, everything on one core;
* ``"one_renderer"`` — one SCC render core feeding n pipelines;
* ``"n_renderers"`` — a sort-first render core per pipeline;
* ``"mcpc_renderer"`` — the heterogeneous setup: the host renders and
  streams frames through a connect stage on the SCC.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..host import MCPC, MCPCConfig, UDPChannel, UDPConfig
from ..obsv.eventlog import EVENT_LOG
from ..rcce import RCCEComm
from ..scc import DVFSController, PowerModel, SCCChip, SCCConfig
from ..sim import Simulator
from ..telemetry import Telemetry
from .arrangements import Placement
from .costmodel import CostModel
from .describe import CONFIGURATIONS, FILTER_KEYS, ConfigDescription, describe
from .metrics import RunMetrics, RunResult
from .stage import StageContext, run_stages
from .workload import WalkthroughWorkload, default_workload

__all__ = ["CONFIGURATIONS", "ENGINES", "PipelineRunner", "FILTER_KEYS",
           "DOWNLINK_CONFIG", "whole"]

#: available execution engines (see ``repro.engine`` for "batched")
ENGINES = ("event", "batched")

#: SCC → MCPC viewer link: PCIe DMA reads are fast, so the transfer
#: stage's UDP send of a full frame costs ~20 ms (part of the 25 ms
#: transfer-stage budget of Fig. 8).
DOWNLINK_CONFIG = UDPConfig(mtu_payload=1472, bandwidth=40e6,
                            per_datagram_overhead=10e-6, latency_s=100e-6)


def whole(value: Any, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int, refusing a bool and any lossy conversion
    (``2.5``); ``"3"`` and ``10.0`` pass.  ``least`` bounds it below."""
    try:
        number = int(value)
        lossy = number != value and not isinstance(value, str)
    except (TypeError, ValueError, OverflowError):
        lossy = True
    if lossy or isinstance(value, bool):
        raise ValueError(f"{name} must be a whole number, not {value!r}")
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}")
    return number


class PipelineRunner:
    """Builds and runs one parallel-macro-pipeline configuration.

    Parameters
    ----------
    config:
        One of :data:`CONFIGURATIONS`.
    pipelines:
        Number of parallel pipelines (ignored for ``single_core``).
    arrangement:
        ``"unordered"`` / ``"ordered"`` / ``"flipped"``.
    frames:
        Walkthrough length (paper: 400).
    image_side:
        Square frame side in pixels (paper main runs: 400).
    workload:
        Shared workload (defaults to the memoized module-level one so
        octree profiles are computed once per process).
    chip_config, cost, mcpc_config:
        Model parameter overrides for ablations.
    power_trace_dt:
        When set, the result carries the SCC power trace sampled at this
        period (seconds).
    seed:
        Root seed of the run's identity (``RunSpec.seed``).  Timing does
        not depend on it; it seeds the film's stochastic filters
        (:func:`repro.pipeline.film.render_film`).
    telemetry:
        An enabled :class:`~repro.telemetry.Telemetry` hub to instrument
        the run (events, counters, Chrome traces, Gantt charts via
        :func:`~repro.telemetry.render_gantt`); available as
        ``self.last_telemetry`` afterwards.  When omitted, a private
        disabled hub carries the metrics with near-zero overhead.

    After :meth:`run`, ``last_chip`` is the event engine's
    :class:`~repro.scc.SCCChip` with its mesh, memory and power state;
    a run the batched engine served builds no chip and leaves it None.
    """

    def __init__(
        self,
        config: str = "one_renderer",
        pipelines: int = 1,
        arrangement: str = "ordered",
        frames: int = 400,
        image_side: int = 400,
        workload: Optional[WalkthroughWorkload] = None,
        chip_config: Optional[SCCConfig] = None,
        cost: Optional[CostModel] = None,
        mcpc_config: Optional[MCPCConfig] = None,
        power_trace_dt: Optional[float] = None,
        seed: int = 0,
        placement: Optional[Placement] = None,
        frequency_plan: Optional[dict] = None,
        telemetry: Optional[Telemetry] = None,
        engine: str = "event",
    ) -> None:
        if config not in CONFIGURATIONS:
            raise ValueError(
                f"unknown config {config!r}; choose from {CONFIGURATIONS}")
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {ENGINES}")
        self.config = config
        self.pipelines = whole(pipelines, "pipelines")
        self.arrangement = arrangement
        self.frames = whole(frames, "frames", least=1)
        self.image_side = image_side
        if workload is not None:
            self.workload = workload
        else:
            # Memoized per (frames, image_side): workload construction and
            # its lazy render profiles are pure functions of the two
            # parameters, and rebuilding them dominated short runs.
            self.workload = default_workload(self.frames, image_side)
        if self.workload.frames < self.frames:
            raise ValueError("workload has fewer frames than requested")
        self.chip_config = chip_config
        self.cost = cost or CostModel()
        self.mcpc_config = mcpc_config
        #: True when every result-determining input is declarative, i.e.
        #: the run is expressible as a :class:`repro.exec.RunSpec` and
        #: therefore shardable/cacheable (no live object overrides).  The
        #: process-wide memoized workload counts as declarative: it is
        #: exactly what the runner builds itself, just shared (identity
        #: check, so a custom workload object still disqualifies).
        self.spec_exact = (chip_config is None and cost is None
                          and mcpc_config is None
                          and (workload is None or workload is
                               default_workload(self.frames, image_side)))
        self.power_trace_dt = power_trace_dt
        self.seed = seed
        self.placement_override = placement
        #: stage key -> frequency in MHz, applied to the stage's tile
        #: before the run (the §VI-D DVFS experiments); unused tiles of
        #: an affected voltage island follow the island's minimum planned
        #: frequency so whole islands can change voltage.
        self.frequency_plan = frequency_plan
        #: optional telemetry hub shared by all subsystems of the run
        self.telemetry = telemetry
        #: ``"event"`` (the discrete-event kernel) or ``"batched"`` (the
        #: steady-state frame-wave engine in :mod:`repro.engine`)
        self.engine = engine

    def spec(self):
        """This run as a :class:`repro.exec.RunSpec` (its cache identity).

        Raises ``ValueError`` when the runner carries live overrides
        (custom workload, chip config, cost model, MCPC config) that a
        declarative spec cannot express or hash.
        """
        # Imported lazily: repro.exec depends on repro.pipeline.
        from ..exec import RunSpec

        if not self.spec_exact:
            raise ValueError(
                "runner carries live object overrides (workload/chip/"
                "cost/mcpc); it cannot be expressed as a RunSpec")
        return RunSpec(
            platform="scc",
            config=self.config,
            pipelines=self.pipelines,
            arrangement=self.arrangement,
            frames=self.frames,
            image_side=self.image_side,
            seed=self.seed,
            power_trace_dt=self.power_trace_dt,
            frequency_plan=self.frequency_plan,
            placement=self.placement_override,
            engine=self.engine,
        )

    def _log_digest(self) -> str:
        """Cache-identity digest for event-log context.

        Empty when the runner carries live overrides a spec cannot hash
        — the log record then still carries the ``digest`` key, just
        blank, which keeps ``run.*`` records schema-valid.
        """
        if not self.spec_exact:
            return ""
        try:
            from ..exec import engine_fingerprint
            return self.spec().digest(engine_fingerprint())
        except Exception:
            return ""

    # -- build ------------------------------------------------------------
    def _stage_graph(self) -> ConfigDescription:
        """The stage graph this run builds (both engines read it)."""
        return describe(self.config, self.pipelines, self.arrangement,
                        self.placement_override)

    def run(self) -> RunResult:
        """Simulate the walkthrough and return the metrics."""
        obs = None
        if EVENT_LOG.enabled:
            obs = EVENT_LOG.bind(digest=self._log_digest())
            obs.info("run.start", config=self.config,
                     pipelines=self.pipelines, frames=self.frames,
                     arrangement=self.arrangement)
        if self.engine == "batched":
            # Imported lazily: repro.engine depends on this module.
            from ..engine import BatchedEngine

            result = BatchedEngine(self).run()
            if obs is not None:
                obs.info("run.finish", engine="batched",
                         walkthrough_s=result.walkthrough_seconds)
            return result
        sim = Simulator()
        sim.obs_log = obs
        telemetry = self.telemetry or Telemetry(enabled=False)
        chip = SCCChip(sim, self.chip_config, telemetry=telemetry)
        mcpc = MCPC(sim, self.mcpc_config)
        graph = self._stage_graph()
        ctx = StageContext(
            chip=chip, comm=RCCEComm(chip), cost=self.cost,
            workload=self.workload, metrics=RunMetrics(), frames=self.frames,
            num_pipelines=max(graph.pipelines, 1),
            downlink=UDPChannel(sim, DOWNLINK_CONFIG, name="scc-viewer"),
            uplink=mcpc.link, mcpc=mcpc, telemetry=telemetry)

        try:
            self._apply_frequency_plan(chip.dvfs, graph)
            run_stages(ctx, graph)
            end = sim.now
        finally:
            # The metrics sink is per-run; leave a caller-supplied
            # hub clean so a second run does not double-record.
            ctx.detach_sinks()

        #: exposed for post-run inspection (tests, notebooks)
        self.last_metrics = ctx.metrics
        self.last_chip = chip
        self.last_telemetry = telemetry
        assert ctx.mcpc is not None
        result = self._result(graph, end, ctx.metrics, chip.power,
                              ctx.mcpc.energy_above_idle(0.0, end),
                              chip.memory.utilizations())
        if obs is not None:
            obs.info("run.finish", engine="event",
                     walkthrough_s=result.walkthrough_seconds,
                     sim_events=sim.event_count)
        return result

    def _apply_frequency_plan(self, dvfs: DVFSController,
                              graph: ConfigDescription) -> None:
        """Set per-tile frequencies for the §VI-D DVFS experiments."""
        if not self.frequency_plan:
            return
        topology = dvfs.topology
        stage_cores = graph.stage_cores()
        planned_tiles: dict = {}
        for key, mhz in self.frequency_plan.items():
            cores = stage_cores.get(key)
            if not cores:
                raise ValueError(f"frequency plan names unknown stage {key!r}")
            for core in cores:
                tile = topology.core(core).tile.tile_id
                dvfs.set_tile_frequency(tile, mhz)
                planned_tiles[tile] = mhz
        # Let unused tiles of an affected island follow the island's
        # minimum planned frequency so the island voltage can drop.
        used_tiles = {topology.core(c).tile.tile_id for c in graph.cores}
        islands = {topology.tiles[t].voltage_domain: []
                   for t in planned_tiles}
        for tile, mhz in planned_tiles.items():
            islands[topology.tiles[tile].voltage_domain].append(mhz)
        for domain, freqs in islands.items():
            floor = min(freqs)
            for tile in topology.voltage_domain_tiles(domain):
                if tile.tile_id not in used_tiles:
                    dvfs.set_tile_frequency(tile.tile_id, floor)

    # -- report ------------------------------------------------------------
    def _result(self, graph: ConfigDescription, end: float,
                metrics: RunMetrics, power: PowerModel, mcpc_energy: float,
                mc_utilizations: List[float]) -> RunResult:
        """The run's :class:`RunResult`; both engines report through it."""
        dt = self.power_trace_dt
        return RunResult(
            config=self.config,
            arrangement=graph.arrangement,
            pipelines=graph.pipelines,
            frames=self.frames,
            walkthrough_seconds=end,
            cores_used=len(graph.cores),
            scc_energy_j=power.energy(0.0, end),
            scc_avg_power_w=power.average_power(0.0, end),
            mcpc_energy_above_idle_j=mcpc_energy,
            idle_quartiles=metrics.idle_quartiles(),
            busy_means={key: acc.mean for key, acc in metrics.busy.items()},
            mc_utilizations=mc_utilizations,
            power_trace=([] if dt is None
                         else power.sampled_trace(0.0, end, dt)),
            latency_quartiles=(metrics.latency.quartiles()
                               if len(metrics.latency) else None),
        )
