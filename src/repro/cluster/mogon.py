"""The Mogon HPC cluster comparison platform (paper §VI-A, Fig. 13).

Mogon nodes (Johannes Gutenberg-University Mainz, 2012) carry 64 cores at
2.1 GHz — "roughly 3.94 times higher than the clock speed of the SCC's
cores" — plus what the SCC lacks: large coherent caches, out-of-order
execution and node-local shared memory.  The paper reruns all three
renderer configurations there:

* ``single_renderer`` / ``parallel_renderer`` — the whole pipeline on one
  node's cores; stage hand-offs are shared-memory copies;
* ``external_renderer`` — the renderer on a *different* node streams
  frames over the interconnect to a connector, mirroring the MCPC setup.

Only relative speeds matter, so the model reuses the SCC stage cost
constants divided by per-stage speed-up factors:

* filters: ~8x — clock (3.94x) times ~2x IPC on streaming kernels;
* render: ~26x — the octree traversal additionally gains from real
  caches (the irregular access pattern that crucifies the P54C);

and node-level communication: shared-memory copies at GB/s within a
node, GbE-class messaging between nodes with per-datagram receive cost.

Every stage is one process with a private channel and no resource is
shared, so the run is a pure tandem line and its timing is a max-plus
recurrence over the (frame, stage) grid rather than an event simulation:

* a stage gets frame ``f`` at ``max(loop_top, upstream_put)``;
* it puts frame ``f`` at ``max(end, downstream_get[f - depth])``, where
  ``depth`` is the queue capacity: 1 between stages, ``SIF_CAPACITY``
  for the external renderer's frame socket;
* its work is added, left to right, in the order the discrete-event
  formulation adds it: ``get + (service + sync) + copy`` for a filter,
  ``t + hold + latency`` for a network leg.

So every time, idle sample and quartile is the one that formulation
computes, bit for bit (it skipped a zero link hold, but adding ``0.0``
to a time is exact).  ``tests/cluster/event_oracle.py`` keeps that
formulation as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..host import UDPConfig
from ..pipeline.costmodel import CostModel
from ..pipeline.describe import FILTER_KEYS, SIF_CAPACITY
from ..pipeline.metrics import RunMetrics, RunResult
from ..pipeline.workload import WalkthroughWorkload, default_workload

__all__ = ["CLUSTER_CONFIGURATIONS", "ClusterConfig", "ClusterRunner"]

CLUSTER_CONFIGURATIONS = ("external_renderer", "single_renderer",
                          "parallel_renderer")


@dataclass(frozen=True)
class ClusterConfig:
    """Mogon node and interconnect parameters."""

    #: speed-up of the filter kernels vs a 533 MHz P54C
    filter_speedup: float = 7.5
    #: speed-up of the renderer (octree + rasterizer) vs a 533 MHz P54C
    render_speedup: float = 26.0
    #: intra-node shared-memory copy bandwidth (bytes/s)
    shm_bandwidth: float = 2e9
    #: inter-node network (GbE-class), used viewer-ward and for the
    #: external renderer's frame feed
    network: UDPConfig = UDPConfig(mtu_payload=1472, bandwidth=125e6,
                                   per_datagram_overhead=8e-6,
                                   latency_s=50e-6)
    #: receive-side kernel cost per datagram on the connector node
    recv_per_datagram_s: float = 110e-6
    #: per-frame synchronization overhead between stages (condvars etc.)
    sync_overhead_s: float = 0.2e-3


class ClusterRunner:
    """Run one cluster configuration of the walkthrough.

    Parameters mirror :class:`~repro.pipeline.PipelineRunner` where they
    apply; there are no arrangements (nodes are symmetric) and no power
    model (the paper reports none for Mogon).
    """

    def __init__(
        self,
        config: str = "single_renderer",
        pipelines: int = 1,
        frames: int = 400,
        image_side: int = 400,
        workload: Optional[WalkthroughWorkload] = None,
        cost: Optional[CostModel] = None,
        cluster_config: Optional[ClusterConfig] = None,
    ) -> None:
        if config not in CLUSTER_CONFIGURATIONS:
            raise ValueError(f"unknown cluster config {config!r}; choose "
                             f"from {CLUSTER_CONFIGURATIONS}")
        if pipelines < 1:
            raise ValueError("pipelines must be >= 1")
        if frames < 1:
            raise ValueError("frames must be >= 1")
        self.config = config
        self.pipelines = pipelines
        self.frames = frames
        self.image_side = image_side
        # the process-wide memoized city, as PipelineRunner shares it
        shared = default_workload(frames, image_side)
        self.workload = shared if workload is None else workload
        if self.workload.frames < frames:
            raise ValueError("workload has fewer frames than requested")
        self.cost = cost or CostModel()
        self.cluster_config = cluster_config or ClusterConfig()
        #: True when the run is expressible as a repro.exec.RunSpec
        #: (no live object overrides), hence shardable/cacheable; the
        #: shared memoized workload counts as declarative (identity check)
        self.spec_exact = (self.workload is shared and cost is None
                           and cluster_config is None)

    def spec(self):
        """This run as a :class:`repro.exec.RunSpec` (its cache identity)."""
        # Imported lazily: repro.exec depends on repro.cluster.
        from ..exec import RunSpec

        if not self.spec_exact:
            raise ValueError(
                "runner carries live object overrides (workload/cost/"
                "cluster config); it cannot be expressed as a RunSpec")
        return RunSpec(platform="hpc", config=self.config,
                       pipelines=self.pipelines, frames=self.frames,
                       image_side=self.image_side)

    def _render_time(self, frame: int, strip: Optional[int]) -> float:
        if strip is None:
            profile = self.workload.profile(frame)
            t = self.cost.render_seconds(profile)
        else:
            profile = self.workload.profile(frame, strip, self.pipelines)
            t = self.cost.render_seconds(profile, sort_first=True)
        return t / self.cluster_config.render_speedup

    def run(self) -> RunResult:
        """Compute the walkthrough; returns a :class:`RunResult` (power
        fields are zero — the paper reports no Mogon power)."""
        n, config = self.pipelines, self.config
        wl, cfg = self.workload, self.cluster_config
        net = cfg.network
        frame_bytes = wl.frame_bytes()
        hold = net.hold_seconds(frame_bytes)
        copy = [wl.strip_bytes(p, n) / cfg.shm_bandwidth for p in range(n)]
        work = [[self.cost.filter_seconds(key, wl.viewport(p, n).pixels)
                 / cfg.filter_speedup + cfg.sync_overhead_s
                 for key in FILTER_KEYS] for p in range(n)]
        assemble = (self.cost.assemble_seconds(wl.image_side ** 2)
                    / cfg.filter_speedup)
        recv_cpu = net.datagrams_for(frame_bytes) * cfg.recv_per_datagram_s
        stages = range(len(FILTER_KEYS))

        keys = list(FILTER_KEYS)
        if config == "external_renderer":
            keys.insert(0, "connect")
        idle: Dict[str, List[float]] = {k: [] for k in keys}
        busy: Dict[str, List[float]] = {k: [] for k in keys}
        filter_idle = [idle[k] for k in FILTER_KEYS]
        filter_busy = [busy[k] for k in FILTER_KEYS]
        # got[p][s]: when queue s of pipeline p was last read (queue 0
        # feeds the first filter, the last one the transfer stage);
        # free[p][s]: when filter s of pipeline p last finished its put
        got = [[0.0] * (len(FILTER_KEYS) + 1) for _ in range(n)]
        free = [[0.0] * len(FILTER_KEYS) for _ in range(n)]
        src_free = [0.0] * n
        sock_got: List[float] = []
        conn_free = transfer_free = 0.0
        put = [0.0] * n

        for f in range(self.frames):
            # -- source: frame f into every pipeline's first queue ------
            if config == "single_renderer":
                t = src_free[0] + self._render_time(f, None)
                for p in range(n):
                    t = max(t + copy[p], got[p][0])
                    put[p] = t
                src_free[0] = t
            elif config == "parallel_renderer":
                for p in range(n):
                    t = src_free[p] + self._render_time(f, p)
                    put[p] = src_free[p] = max(t + copy[p], got[p][0])
            else:
                # the remote render node ships the whole frame into a
                # SIF_CAPACITY-deep socket; the connector carves strips
                t = (src_free[0] + self._render_time(f, None) + hold
                     + net.latency_s)
                if f >= SIF_CAPACITY:
                    t = max(t, sock_got[f - SIF_CAPACITY])
                src_free[0] = t
                g = max(conn_free, t)
                idle["connect"].append(g - conn_free)
                sock_got.append(g)
                t = g + recv_cpu
                for p in range(n):
                    t = max(t + copy[p], got[p][0])
                    put[p] = t
                busy["connect"].append(t - g)
                conn_free = t
            # -- filter chains ----------------------------------------
            for p in range(n):
                up, got_p, free_p, work_p = put[p], got[p], free[p], work[p]
                for s in stages:
                    top = free_p[s]
                    g = up if up > top else top
                    filter_idle[s].append(g - top)
                    got_p[s] = g
                    t = g + work_p[s] + copy[p]
                    if got_p[s + 1] > t:
                        t = got_p[s + 1]
                    filter_busy[s].append(t - g)
                    free_p[s] = up = t
                put[p] = up
            # -- transfer: gather every strip, assemble, ship to viewer
            t = transfer_free
            for p in range(n):
                t = max(t, put[p])
                got[p][-1] = t
            transfer_free = t + assemble + hold + net.latency_s

        metrics = RunMetrics()
        metrics.record_stage_samples(idle, busy)
        # one core per process, but not the remote external renderer,
        # just as the SCC rows do not count the MCPC host
        sources = n if config == "parallel_renderer" else 1
        return RunResult(
            config=f"hpc_{config}",
            arrangement="cluster",
            pipelines=n,
            frames=self.frames,
            walkthrough_seconds=transfer_free,
            cores_used=len(FILTER_KEYS) * n + sources + 1,
            scc_energy_j=0.0,
            scc_avg_power_w=0.0,
            mcpc_energy_above_idle_j=0.0,
            idle_quartiles=metrics.idle_quartiles(),
            busy_means={k: acc.mean for k, acc in metrics.busy.items()},
        )
