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

The wiring is :func:`~repro.pipeline.describe.describe`'s cluster graph;
nothing in it is shared, so the max-plus evaluator times it exactly
(:func:`~repro.pipeline.protocol.evaluate`).  This module prices its ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..host import UDPConfig
from ..pipeline.costmodel import CostModel
from ..pipeline.describe import (CLUSTER_CONFIGURATIONS, FILTER_KEYS,
                                 PER_FRAME_COSTS, StageOp, describe)
from ..pipeline.metrics import RunMetrics, RunResult
from ..pipeline.protocol import evaluate
from ..pipeline.runner import whole
from ..pipeline.stage import compute_cost
from ..pipeline.workload import WalkthroughWorkload, default_workload

__all__ = ["CLUSTER_CONFIGURATIONS", "ClusterConfig", "ClusterRunner"]


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
        self.config = config
        self.pipelines = whole(pipelines, "pipelines", least=1)
        self.frames = whole(frames, "frames", least=1)
        self.image_side = image_side
        # the process-wide memoized city, as PipelineRunner shares it
        shared = default_workload(self.frames, image_side)
        self.workload = shared if workload is None else workload
        if self.workload.frames < self.frames:
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

    def _costs(self, op: StageOp) -> Tuple[List[float], ...]:
        """Seconds ``op`` adds on a Mogon node, one per-frame list per
        addition: SCC costs over the node's speed-ups, and its own links."""
        cfg, wl, n = self.cluster_config, self.workload, self.pipelines
        net = cfg.network
        if op.kind == "udp":
            seconds = (net.hold_seconds(wl.frame_bytes()), net.latency_s)
        elif op.kind == "put" and op.strip is not None:  # shared memory
            seconds = (wl.strip_bytes(op.strip, n) / cfg.shm_bandwidth,)
        elif op.kind != "compute":
            return ()
        elif op.arg == "connect":  # receive the frame's datagrams
            seconds = (net.datagrams_for(wl.frame_bytes())
                       * cfg.recv_per_datagram_s,)
        else:
            scc = compute_cost(op, self.cost, wl, n, None)
            if op.arg in PER_FRAME_COSTS:
                return ([scc(f) / cfg.render_speedup
                         for f in range(self.frames)],)
            s = scc(0) / cfg.filter_speedup
            seconds = (s + cfg.sync_overhead_s if op.arg in FILTER_KEYS
                       else s,)
        return tuple([s] * self.frames for s in seconds)

    def run(self) -> RunResult:
        """Compute the walkthrough; returns a :class:`RunResult` (power
        fields are zero — the paper reports no Mogon power)."""
        graph = describe(self.config, self.pipelines)
        end, idle, busy = evaluate(graph, self.frames, self._costs)
        metrics = RunMetrics()
        metrics.record_stage_samples(idle, busy)
        return RunResult(
            config=f"hpc_{self.config}",
            arrangement=graph.arrangement,
            pipelines=self.pipelines,
            frames=self.frames,
            walkthrough_seconds=end,
            cores_used=len(graph.cores),
            scc_energy_j=0.0,
            scc_avg_power_w=0.0,
            mcpc_energy_above_idle_j=0.0,
            idle_quartiles=metrics.idle_quartiles(),
            busy_means={k: acc.mean for k, acc in metrics.busy.items()},
        )
