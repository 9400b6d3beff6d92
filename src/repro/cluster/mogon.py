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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from ..host import UDPChannel, UDPConfig
from ..pipeline.costmodel import CostModel
from ..pipeline.describe import FILTER_KEYS, SIF_CAPACITY
from ..pipeline.metrics import RunMetrics, RunResult
from ..pipeline.workload import WalkthroughWorkload, default_workload
from ..sim import Simulator, Store

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
        if workload is not None:
            self.workload = workload
        elif (frames, image_side) == (400, 400):
            self.workload = default_workload()
        else:
            self.workload = WalkthroughWorkload(frames=frames,
                                                image_side=image_side)
        self.image_side = image_side
        self.cost = cost or CostModel()
        self.cluster_config = cluster_config or ClusterConfig()
        #: True when the run is expressible as a repro.exec.RunSpec
        #: (no live object overrides), hence shardable/cacheable
        self.spec_exact = (workload is None and cost is None
                           and cluster_config is None)
        self.sim = Simulator()
        self.metrics = RunMetrics()

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

    # -- stage processes -----------------------------------------------------
    def _filter_time(self, key: str, pixels: int) -> float:
        return (self.cost.filter_seconds(key, pixels)
                / self.cluster_config.filter_speedup)

    def _render_time(self, frame: int, strip: Optional[int]) -> float:
        if strip is None:
            profile = self.workload.profile(frame)
            t = self.cost.render_seconds(profile)
        else:
            profile = self.workload.profile(frame, strip, self.pipelines)
            t = self.cost.render_seconds(profile, sort_first=True)
        return t / self.cluster_config.render_speedup

    def _renderer_proc(self, outs: List[Store]) -> Generator[Any, Any, None]:
        """Single/parallel source feeding all pipelines from one node."""
        n = len(outs)
        for frame in range(self.frames):
            if self.config == "single_renderer":
                yield self.sim.timeout(self._render_time(frame, None))
                for p, out in enumerate(outs):
                    nbytes = self.workload.strip_bytes(p, n)
                    yield self.sim.timeout(
                        nbytes / self.cluster_config.shm_bandwidth)
                    yield out.put((frame, nbytes))
            else:  # parallel_renderer handled per-pipeline elsewhere
                raise AssertionError  # pragma: no cover

    def _strip_renderer_proc(self, p: int,
                             out: Store) -> Generator[Any, Any, None]:
        n = self.pipelines
        for frame in range(self.frames):
            yield self.sim.timeout(self._render_time(frame, p))
            nbytes = self.workload.strip_bytes(p, n)
            yield self.sim.timeout(nbytes / self.cluster_config.shm_bandwidth)
            yield out.put((frame, nbytes))

    def _external_feed_proc(self, net: UDPChannel,
                            sock: Store) -> Generator[Any, Any, None]:
        """The external render node: render, then ship the full frame."""
        frame_bytes = self.workload.frame_bytes()
        for frame in range(self.frames):
            yield self.sim.timeout(self._render_time(frame, None))
            yield from net.transfer(frame_bytes)
            yield sock.put((frame, frame_bytes))

    def _connector_proc(self, net: UDPChannel, sock: Store,
                        outs: List[Store]) -> Generator[Any, Any, None]:
        """Receives the external feed and carves it into strips."""
        n = len(outs)
        frame_bytes = self.workload.frame_bytes()
        datagrams = net.datagrams_for(frame_bytes)
        recv_cpu = datagrams * self.cluster_config.recv_per_datagram_s
        for _ in range(self.frames):
            wait0 = self.sim.now
            frame, _ = yield sock.get()
            self.metrics.record_idle("connect", self.sim.now - wait0)
            start = self.sim.now
            yield self.sim.timeout(recv_cpu)
            for p, out in enumerate(outs):
                nbytes = self.workload.strip_bytes(p, n)
                yield self.sim.timeout(
                    nbytes / self.cluster_config.shm_bandwidth)
                yield out.put((frame, nbytes))
            self.metrics.record_busy("connect", self.sim.now - start)

    def _filter_proc(self, key: str, p: int, inq: Store,
                     outq: Store) -> Generator[Any, Any, None]:
        pixels = self.workload.viewport(p, self.pipelines).pixels
        service = self._filter_time(key, pixels)
        cfg = self.cluster_config
        for _ in range(self.frames):
            wait0 = self.sim.now
            frame, nbytes = yield inq.get()
            self.metrics.record_idle(key, self.sim.now - wait0)
            start = self.sim.now
            yield self.sim.timeout(service + cfg.sync_overhead_s)
            yield self.sim.timeout(nbytes / cfg.shm_bandwidth)
            yield outq.put((frame, nbytes))
            self.metrics.record_busy(key, self.sim.now - start)

    def _transfer_proc(self, inqs: List[Store],
                       viewer_net: UDPChannel) -> Generator[Any, Any, None]:
        frame_pixels = self.workload.image_side ** 2
        frame_bytes = self.workload.frame_bytes()
        assemble = (self.cost.assemble_seconds(frame_pixels)
                    / self.cluster_config.filter_speedup)
        for frame in range(self.frames):
            for q in inqs:
                yield q.get()
            yield self.sim.timeout(assemble)
            yield from viewer_net.transfer(frame_bytes)
            self.metrics.record_frame_done(frame, self.sim.now)

    # -- orchestration -----------------------------------------------------------
    def run(self) -> RunResult:
        """Simulate the walkthrough; returns a :class:`RunResult` (power
        fields are zero — the paper reports no Mogon power)."""
        n = self.pipelines
        first_queues = [Store(self.sim, capacity=1) for _ in range(n)]
        viewer_net = UDPChannel(self.sim, self.cluster_config.network,
                                name="node-viewer")

        processes = []
        if self.config == "single_renderer":
            processes.append(self.sim.process(
                self._renderer_proc(first_queues), name="renderer"))
        elif self.config == "parallel_renderer":
            for p in range(n):
                processes.append(self.sim.process(
                    self._strip_renderer_proc(p, first_queues[p]),
                    name=f"renderer[{p}]"))
        else:  # external_renderer
            feed_net = UDPChannel(self.sim, self.cluster_config.network,
                                  name="render-connector")
            # a frame socket as deep as the SCC's SIF socket
            sock = Store(self.sim, capacity=SIF_CAPACITY)
            processes.append(self.sim.process(
                self._external_feed_proc(feed_net, sock), name="ext-render"))
            processes.append(self.sim.process(
                self._connector_proc(feed_net, sock, first_queues),
                name="connector"))

        last_queues = []
        for p in range(n):
            inq = first_queues[p]
            for key in FILTER_KEYS:
                outq = Store(self.sim, capacity=1)
                processes.append(self.sim.process(
                    self._filter_proc(key, p, inq, outq),
                    name=f"{key}[{p}]"))
                inq = outq
            last_queues.append(inq)

        transfer = self.sim.process(
            self._transfer_proc(last_queues, viewer_net), name="transfer")
        processes.append(transfer)

        self.sim.run(until=self.sim.all_of(processes))
        end = self.sim.now
        # one core per process, but not the remote external renderer,
        # just as the SCC rows do not count the MCPC host
        cores_used = len(processes)
        if self.config == "external_renderer":
            cores_used -= 1
        return RunResult(
            config=f"hpc_{self.config}",
            arrangement="cluster",
            pipelines=n,
            frames=self.frames,
            walkthrough_seconds=end,
            cores_used=cores_used,
            scc_energy_j=0.0,
            scc_avg_power_w=0.0,
            mcpc_energy_above_idle_j=0.0,
            idle_quartiles=self.metrics.idle_quartiles(),
            busy_means={k: acc.mean
                        for k, acc in self.metrics.busy.items()},
        )
