"""Test-only event-kernel oracle for the Mogon cluster model.

This is the generator-process formulation of :class:`ClusterRunner`: one
:mod:`repro.sim` process per stage, capacity-1 ``Store`` queues between
them (a ``SIF_CAPACITY``-deep socket for the external feed) and
``UDPChannel`` links for the network legs.  The library computes the same
tandem line as a max-plus recurrence; the differential tests check the
two against each other.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.cluster import ClusterRunner
from repro.host import UDPChannel
from repro.pipeline.describe import FILTER_KEYS, SIF_CAPACITY
from repro.pipeline.metrics import RunMetrics, RunResult
from repro.sim import Simulator, Store


class EventClusterRunner(ClusterRunner):
    """:class:`ClusterRunner` driven by the discrete-event kernel."""

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
        n = len(outs)
        for frame in range(self.frames):
            yield self.sim.timeout(self._render_time(frame, None))
            for p, out in enumerate(outs):
                nbytes = self.workload.strip_bytes(p, n)
                yield self.sim.timeout(
                    nbytes / self.cluster_config.shm_bandwidth)
                yield out.put((frame, nbytes))

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
        frame_bytes = self.workload.frame_bytes()
        for frame in range(self.frames):
            yield self.sim.timeout(self._render_time(frame, None))
            yield from net.transfer(frame_bytes)
            yield sock.put((frame, frame_bytes))

    def _connector_proc(self, net: UDPChannel, sock: Store,
                        outs: List[Store]) -> Generator[Any, Any, None]:
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

    def run(self) -> RunResult:
        self.sim = Simulator()
        self.metrics = RunMetrics()
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
        else:
            feed_net = UDPChannel(self.sim, self.cluster_config.network,
                                  name="render-connector")
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

        processes.append(self.sim.process(
            self._transfer_proc(last_queues, viewer_net), name="transfer"))

        self.sim.run(until=self.sim.all_of(processes))
        cores_used = len(processes)
        if self.config == "external_renderer":
            cores_used -= 1
        return RunResult(
            config=f"hpc_{self.config}",
            arrangement="cluster",
            pipelines=n,
            frames=self.frames,
            walkthrough_seconds=self.sim.now,
            cores_used=cores_used,
            scc_energy_j=0.0,
            scc_avg_power_w=0.0,
            mcpc_energy_above_idle_j=0.0,
            idle_quartiles=self.metrics.idle_quartiles(),
            busy_means={k: acc.mean
                        for k, acc in self.metrics.busy.items()},
        )
