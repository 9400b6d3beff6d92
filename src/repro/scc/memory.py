"""The SCC memory system: four DDR3 controllers, private partitions.

The defining property the paper keeps running into: **SCC cores have no
local memory**.  Every byte a pipeline stage consumes was first written by
its predecessor into the consumer's *private DRAM partition* behind one of
the four memory controllers, then read back over the mesh.  Both
directions cross the mesh and occupy the controller, so co-located heavy
stages contend — the effect the flipped arrangement (Fig. 5) tries to
balance.

A transfer is modeled in three parts:

1. a command/response trip over the mesh (cheap, but routes through the
   same links data uses);
2. controller occupancy: ``bytes / mc_bandwidth + mc_latency``, a FIFO
   single-server resource per controller — the contention term;
3. the core-side copy at ``core_copy_bandwidth`` — the dominant term for
   the P54C's uncached copy loops, and deliberately *independent of the
   core clock* (it is bounded by mesh round-trips, which run on the
   800 MHz mesh domain).  This matches the paper's DVFS result, where
   accelerating the blur core 533→800 MHz shrinks only the compute part.

The ``local_memory`` flag implements the paper's wish-list ablation: give
every core a Cell-SPE-style local store, so stage-to-stage hand-offs cost
``bytes / local_bandwidth`` and never touch mesh or controllers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..sim import Resource, Simulator
from ..telemetry import NULL_TELEMETRY, Telemetry
from .mesh import Mesh
from .topology import NUM_MEMORY_CONTROLLERS, SCCTopology

__all__ = ["MemoryConfig", "MemoryController", "MemorySystem"]


@dataclass(frozen=True)
class MemoryConfig:
    """Timing parameters of the memory system.

    The defaults are calibrated (see ``repro.pipeline.costmodel``) so the
    simulated walkthrough times land on the paper's Table I; they are in
    the plausible range for the SCC (per-core effective copy bandwidth a
    few tens of MB/s; DDR3-800 controllers far faster than any one core).
    """

    #: per-request controller latency in seconds
    mc_latency_s: float = 2e-6
    #: controller service bandwidth in bytes/second (per controller)
    mc_bandwidth: float = 300e6
    #: effective per-core copy bandwidth in bytes/second (RCCE-level)
    core_copy_bandwidth: float = 24e6
    #: command packet size for the request trip, bytes
    command_bytes: int = 64
    #: when True, stage hand-offs use per-core local stores (ablation A)
    local_memory: bool = False
    #: local-store bandwidth in bytes/second (Cell SPE local store class)
    local_bandwidth: float = 400e6


class MemoryController:
    """One DDR3 controller: a FIFO single-server with byte accounting."""

    __slots__ = ("index", "coord", "resource", "bytes_served", "requests",
                 "queue_spans", "access_spans")

    def __init__(self, sim: Simulator, index: int, coord,
                 telemetry: Telemetry = NULL_TELEMETRY) -> None:
        self.index = index
        self.coord = coord
        self.resource = Resource(sim, capacity=1, name=f"MC{index}")
        self.bytes_served = 0
        self.requests = 0
        # what the hub's readers read of this controller, resolved once
        self.queue_spans = telemetry.wants("dram", "queue", f"mc{index}")
        self.access_spans = telemetry.wants("dram", "access", f"mc{index}")

    @property
    def utilization(self) -> float:
        """Fraction of simulated time the controller was serving."""
        return self.resource.utilization_until_now

    def __repr__(self) -> str:
        return f"<MC{self.index} at {self.coord} bytes={self.bytes_served}>"


class MemorySystem:
    """The four controllers plus the private-partition address map."""

    def __init__(
        self,
        sim: Simulator,
        topology: SCCTopology,
        mesh: Mesh,
        config: Optional[MemoryConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.mesh = mesh
        self.config = config or MemoryConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.controllers: List[MemoryController] = [
            MemoryController(sim, i, topology.mc_coord(i),
                             telemetry=self.telemetry)
            for i in range(NUM_MEMORY_CONTROLLERS)
        ]
        #: True when the hub counts controller traffic
        self._count = self.telemetry.keeps("dram")
        #: per-core bytes read+written (monitoring)
        self.core_traffic: Dict[int, int] = {}
        # The topology is immutable, so core -> (coord, controller) can be
        # resolved once instead of per access.
        self._core_coord: Dict[int, Any] = {}
        self._core_mc: Dict[int, MemoryController] = {}

    # -- mapping ------------------------------------------------------------
    def controller_of(self, core_id: int) -> MemoryController:
        """The controller owning ``core_id``'s private partition."""
        mc = self._core_mc.get(core_id)
        if mc is None:
            core = self.topology.core(core_id)
            mc = self.controllers[core.memory_controller]
            self._core_mc[core_id] = mc
            self._core_coord[core_id] = core.coord
        return mc

    def _coord_of(self, core_id: int) -> Any:
        coord = self._core_coord.get(core_id)
        if coord is None:
            coord = self.topology.core(core_id).coord
            self._core_coord[core_id] = coord
        return coord

    # -- timing primitives -----------------------------------------------------
    def _account(self, core_id: int, nbytes: int) -> None:
        self.core_traffic[core_id] = self.core_traffic.get(core_id, 0) + nbytes

    def _dram_access(
        self, acting_core: int, partition_owner: int, nbytes: int,
        data_inbound: bool,
    ) -> Generator[Any, Any, None]:
        """Move ``nbytes`` between ``acting_core`` and the partition of
        ``partition_owner``.

        ``data_inbound`` is True for reads (data flows MC→core) and False
        for writes (core→MC); the direction decides which mesh path the
        payload occupies.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        cfg = self.config
        self._account(acting_core, nbytes)
        if nbytes == 0:
            return
        core_coord = self._coord_of(acting_core)
        mc = self.controller_of(partition_owner)
        mc.requests += 1
        mc.bytes_served += nbytes
        tel = self.telemetry
        sim = self.sim
        if self._count:
            tel.counters.inc(f"dram.mc{mc.index}.bytes", nbytes)
            tel.counters.inc(f"dram.mc{mc.index}.requests")

        # 1. command trip to the controller
        yield from self.mesh.transfer(core_coord, mc.coord, cfg.command_bytes,
                                      core=acting_core)
        # 2. controller occupancy (the shared, contended part)
        service = cfg.mc_latency_s + nbytes / cfg.mc_bandwidth
        if mc.queue_spans or mc.access_spans:
            # Inline the acquire so the span covers service, not queueing;
            # the grant wait gets its own "queue" span so the insight
            # engine can attribute MC queueing to the waiting core.
            tq = sim.now
            req = mc.resource.request()
            yield req
            t0 = sim.now
            try:
                yield sim.timeout(service)
            finally:
                mc.resource.release(req)
            if t0 > tq and mc.queue_spans:
                tel.span("dram", f"mc{mc.index}", "queue", tq, t0,
                         core=acting_core, bytes=nbytes)
            if mc.access_spans:
                tel.span("dram", f"mc{mc.index}", "access", t0, sim.now,
                         core=acting_core, bytes=nbytes,
                         direction="read" if data_inbound else "write")
        else:
            # mc.resource.acquire(service) unrolled — per-access generator
            # delegation costs more than the whole occupancy bookkeeping.
            req = mc.resource.request()
            yield req
            try:
                yield sim.timeout(service)
            finally:
                mc.resource.release(req)
        # 3. payload over the mesh, in the data direction
        if data_inbound:
            yield from self.mesh.transfer(mc.coord, core_coord, nbytes,
                                          core=acting_core)
        else:
            yield from self.mesh.transfer(core_coord, mc.coord, nbytes,
                                          core=acting_core)
        # 4. core-side copy loop (slow P54C + network interface)
        yield sim.timeout(nbytes / cfg.core_copy_bandwidth)

    # -- public operations ---------------------------------------------------
    def read_own(self, core_id: int, nbytes: int) -> Generator[Any, Any, None]:
        """Core reads ``nbytes`` from its own private partition."""
        if self.config.local_memory:
            yield self.sim.timeout(nbytes / self.config.local_bandwidth)
            self._account(core_id, nbytes)
            return
        yield from self._dram_access(core_id, core_id, nbytes, data_inbound=True)

    def write_own(self, core_id: int, nbytes: int) -> Generator[Any, Any, None]:
        """Core writes ``nbytes`` to its own private partition."""
        if self.config.local_memory:
            yield self.sim.timeout(nbytes / self.config.local_bandwidth)
            self._account(core_id, nbytes)
            return
        yield from self._dram_access(core_id, core_id, nbytes, data_inbound=False)

    def write_to(self, src_core: int, dst_core: int,
                 nbytes: int) -> Generator[Any, Any, None]:
        """``src_core`` deposits a message in ``dst_core``'s partition.

        This is the message-passing primitive the paper describes: "the
        message actually has to travel first to the receiver processor's
        memory partition".  Under ``local_memory`` it instead models a
        Cell-style put into the receiver's local store.
        """
        if self.config.local_memory:
            # Direct put into the receiver's local store over the mesh.
            src = self._coord_of(src_core)
            dst = self._coord_of(dst_core)
            yield from self.mesh.transfer(src, dst, nbytes, core=src_core)
            yield self.sim.timeout(nbytes / self.config.local_bandwidth)
            self._account(src_core, nbytes)
            return
        yield from self._dram_access(src_core, dst_core, nbytes,
                                     data_inbound=False)

    # -- monitoring ------------------------------------------------------------
    def busiest_controller(self) -> MemoryController:
        """The controller that served the most bytes."""
        return max(self.controllers, key=lambda mc: mc.bytes_served)

    def utilizations(self) -> List[float]:
        """Per-controller busy fractions (hotspot check for Fig. 5)."""
        return [mc.utilization for mc in self.controllers]

    def __repr__(self) -> str:
        served = sum(mc.bytes_served for mc in self.controllers)
        return f"<MemorySystem served={served} bytes>"
