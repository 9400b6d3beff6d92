"""The SCC's 2D mesh network-on-chip.

Routers form a 6x4 grid; packets use dimension-ordered (XY) routing —
first along the row to the destination column, then along the column.
Each directed link is a single-server FIFO resource, so two messages
crossing the same link serialize; that is the contention mechanism the
paper's arrangement experiments (ordered vs flipped pipelines) try to
exploit.

We model transfers at flow level: a message holds each link on its path
for ``bytes / link_bandwidth`` plus a per-hop router latency.  This is a
virtual-cut-through approximation — accurate enough for the strip-sized
(tens-to-hundreds of KiB) messages of the macro pipeline, and orders of
magnitude faster to simulate than flit-level wormhole routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..sim import Resource, Simulator
from ..telemetry import NULL_TELEMETRY, Telemetry
from .topology import GRID_HEIGHT, GRID_WIDTH, Coord

__all__ = ["MeshConfig", "Link", "Mesh", "link_tag", "xy_route"]


@dataclass(frozen=True)
class MeshConfig:
    """Tunable parameters of the NoC.

    Defaults follow the SCC EAS: the mesh runs at 800 MHz (2 GHz-class
    routers were an option we ignore); a hop costs four mesh cycles of
    latency; link width is 16 bytes per cycle of raw bandwidth, of which
    the cores' slow network interfaces exploit only a fraction — the
    *effective* bandwidth below is what RCCE-level transfers observe.
    """

    #: per-hop router+link latency in seconds (4 cycles @ 800 MHz, padded
    #: for the network-interface crossing)
    hop_latency_s: float = 50e-9
    #: effective per-link bandwidth in bytes/second seen by core transfers
    link_bandwidth: float = 1.6e9
    #: when False, links are pure delays (no serialization) — ablation B
    model_contention: bool = True


def xy_route(src: Coord, dst: Coord) -> List[Tuple[Coord, Coord]]:
    """Return the XY route as a list of directed hops ``(from, to)``.

    X is fully resolved before Y — the SCC's deadlock-free routing
    function.  An empty list means source and destination share a router.
    """
    hops: List[Tuple[Coord, Coord]] = []
    x, y = src
    while x != dst[0]:
        nx = x + (1 if dst[0] > x else -1)
        hops.append(((x, y), (nx, y)))
        x = nx
    while y != dst[1]:
        ny = y + (1 if dst[1] > y else -1)
        hops.append(((x, y), (x, ny)))
        y = ny
    return hops


def link_tag(src: Coord, dst: Coord) -> str:
    """Stable telemetry id of the link ``src -> dst``, e.g. ``"3,0->2,0"``."""
    return f"{src[0]},{src[1]}->{dst[0]},{dst[1]}"


class Link:
    """One directed router-to-router link."""

    __slots__ = ("src", "dst", "resource", "bytes_carried", "messages",
                 "tag", "traced", "queue_spans", "xfer_spans")

    def __init__(self, sim: Simulator, src: Coord, dst: Coord,
                 telemetry: Telemetry = NULL_TELEMETRY) -> None:
        self.src = src
        self.dst = dst
        self.resource = Resource(sim, capacity=1, name=f"link{src}->{dst}")
        self.bytes_carried = 0
        self.messages = 0
        #: stable telemetry id (:func:`link_tag`)
        self.tag = link_tag(src, dst)
        # what the hub's readers read of this link, resolved once
        track = f"link {self.tag}"
        self.queue_spans = telemetry.wants("mesh", "queue", track)
        self.xfer_spans = telemetry.wants("mesh", "xfer", track)
        #: True when a transfer over the link counts or emits anything
        self.traced = (self.queue_spans or self.xfer_spans
                       or telemetry.keeps("mesh"))

    @property
    def utilization(self) -> float:
        """Fraction of simulated time this link was carrying data."""
        return self.resource.utilization_until_now

    def __repr__(self) -> str:
        return f"<Link {self.src}->{self.dst} msgs={self.messages}>"


class Mesh:
    """The simulated network-on-chip.

    Parameters
    ----------
    sim:
        Owning simulator.
    config:
        Timing/behaviour knobs; see :class:`MeshConfig`.

    Notes
    -----
    The mesh knows nothing about cores or memory controllers — it moves
    bytes between router coordinates.  Higher layers (memory system,
    RCCE) translate core ids into coordinates.
    """

    def __init__(self, sim: Simulator, config: Optional[MeshConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.sim = sim
        self.config = config or MeshConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self._links: Dict[Tuple[Coord, Coord], Link] = {}
        for x in range(GRID_WIDTH):
            for y in range(GRID_HEIGHT):
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < GRID_WIDTH and 0 <= ny < GRID_HEIGHT:
                        key = ((x, y), (nx, ny))
                        self._links[key] = Link(sim, *key,
                                                telemetry=self.telemetry)
        # XY routes are static, so the Link sequence per (src, dst) pair is
        # computed once and reused for every message.
        self._route_cache: Dict[Tuple[Coord, Coord], Tuple[Link, ...]] = {}
        #: True when the hub counts mesh traffic
        self._count = self.telemetry.keeps("mesh")
        #: total messages moved (monitoring)
        self.messages = 0
        #: total payload bytes moved (monitoring)
        self.bytes_moved = 0

    # -- structure -----------------------------------------------------------
    def link(self, src: Coord, dst: Coord) -> Link:
        """The directed link between two *adjacent* routers."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise ValueError(f"no link {src}->{dst} (not adjacent?)")

    def links_on_path(self, src: Coord, dst: Coord) -> List[Link]:
        """All links an XY-routed message from ``src`` to ``dst`` crosses."""
        return list(self._route(src, dst))

    def _route(self, src: Coord, dst: Coord) -> Tuple[Link, ...]:
        """The static XY route as a cached tuple of :class:`Link`."""
        key = (src, dst)
        route = self._route_cache.get(key)
        if route is None:
            route = tuple(self._links[hop] for hop in xy_route(src, dst))
            self._route_cache[key] = route
        return route

    # -- data movement -----------------------------------------------------
    def transfer_time_uncontended(self, src: Coord, dst: Coord,
                                  nbytes: int) -> float:
        """Zero-load latency of a transfer (analytic; used by tests)."""
        hops = len(self._route(src, dst))
        per_hop = self.config.hop_latency_s
        serialization = nbytes / self.config.link_bandwidth
        # Cut-through: payload streams, so serialization is paid once, and
        # the head flit pays the per-hop latency on every hop.
        return hops * per_hop + serialization * max(hops, 1)

    def transfer(self, src: Coord, dst: Coord, nbytes: int,
                 core: Optional[int] = None) -> Generator[Any, Any, None]:
        """Process fragment moving ``nbytes`` from ``src`` to ``dst``.

        Use as ``yield from mesh.transfer(a, b, n)``.  Holds each link on
        the path, in order, for the serialization time — so concurrent
        messages sharing a link queue up behind each other.  ``core`` (if
        given) names the core whose process is blocked on the transfer;
        telemetry ``queue`` spans carry it so the insight engine can
        attribute link-grant waits to the waiting stage.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        self.messages += 1
        self.bytes_moved += nbytes
        config = self.config
        route = self._route_cache.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        hold = nbytes / config.link_bandwidth + config.hop_latency_s
        tel = self.telemetry
        count = self._count
        if count:
            tel.counters.inc("mesh.messages")
            tel.counters.inc("mesh.bytes", nbytes)
        if not route:
            # Same router (core to its sibling or to its own MPB): only the
            # local crossing latency applies.
            yield self.sim.timeout(config.hop_latency_s)
            return
        if not config.model_contention:
            yield self.sim.timeout(len(route) * hold)
            return
        sim = self.sim
        for link in route:
            link.messages += 1
            link.bytes_carried += nbytes
            if link.traced:
                if count:
                    tel.counters.inc(f"mesh.link.{link.tag}.bytes", nbytes)
                    tel.counters.inc(f"mesh.link.{link.tag}.messages")
                # Inline the acquire so the recorded span covers only the
                # occupancy window (grant -> release), not the queueing;
                # the grant wait gets its own "queue" span (the mesh
                # contention the insight engine attributes to ``core``).
                tq = sim.now
                req = link.resource.request()
                yield req
                t0 = sim.now
                try:
                    yield sim.timeout(hold)
                finally:
                    link.resource.release(req)
                if t0 > tq and link.queue_spans:
                    tel.span("mesh", f"link {link.tag}", "queue",
                             tq, t0, bytes=nbytes, core=core)
                if link.xfer_spans:
                    tel.span("mesh", f"link {link.tag}", "xfer",
                             t0, sim.now, bytes=nbytes)
            else:
                # link.resource.acquire(hold) unrolled: this loop moves
                # every payload byte in the simulation, and the delegated
                # generator was measurable overhead.
                req = link.resource.request()
                yield req
                try:
                    yield sim.timeout(hold)
                finally:
                    link.resource.release(req)

    # -- monitoring ------------------------------------------------------------
    def hottest_links(self, n: int = 5) -> List[Link]:
        """The ``n`` links that carried the most bytes (hotspot analysis)."""
        return sorted(self._links.values(),
                      key=lambda l: l.bytes_carried, reverse=True)[:n]

    def total_link_count(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return f"<Mesh {GRID_WIDTH}x{GRID_HEIGHT} msgs={self.messages}>"
