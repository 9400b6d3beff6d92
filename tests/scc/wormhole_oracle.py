"""Test-only flit-level wormhole routing — the high-fidelity mesh model.

The main :class:`~repro.scc.mesh.Mesh` moves messages at flow level (one
hold per link), which is fast enough for 400-frame sweeps.  This module
models what the SCC's routers actually do: messages move as worms of
16-byte flits, the head acquires links hop by hop, the body streams at
one flit per mesh cycle, and the whole span of links stays occupied
until the tail drains — producing genuine head-of-line blocking.

It exists to *validate the approximation*: ``tests/scc/test_wormhole.py``
and ``tests/integration/test_cross_model_agreement.py`` drive both
models with identical traffic and check that zero-load latencies agree
to first order and contention orderings match.  Running
the full walkthrough at flit level would be hopeless in Python (a 640 KB
frame is 40 000 flits), which is precisely why the flow model is the
default — the comparison justifies that choice quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.scc.mesh import xy_route
from repro.scc.topology import GRID_HEIGHT, GRID_WIDTH, Coord
from repro.sim import Resource, Simulator

__all__ = ["WormholeConfig", "WormholeMesh"]


@dataclass(frozen=True)
class WormholeConfig:
    """Router/link parameters (SCC EAS values)."""

    #: link width: one flit per cycle
    flit_bytes: int = 16
    #: mesh clock period (800 MHz)
    cycle_s: float = 1.0 / 800e6
    #: router pipeline depth in cycles (head latency per hop)
    router_cycles: int = 4


class WormholeMesh:
    """A wormhole-switched 6x4 mesh with XY routing.

    The worm holds every link of its current span: the head acquires
    links in path order (deadlock-free under XY routing because the
    acquisition order has no cycles), the payload then streams at one
    flit per cycle, and all links release when the tail passes.  This is
    the standard span-occupancy abstraction of wormhole switching; it
    reproduces head-of-line blocking exactly, and under-approximates
    only the buffer slack of the 16 KiB router queues.
    """

    def __init__(self, sim: Simulator,
                 config: Optional[WormholeConfig] = None) -> None:
        self.sim = sim
        self.config = config or WormholeConfig()
        if self.config.flit_bytes <= 0 or self.config.cycle_s <= 0:
            raise ValueError("flit size and cycle time must be positive")
        self._links: Dict[Tuple[Coord, Coord], Resource] = {}
        for x in range(GRID_WIDTH):
            for y in range(GRID_HEIGHT):
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < GRID_WIDTH and 0 <= ny < GRID_HEIGHT:
                        key = ((x, y), (nx, ny))
                        self._links[key] = Resource(
                            sim, capacity=1, name=f"wlink{key}")
        self.messages = 0
        self.flits_moved = 0

    # -- analytic ------------------------------------------------------------
    def flits_for(self, nbytes: int) -> int:
        """Number of flits a payload occupies (at least the head flit)."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return max(1, math.ceil(nbytes / self.config.flit_bytes))

    def transfer_time_uncontended(self, src: Coord, dst: Coord,
                                  nbytes: int) -> float:
        """Zero-load latency: per-hop head latency + body streaming."""
        hops = len(xy_route(src, dst))
        cfg = self.config
        head = hops * cfg.router_cycles * cfg.cycle_s
        body = self.flits_for(nbytes) * cfg.cycle_s
        return head + body

    # -- simulated ------------------------------------------------------------
    def transfer(self, src: Coord, dst: Coord,
                 nbytes: int) -> Generator[Any, Any, None]:
        """Move one worm from ``src`` to ``dst``.

        Use as ``yield from wmesh.transfer(a, b, n)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        cfg = self.config
        self.messages += 1
        flits = self.flits_for(nbytes)
        self.flits_moved += flits
        hops = xy_route(src, dst)
        if not hops:
            yield self.sim.timeout(cfg.router_cycles * cfg.cycle_s)
            return
        granted: List[Tuple[Resource, Any]] = []
        try:
            # Head advances hop by hop, keeping the span occupied.
            for hop in hops:
                link = self._links[hop]
                req = link.request()
                yield req
                granted.append((link, req))
                yield self.sim.timeout(cfg.router_cycles * cfg.cycle_s)
            # Body streams behind the head at one flit per cycle.
            yield self.sim.timeout(flits * cfg.cycle_s)
        finally:
            for link, req in granted:
                link.release(req)

    def link_utilization(self, src: Coord, dst: Coord) -> float:
        """Busy fraction of one directed link."""
        try:
            return self._links[(src, dst)].utilization_until_now
        except KeyError:
            raise ValueError(f"no link {src}->{dst}")

    def __repr__(self) -> str:
        return f"<WormholeMesh msgs={self.messages} flits={self.flits_moved}>"
