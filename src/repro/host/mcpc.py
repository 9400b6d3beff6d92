"""The Management Console PC (MCPC) of the SCC developer kit.

A Xeon X3440 (2.53 GHz) workstation that controls the SCC over PCIe.  The
paper turns it from a passive controller into a pipeline participant: in
the heterogeneous configuration it runs the render stage (about 3.3 s of
CPU time for all 400 frames) and always hosts the visualization client.

Only three properties matter to the evaluation and are modeled:

* relative speed versus an SCC core (how long its render stage takes);
* power: 52 W idle, 80 W while rendering (§VI-B);
* the UDP link into the chip (see :mod:`repro.host.udp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..sim import Simulator, TimeSeries
from .udp import UDPChannel, UDPConfig

__all__ = ["MCPCConfig", "MCPC"]


@dataclass(frozen=True)
class MCPCConfig:
    """Host parameters.

    ``speedup_vs_scc_core`` is the end-to-end factor by which the Xeon
    outruns a 533 MHz P54C on the render workload.  The paper implies
    ~28x: the SCC render stage takes ~94 s for the walkthrough while the
    MCPC needs ~3.3 s.  The factor bundles clock (4.7x), IPC, SIMD, and
    a real cache hierarchy over the octree traversal.
    """

    speedup_vs_scc_core: float = 94.0 / 3.3
    power_idle_w: float = 52.0
    power_render_w: float = 80.0
    udp: UDPConfig = UDPConfig()


class MCPC:
    """The simulated host PC."""

    def __init__(self, sim: Simulator,
                 config: Optional[MCPCConfig] = None) -> None:
        self.sim = sim
        self.config = config or MCPCConfig()
        self.link = UDPChannel(sim, self.config.udp, name="mcpc-scc")
        self.power_trace = TimeSeries("mcpc_power",
                                      initial=self.config.power_idle_w)
        self._rendering = False
        #: cumulative seconds the host spent computing (monitoring)
        self.busy_seconds = 0.0

    # -- compute ------------------------------------------------------------
    def compute_time(self, seconds_on_scc_core: float) -> float:
        """Convert a 533 MHz-SCC-core duration to MCPC time."""
        if seconds_on_scc_core < 0:
            raise ValueError("duration must be >= 0")
        return seconds_on_scc_core / self.config.speedup_vs_scc_core

    def compute(self, seconds_on_scc_core: float) -> Generator[Any, Any, None]:
        """Process fragment: run work sized in SCC-core-seconds.

        Marks the host as rendering for the duration (power trace).
        """
        duration = self.compute_time(seconds_on_scc_core)
        self._set_rendering(True)
        try:
            yield self.sim.timeout(duration)
            self.busy_seconds += duration
        finally:
            self._set_rendering(False)

    def _set_rendering(self, rendering: bool) -> None:
        if rendering == self._rendering:
            return
        self._rendering = rendering
        power = (self.config.power_render_w if rendering
                 else self.config.power_idle_w)
        self.power_trace.record(self.sim.now, power)

    # -- power reporting -----------------------------------------------------
    def energy(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Joules over ``[t0, t1]`` (defaults to the whole run)."""
        end = t1 if t1 is not None else self.sim.now
        return self.power_trace.integrate(t0, end)

    def energy_above_idle(self, t0: float = 0.0,
                          t1: Optional[float] = None) -> float:
        """Joules above the idle floor — the quantity the paper uses in
        its 2642 J hybrid-energy arithmetic (3.3 s · 28 W)."""
        end = t1 if t1 is not None else self.sim.now
        return self.energy(t0, end) - self.config.power_idle_w * (end - t0)

    def __repr__(self) -> str:
        state = "rendering" if self._rendering else "idle"
        return f"<MCPC {state} busy={self.busy_seconds:.3f}s>"
