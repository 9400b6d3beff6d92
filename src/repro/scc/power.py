"""Chip power model and power-trace recording.

Calibrated against every power number the paper reports:

* 22 W while the chip idles at 533 MHz / 1.1 V (§II);
* ~50 W with 27 cores working (MCPC config, 5 pipelines, §VI-B);
* ~58 W with 43 cores working (n-renderer config, 7 pipelines, §VI-B);
* ~+4..5 W when one voltage island rises to 1.3 V for the 800 MHz blur
  tile (§VI-D);
* ~39 W — *below* the all-533 baseline — when the post-blur stages drop
  to 400 MHz / 0.7 V (§VI-D, Fig. 17).

The model is affine in the active-core set with island-voltage leakage:

``P = P_idle + [P_uncore if workload active] + Σ_active κ·f·V² +
Σ_all λ·(V² − V_nom²)``

The ``P_uncore`` term captures mesh/controller/polling activity that
appears as soon as *any* pipeline runs — it is what makes the measured
1-pipeline power (~40 W) sit far above idle, while keeping the slope per
extra pipeline small, exactly as in Fig. 14.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from ..sim import TimeSeries
from ..telemetry import NULL_TELEMETRY, Telemetry
from .dvfs import DEFAULT_FREQUENCY_MHZ, DVFSController
from .topology import NUM_CORES, SCCTopology

__all__ = ["PowerConfig", "PowerModel"]

#: nominal island voltage (533 MHz operating point)
V_NOMINAL = 1.1


@dataclass(frozen=True)
class PowerConfig:
    """Coefficients of the SCC power model (watts / volts / MHz)."""

    #: whole-kit idle power at the nominal operating point (paper §II)
    p_idle: float = 22.0
    #: uncore (mesh, MCs, flag polling) adder while a workload runs
    p_uncore: float = 14.5
    #: dynamic coefficient: watts per (MHz · V²) per active core, set so
    #: an active 533 MHz / 1.1 V core draws 0.5 W
    kappa: float = 0.5 / (DEFAULT_FREQUENCY_MHZ * V_NOMINAL**2)
    #: leakage sensitivity: watts per V² (per core) around V_nominal
    lam: float = 0.833
    #: MCPC host: idle and rendering power (paper §VI-B)
    mcpc_idle: float = 52.0
    mcpc_render: float = 80.0


class PowerModel:
    """Tracks per-core activity and records the chip power trace.

    The pipeline runner marks cores active/idle; the DVFS controller
    notifies on frequency changes; every state change appends a point to
    the :class:`~repro.sim.TimeSeries`, so energy is the exact integral
    of the step signal (used for the 2642 J vs 3364 J comparison).
    """

    def __init__(
        self,
        topology: SCCTopology,
        dvfs: DVFSController,
        config: Optional[PowerConfig] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.topology = topology
        self.dvfs = dvfs
        self.config = config or PowerConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        #: time source of the trace points (the chip wires ``sim.now``)
        self._clock = clock or (lambda: 0.0)
        # what the hub's readers read, resolved once
        self._count = self.telemetry.keeps("power")
        self._samples = self.telemetry.wants("power", "scc_watts",
                                             "scc_watts")
        self._active: Set[int] = set()
        #: each core's voltage island, and the islands in first-core order
        self._islands = [topology.core(c).tile.voltage_domain
                         for c in range(NUM_CORES)]
        self._domains = list(dict.fromkeys(self._islands))
        self.trace = TimeSeries("scc_power", initial=self.config.p_idle)
        # subscribed weakly, so the controller and its power model do not
        # keep each other (and the chip) alive in a reference cycle
        on_change = weakref.WeakMethod(self._on_change)

        def notify() -> None:
            method = on_change()
            if method is not None:
                method()

        dvfs.subscribe(notify)

    # -- state ------------------------------------------------------------
    @property
    def active_cores(self) -> Set[int]:
        """Cores currently marked as running pipeline work."""
        return set(self._active)

    def set_core_active(self, core_id: int, active: bool) -> None:
        """Mark a core as busy (computing *or* polling) or idle."""
        self.topology.core(core_id)  # validate
        if active:
            self._active.add(core_id)
        else:
            self._active.discard(core_id)
        self._on_change()

    def set_cores_active(self, core_ids, active: bool) -> None:
        """Bulk version of :meth:`set_core_active` (one trace point)."""
        for core_id in core_ids:
            self.topology.core(core_id)
            if active:
                self._active.add(core_id)
            else:
                self._active.discard(core_id)
        self._on_change()

    def _on_change(self) -> None:
        watts = self.current_power()
        now = self._clock()
        self.trace.record(now, watts)
        tel = self.telemetry
        if self._count:
            tel.counters.set_gauge("power.scc_watts", watts)
            tel.counters.inc("power.trace_points")
        if self._samples:
            tel.sample("power", "scc_watts", now, watts)

    # -- the model ------------------------------------------------------------
    def current_power(self) -> float:
        """Instantaneous SCC power in watts."""
        cfg = self.config
        power = cfg.p_idle
        active = self._active
        if active:
            power += cfg.p_uncore
        # Per-island voltages, and so leakage, are shared by all cores of
        # the island.
        volts = {d: self.dvfs.island_voltage(d) for d in self._domains}
        leak = {d: cfg.lam * (v * v - V_NOMINAL * V_NOMINAL)
                for d, v in volts.items()}
        for core_id, domain in enumerate(self._islands):
            # Leakage deviation applies to every core, active or not;
            # the terms add in core order, as the model defines them.
            power += leak[domain]  # lint: disable=DET007
            if core_id in active:
                v = volts[domain]
                f = self.dvfs.core_frequency(core_id)
                power += cfg.kappa * f * v * v
        return power

    # -- reporting ------------------------------------------------------------
    def energy(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Joules consumed over ``[t0, t1]`` (defaults to the whole run)."""
        end = t1 if t1 is not None else self._clock()
        return self.trace.integrate(t0, end)

    def average_power(self, t0: float = 0.0,
                      t1: Optional[float] = None) -> float:
        """Mean power over ``[t0, t1]`` in watts."""
        end = t1 if t1 is not None else self._clock()
        if end <= t0:
            raise ValueError("empty interval")
        return self.energy(t0, end) / (end - t0)

    def sampled_trace(self, t0: float, t1: float,
                      dt: float = 1.0) -> List[Tuple[float, float]]:
        """The power signal resampled on a grid (Figs 14 and 17)."""
        return self.trace.sample(t0, t1, dt)
