"""Telemetry synthesis for the batched steady-state engine.

The event engine's instrumentation lives *inside* the model: stages,
the mesh, the memory controllers and the RCCE layer emit spans and
counters as the simulation replays every timeout.  The batched engine
replays none of that — it schedules coarse ``(resource, hold)``
programs — so this module re-derives the exact same telemetry stream
from the scheduler's own grant/hold arithmetic:

* every stage busy/idle window, RCCE rendezvous, mesh link queue/xfer
  and DRAM controller queue/access span is emitted with the *same*
  floats the event engine would have produced (the coarse-op grant
  times are bit-identical to the event kernel's by construction);
* the frame-wave jump never replays the skipped waves: one captured
  period of events is registered as a periodic block on the hub
  (:meth:`~repro.telemetry.Telemetry.add_periodic_block`; the
  exporters and the insight engine read it in place, and only
  ``Telemetry.events`` expands it) and counters advance in closed form
  (``delta x waves`` per counter), so a jump stays O(1) no matter how
  many frames it covers.

Per-step counters are resolved to :class:`~repro.telemetry.Counter`
handles on their first increment, so a step formats no counter name and
a counter exists in a snapshot exactly when its first step has run.

TEL003: this is the **only** module in :mod:`repro.engine` that may
touch the hub emission surface (``span``/``emit``/``sample``/counter
updates/periodic blocks).  The engine proper calls the typed helpers
below; the lint gate enforces the boundary.

``detail`` mirrors the event engine's ``telemetry.enabled`` split:

========================  ======================  =====================
run request               hub                     detail
========================  ======================  =====================
telemetry enabled         the runner's hub        True (full fidelity)
sinks only (streaming)    the runner's hub        False (stage spans)
neither                   no synth at all         (plain fast path)
========================  ======================  =====================
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from ..telemetry import Counter, Telemetry

__all__ = ["TelemetrySynth", "make_synth", "PhaseSig", "StepMeta"]

#: Opaque per-step emission recipe built once at program-build time:
#: ``("link", tag, nbytes, core, head)`` for a contended mesh link hold,
#: ``("mesh", nbytes)`` for an uncontended/empty-route mesh transfer and
#: ``("mc", index, core, nbytes, inbound)`` for a DRAM controller hold.
StepMeta = Tuple[Any, ...]

#: Counter/gauge/event-length signature of one steady-state snapshot.
PhaseSig = Tuple[int, Dict[str, float],
                 Tuple[Tuple[str, float], ...],
                 Tuple[Tuple[str, int], ...]]

# Same closeness envelope the engine's span-slice comparison uses.
_RTOL = 1e-9
_ATOL = 1e-12


class TelemetrySynth:
    """Hub-gated emission helper owned by one :class:`BatchedEngine`."""

    __slots__ = ("hub", "detail", "counters", "_busy", "_idle", "_links",
                 "_mcs", "_mesh", "_rcce")

    def __init__(self, hub: Telemetry, detail: bool) -> None:
        self.hub = hub
        #: True reproduces everything the event engine emits under
        #: ``telemetry.enabled``; False reproduces the sink-only stream
        #: (stage busy/idle spans and wave markers, nothing else).
        self.detail = detail
        self.counters = hub.counters
        # counter handles, resolved on first increment
        self._busy: Dict[str, Tuple[Counter, Counter]] = {}
        self._idle: Dict[str, Counter] = {}
        self._links: Dict[str, Tuple[Counter, Counter]] = {}
        self._mcs: Dict[int, Tuple[Counter, Counter]] = {}
        self._mesh: Optional[Tuple[Counter, Counter]] = None
        self._rcce: Optional[Tuple[Counter, Counter, Counter]] = None

    # -- stage-level emission ---------------------------------------------
    def bind(self, track: str, core: int, t: float) -> None:
        if self.detail:
            self.hub.emit("stage", "bind", t, track=track, core=core)

    def stage_busy(self, track: str, t0: float, t1: float,
                   frame: int) -> None:
        self.hub.span("stage", track, "busy", t0, t1, frame=frame)
        if self.detail:
            pair = self._busy.get(track)
            if pair is None:
                pair = self._busy[track] = (
                    self.counters.counter(f"stage.{track}.frames"),
                    self.counters.counter(f"stage.{track}.busy_s"))
            pair[0].inc()
            pair[1].inc(t1 - t0)

    def stage_idle(self, track: str, t: float, wait_start: float) -> None:
        seconds = t - wait_start
        self.hub.span("stage", track, "idle", t - seconds, t)
        if self.detail:
            idle = self._idle.get(track)
            if idle is None:
                idle = self._idle[track] = self.counters.counter(
                    f"stage.{track}.idle_s")
            idle.inc(seconds)

    def input_wait(self, track: str, t: float, wait_start: float,
                   src_core: int) -> None:
        """A later input's wait: a span only (not Fig. 15 idle)."""
        if self.detail:
            seconds = t - wait_start
            if seconds > 0:
                self.hub.span("stage", track, "wait", t - seconds, t,
                              src_core=src_core)

    def host_busy(self, t0: float, t1: float, frame: int) -> None:
        if self.detail:
            self.hub.span("host", "mcpc-render", "busy", t0, t1,
                          frame=frame)

    # -- RCCE-level emission ----------------------------------------------
    def rendezvous(self, src: int, dst: int, t0: float, t1: float,
                   nbytes: int, tag: int) -> None:
        if self.detail and t1 > t0:
            self.hub.span("rcce", f"core{src}", "rendezvous", t0, t1,
                          src=src, dst=dst, tag=tag, bytes=nbytes)

    def delivered(self, nbytes: int) -> None:
        if self.detail:
            rcce = self._rcce
            if rcce is None:
                rcce = self._rcce = (
                    self.counters.counter("rcce.messages"),
                    self.counters.counter("rcce.bytes"),
                    self.counters.counter("rcce.via_dram.messages"))
            rcce[0].inc()
            rcce[1].inc(nbytes)
            rcce[2].inc()

    # -- resource-step emission -------------------------------------------
    def _mesh_total(self, nbytes: int) -> None:
        mesh = self._mesh
        if mesh is None:
            mesh = self._mesh = (self.counters.counter("mesh.messages"),
                                 self.counters.counter("mesh.bytes"))
        mesh[0].inc()
        mesh[1].inc(nbytes)

    def step(self, meta: StepMeta, arrival: float, grant: float,
             done: float) -> None:
        """Emit for one executed program step.

        ``arrival`` is when the actor reached the step, ``grant`` when
        the resource was granted (== ``arrival`` when it was free) and
        ``done`` when the hold completed — the same instants the event
        kernel's request/timeout pairs observe.
        """
        if not self.detail:
            return
        kind = meta[0]
        if kind == "link":
            _, tag, nbytes, core, head = meta
            if head:
                self._mesh_total(nbytes)
            link = self._links.get(tag)
            if link is None:
                link = self._links[tag] = (
                    self.counters.counter(f"mesh.link.{tag}.bytes"),
                    self.counters.counter(f"mesh.link.{tag}.messages"))
            link[0].inc(nbytes)
            link[1].inc()
            if grant > arrival:
                self.hub.span("mesh", f"link {tag}", "queue",
                              arrival, grant, bytes=nbytes, core=core)
            self.hub.span("mesh", f"link {tag}", "xfer", grant, done,
                          bytes=nbytes)
        elif kind == "mesh":
            self._mesh_total(meta[1])
        else:  # "mc"
            _, index, core, nbytes, inbound = meta
            mc = self._mcs.get(index)
            if mc is None:
                mc = self._mcs[index] = (
                    self.counters.counter(f"dram.mc{index}.bytes"),
                    self.counters.counter(f"dram.mc{index}.requests"))
            mc[0].inc(nbytes)
            mc[1].inc()
            if grant > arrival:
                self.hub.span("dram", f"mc{index}", "queue",
                              arrival, grant, core=core, bytes=nbytes)
            self.hub.span("dram", f"mc{index}", "access", grant, done,
                          core=core, bytes=nbytes,
                          direction="read" if inbound else "write")

    # -- steady-state detection and the wave jump -------------------------
    def phase_sig(self) -> PhaseSig:
        """Signature of the hub state at a steady-state snapshot."""
        counters: Dict[str, float] = {}
        gauges: Tuple[Tuple[str, float], ...] = ()
        hists: Tuple[Tuple[str, int], ...] = ()
        if self.detail:
            snap = self.counters.snapshot()
            counters = dict(snap["counters"])
            gauges = tuple(sorted(snap["gauges"].items()))
            hists = tuple(sorted((name, len(samples)) for name, samples
                                 in snap["histograms"].items()))
        return (self.hub.raw_event_count, counters, gauges, hists)

    @staticmethod
    def periodic_ok(older: Optional[PhaseSig], mid: Optional[PhaseSig],
                    newer: Optional[PhaseSig]) -> bool:
        """True when the telemetry stream itself looks periodic across
        the two candidate periods (event-count deltas equal, counter
        deltas repeating, gauges and histograms untouched)."""
        if older is None or mid is None or newer is None:
            return False
        if newer[0] - mid[0] != mid[0] - older[0]:
            return False
        if not (older[2] == mid[2] == newer[2]):
            return False
        if not (older[3] == mid[3] == newer[3]):
            return False
        for name in set(older[1]) | set(mid[1]) | set(newer[1]):
            d1 = mid[1].get(name, 0.0) - older[1].get(name, 0.0)
            d2 = newer[1].get(name, 0.0) - mid[1].get(name, 0.0)
            if not math.isclose(d2, d1, rel_tol=_RTOL, abs_tol=_ATOL):
                return False
        return True

    def jump(self, waves: int, delta: float, prev: PhaseSig,
             snap: PhaseSig, t_wave: float, stride: int) -> None:
        """Advance the telemetry stream past ``waves`` skipped periods
        of ``stride`` frames each.

        O(1) in ``waves``: the captured period becomes a periodic block
        on the hub and every counter advances by ``period delta x
        waves`` in one increment.  A single ``engine/wave`` instant
        marks the jump for live sinks (progress heartbeats), carrying
        the frames skipped and the mean frame period.
        """
        if self.hub.enabled:
            self.hub.add_periodic_block(prev[0], snap[0], waves, delta,
                                        stride=stride)
        if self.detail:
            for name, value in snap[1].items():
                d = value - prev[1].get(name, 0.0)
                if d:
                    self.counters.inc(name, d * waves)
        self.hub.emit("engine", "wave", t_wave, frames=waves * stride,
                      dt=delta / stride)


def make_synth(runner: Any) -> Optional[TelemetrySynth]:
    """Pick the hub (and fidelity) a batched run should synthesize into.

    Mirrors the event path's wiring: an enabled runner hub gets full
    detail; a disabled-but-sinked hub gets the sink-only span stream;
    otherwise telemetry synthesis is skipped entirely and the engine
    runs its plain fast path.
    """
    ext: Optional[Telemetry] = runner.telemetry
    if ext is None:
        return None
    if ext.enabled:
        return TelemetrySynth(ext, detail=True)
    if ext.has_sinks:
        return TelemetrySynth(ext, detail=False)
    return None
