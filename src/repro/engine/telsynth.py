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
  (:meth:`~repro.telemetry.Telemetry.add_periodic_block`, expanded
  lazily for Chrome-trace export) and counters advance in closed form
  (``delta x waves`` per counter), so a jump stays O(1) no matter how
  many frames it covers.

TEL003: this is the **only** module in :mod:`repro.engine` that may
touch the hub emission surface (``span``/``emit``/``sample``/counter
updates/periodic blocks).  The engine proper calls the typed helpers
below; the lint gate enforces the boundary.

``detail`` mirrors the event engine's ``telemetry.enabled`` split:

========================  ======================  =====================
run request               hub                     detail
========================  ======================  =====================
telemetry enabled         the runner's hub        True (full fidelity)
trace only                private enabled hub     False (stage spans)
sinks only (streaming)    the runner's hub        False (stage spans)
neither                   no synth at all         (plain fast path)
========================  ======================  =====================
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from ..sim.trace import TraceRecorder
from ..telemetry import Telemetry

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

    __slots__ = ("hub", "detail", "counters")

    def __init__(self, hub: Telemetry, detail: bool) -> None:
        self.hub = hub
        #: True reproduces everything the event engine emits under
        #: ``telemetry.enabled``; False reproduces the sink-only stream
        #: (stage busy/idle spans and wave markers, nothing else).
        self.detail = detail
        self.counters = hub.counters

    # -- stage-level emission ---------------------------------------------
    def bind(self, track: str, core: int, t: float) -> None:
        if self.detail:
            self.hub.emit("stage", "bind", t, track=track, core=core)

    def stage_busy(self, track: str, t0: float, t1: float,
                   frame: int) -> None:
        self.hub.span("stage", track, "busy", t0, t1, frame=frame)
        if self.detail:
            self.counters.inc(f"stage.{track}.frames")
            self.counters.inc(f"stage.{track}.busy_s", t1 - t0)

    def stage_idle(self, track: str, t: float, wait_start: float) -> None:
        seconds = t - wait_start
        self.hub.span("stage", track, "idle", t - seconds, t)
        if self.detail:
            self.counters.inc(f"stage.{track}.idle_s", seconds)

    def transfer_wait(self, track: str, t: float, wait_start: float,
                      src_core: int) -> None:
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
            self.counters.inc("rcce.messages")
            self.counters.inc("rcce.bytes", nbytes)
            self.counters.inc("rcce.via_dram.messages")

    # -- resource-step emission -------------------------------------------
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
                self.counters.inc("mesh.messages")
                self.counters.inc("mesh.bytes", nbytes)
            self.counters.inc(f"mesh.link.{tag}.bytes", nbytes)
            self.counters.inc(f"mesh.link.{tag}.messages")
            if grant > arrival:
                self.hub.span("mesh", f"link {tag}", "queue",
                              arrival, grant, bytes=nbytes, core=core)
            self.hub.span("mesh", f"link {tag}", "xfer", grant, done,
                          bytes=nbytes)
        elif kind == "mesh":
            self.counters.inc("mesh.messages")
            self.counters.inc("mesh.bytes", meta[1])
        else:  # "mc"
            _, index, core, nbytes, inbound = meta
            self.counters.inc(f"dram.mc{index}.bytes", nbytes)
            self.counters.inc(f"dram.mc{index}.requests")
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

    # -- end-of-run products ----------------------------------------------
    def build_trace(self) -> TraceRecorder:
        """Gantt trace from the synthesized stage busy spans (what the
        event engine's TraceSink would have recorded)."""
        recorder = TraceRecorder()
        for event in self.hub.events:
            if (event.kind == "span" and event.category == "stage"
                    and event.name == "busy"):
                assert event.track is not None
                recorder.add(event.track, "busy", event.t, event.end)
        return recorder


def make_synth(runner: Any) -> Optional[TelemetrySynth]:
    """Pick the hub (and fidelity) a batched run should synthesize into.

    Mirrors the event path's wiring: an enabled runner hub gets full
    detail; a trace-only run gets stage spans into a private hub (with
    the runner hub's sinks bridged in, so live progress still streams);
    a disabled-but-sinked hub gets the sink-only span stream; otherwise
    telemetry synthesis is skipped entirely and the engine runs its
    plain fast path.
    """
    ext: Optional[Telemetry] = runner.telemetry
    if ext is not None and ext.enabled:
        return TelemetrySynth(ext, detail=True)
    if runner.trace:
        hub = Telemetry(enabled=True)
        if ext is not None and ext.has_sinks:
            hub.add_sink(ext.as_sink())
        return TelemetrySynth(hub, detail=False)
    if ext is not None and ext.has_sinks:
        return TelemetrySynth(ext, detail=False)
    return None
