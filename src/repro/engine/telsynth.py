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

Nothing is emitted, compiled or counted that no reader wants.  The
helpers resolve what the hub's readers read (:meth:`Telemetry.wants`,
:meth:`Telemetry.keeps`) when the run is built, once per stage track,
link and controller, and hand the engine an emitter only where
something reads it: a telemetry op for a stage's program, step
metadata for a resource step.  A run whose only reader is the
progress sink compiles one busy-span op, on the completion stage; a
full hub compiles everything the event engine emits.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..telemetry import Counter, Telemetry

__all__ = ["TelemetrySynth", "make_synth", "PhaseSig", "StepMeta", "Emit"]

#: A telemetry op's emitter, called with the actor and its clock; it
#: reads the actor's ``span_start``, ``wait_start`` and ``tag``.
Emit = Callable[[Any, float], None]

#: A resource step's emitter, built once at program-build time and
#: called with the instants the event kernel's request/timeout pairs
#: observe: when the actor reached the step, when the resource was
#: granted (== arrival when it was free) and when the hold completed.
StepMeta = Callable[[float, float, float], None]

#: Counter/gauge/event-length signature of one steady-state snapshot.
PhaseSig = Tuple[int, Dict[str, float],
                 Tuple[Tuple[str, float], ...],
                 Tuple[Tuple[str, int], ...]]

# Same closeness envelope the engine's span-slice comparison uses.
_RTOL = 1e-9
_ATOL = 1e-12


class TelemetrySynth:
    """Hub-gated emission helper owned by one :class:`BatchedEngine`."""

    __slots__ = ("hub", "counters", "_stage", "_rcce", "_mesh", "_dram",
                 "_wave", "_wanted", "_links", "_mcs", "_mesh_totals",
                 "_rcce_totals")

    def __init__(self, hub: Telemetry) -> None:
        self.hub = hub
        self.counters = hub.counters
        # the categories the hub counts, and whether anyone reads waves
        self._stage = hub.keeps("stage")
        self._rcce = hub.keeps("rcce")
        self._mesh = hub.keeps("mesh")
        self._dram = hub.keeps("dram")
        self._wave = hub.wants("engine", "wave")
        #: the hub's answers so far: a route asks once per link it
        #: crosses, many routes cross one link
        self._wanted: Dict[Tuple[str, str, str], bool] = {}
        # counter handles, resolved on first increment
        self._links: Dict[str, Tuple[Counter, Counter]] = {}
        self._mcs: Dict[int, Tuple[Counter, Counter]] = {}
        self._mesh_totals: List[Counter] = []
        self._rcce_totals: List[Counter] = []

    def _wants(self, category: str, name: str, track: str) -> bool:
        key = (category, name, track)
        wanted = self._wanted.get(key)
        if wanted is None:
            wanted = self._wanted[key] = self.hub.wants(category, name, track)
        return wanted

    # -- stage-level emitters ---------------------------------------------
    def bind(self, track: str, core: int, t: float) -> None:
        if self.hub.wants("stage", "bind", track):
            self.hub.emit("stage", "bind", t, track=track, core=core)

    def busy(self, track: str, host: bool) -> Optional[Emit]:
        """The frame's busy span, from the actor's span start to now.

        The MCPC's is a ``host`` span, which no stage counter counts."""
        hub, counters = self.hub, self.counters
        category = "host" if host else "stage"
        span = hub.wants(category, "busy", track)
        count = self._stage and not host
        if not (span or count):
            return None
        handles: List[Counter] = []

        def emit(actor: Any, t: float) -> None:
            t0 = actor.span_start
            if span:
                hub.span(category, track, "busy", t0, t, frame=actor.tag)
            if count:
                if not handles:
                    handles.append(counters.counter(f"stage.{track}.frames"))
                    handles.append(counters.counter(f"stage.{track}.busy_s"))
                handles[0].inc()
                handles[1].inc(t - t0)

        return emit

    def idle(self, track: str) -> Optional[Emit]:
        """The first input's wait, from the actor's wait start to now."""
        hub, counters = self.hub, self.counters
        span = hub.wants("stage", "idle", track)
        count = self._stage
        if not (span or count):
            return None
        handles: List[Counter] = []

        def emit(actor: Any, t: float) -> None:
            seconds = t - actor.wait_start
            if span:
                hub.span("stage", track, "idle", t - seconds, t)
            if count:
                if not handles:
                    handles.append(counters.counter(f"stage.{track}.idle_s"))
                handles[0].inc(seconds)

        return emit

    def wait(self, track: str, src: Any) -> Optional[Emit]:
        """A later input's wait: a span only (not Fig. 15 idle)."""
        hub = self.hub
        if not hub.wants("stage", "wait", track):
            return None

        def emit(actor: Any, t: float) -> None:
            seconds = t - actor.wait_start
            if seconds > 0:
                hub.span("stage", track, "wait", t - seconds, t,
                         src_core=src)

        return emit

    # -- RCCE-level emitters ----------------------------------------------
    def rendezvous(self, src: int, dst: int, nbytes: int) -> Optional[Emit]:
        """The sender's wait for the receiver's token, when it waited."""
        hub = self.hub
        track = f"core{src}"
        if not self._wants("rcce", "rendezvous", track):
            return None

        def emit(actor: Any, t: float) -> None:
            t0 = actor.wait_start
            if t > t0:
                hub.span("rcce", track, "rendezvous", t0, t, src=src,
                         dst=dst, tag=actor.tag, bytes=nbytes)

        return emit

    def delivered(self, nbytes: int) -> Optional[Emit]:
        """A delivered message's counters."""
        if not self._rcce:
            return None
        counters, rcce = self.counters, self._rcce_totals

        def emit(actor: Any, t: float) -> None:
            if not rcce:
                rcce.extend(counters.counter(name) for name in (
                    "rcce.messages", "rcce.bytes", "rcce.via_dram.messages"))
            rcce[0].inc()
            rcce[1].inc(nbytes)
            rcce[2].inc()

        return emit

    # -- resource-step emitters -------------------------------------------
    def _mesh_total(self, nbytes: int) -> None:
        mesh = self._mesh_totals
        if not mesh:
            mesh.append(self.counters.counter("mesh.messages"))
            mesh.append(self.counters.counter("mesh.bytes"))
        mesh[0].inc()
        mesh[1].inc(nbytes)

    def link_step(self, tag: str, nbytes: int, core: Optional[int],
                  head: bool) -> Optional[StepMeta]:
        """A contended mesh link hold; the ``head`` step of a transfer
        also counts the transfer."""
        hub, counters, links = self.hub, self.counters, self._links
        track = f"link {tag}"
        queue = self._wants("mesh", "queue", track)
        xfer = self._wants("mesh", "xfer", track)
        count = self._mesh
        if not (queue or xfer or count):
            return None

        def emit(arrival: float, grant: float, done: float) -> None:
            if count:
                if head:
                    self._mesh_total(nbytes)
                link = links.get(tag)
                if link is None:
                    link = links[tag] = (
                        counters.counter(f"mesh.link.{tag}.bytes"),
                        counters.counter(f"mesh.link.{tag}.messages"))
                link[0].inc(nbytes)
                link[1].inc()
            if queue and grant > arrival:
                hub.span("mesh", track, "queue", arrival, grant,
                         bytes=nbytes, core=core)
            if xfer:
                hub.span("mesh", track, "xfer", grant, done, bytes=nbytes)

        return emit

    def mesh_step(self, nbytes: int) -> Optional[StepMeta]:
        """An uncontended or empty-route mesh transfer: counters only."""
        if not self._mesh:
            return None
        return lambda arrival, grant, done: self._mesh_total(nbytes)

    def mc_step(self, index: int, core: int, nbytes: int,
                inbound: bool) -> Optional[StepMeta]:
        """A DRAM controller hold."""
        hub, counters, mcs = self.hub, self.counters, self._mcs
        track = f"mc{index}"
        queue = self._wants("dram", "queue", track)
        access = self._wants("dram", "access", track)
        count = self._dram
        if not (queue or access or count):
            return None
        direction = "read" if inbound else "write"

        def emit(arrival: float, grant: float, done: float) -> None:
            if count:
                mc = mcs.get(index)
                if mc is None:
                    mc = mcs[index] = (
                        counters.counter(f"dram.mc{index}.bytes"),
                        counters.counter(f"dram.mc{index}.requests"))
                mc[0].inc(nbytes)
                mc[1].inc()
            if queue and grant > arrival:
                hub.span("dram", track, "queue", arrival, grant, core=core,
                         bytes=nbytes)
            if access:
                hub.span("dram", track, "access", grant, done, core=core,
                         bytes=nbytes, direction=direction)

        return emit

    # -- steady-state detection and the wave jump -------------------------
    def phase_sig(self) -> PhaseSig:
        """Signature of the hub state at a steady-state snapshot."""
        counters: Dict[str, float] = {}
        gauges: Tuple[Tuple[str, float], ...] = ()
        hists: Tuple[Tuple[str, int], ...] = ()
        if self.hub.enabled:
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
            for name, value in snap[1].items():
                d = value - prev[1].get(name, 0.0)
                if d:
                    self.counters.inc(name, d * waves)
        if self._wave:
            self.hub.emit("engine", "wave", t_wave, frames=waves * stride,
                          dt=delta / stride)


def make_synth(runner: Any) -> Optional[TelemetrySynth]:
    """The synthesis helper of a batched run, or None for the plain fast
    path: a run without a hub, or whose hub neither keeps anything nor
    has a sink."""
    ext: Optional[Telemetry] = runner.telemetry
    if ext is None or not (ext.enabled or ext.has_sinks):
        return None
    return TelemetrySynth(ext)
