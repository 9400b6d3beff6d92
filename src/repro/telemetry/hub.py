"""The telemetry hub: structured events, counters, pluggable sinks.

One :class:`Telemetry` instance accompanies a simulation; every
instrumented subsystem (mesh, memory controllers, MPBs, DVFS, power,
pipeline stages) reports into it and every consumer (run metrics, Gantt
traces, Chrome-trace export, top reports) reads out of it.

Design rules
------------
* **Zero overhead when disabled.**  Hot paths guard with
  ``if telemetry.enabled:`` before building any event, so a disabled hub
  costs one attribute check per instrumentation site.  Low-frequency
  call sites (one event per stage per frame) may emit unconditionally —
  a disabled hub with no sinks returns immediately.
* **Sinks observe everything.**  A sink is any callable taking a
  :class:`TelemetryEvent`.  Sinks fire for every event *regardless of*
  ``enabled`` — that is how :class:`~repro.pipeline.metrics.RunMetrics`
  and :class:`~repro.sim.TraceRecorder` stay thin consumers of the hub
  even in runs that collect no telemetry (the Fig. 15 path).
* **Retention only when enabled.**  The ``events`` buffer (what the
  Chrome-trace exporter reads) fills only while ``enabled`` is True.
* **Periodic regions stay symbolic.**  A producer that knows a window of
  retained events repeats verbatim at a fixed period (the batched
  engine's frame-wave jump) registers it via :meth:`add_periodic_block`
  instead of appending ``repeats × window`` copies.  Readers see the
  fully expanded, chronologically ordered stream through ``events`` /
  ``events_in`` / ``snapshot``; the expansion is materialized lazily and
  cached, so registering a block is O(1) no matter how many waves it
  covers.

Event kinds
-----------
``span``
    A closed activity window ``[t, t+dur]`` on a named track
    (stage busy/idle, a link occupancy, a controller service burst).
``instant``
    A point event (a DVFS frequency change).
``sample``
    A ``(t, value)`` observation of a continuous signal (chip power);
    exported as a Chrome counter track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .counters import CounterRegistry

__all__ = ["TelemetryEvent", "Telemetry", "MetricsSink", "TraceSink",
           "NULL_TELEMETRY"]


@dataclass
class TelemetryEvent:
    """One structured telemetry record."""

    #: "span" | "instant" | "sample"
    kind: str
    #: subsystem ("stage", "mesh", "dram", "mpb", "dvfs", "power", ...)
    category: str
    #: event name within the category ("busy", "xfer", "set_frequency", ...)
    name: str
    #: start time (spans) or event time (instants/samples), seconds
    t: float
    #: duration in seconds (0 for instants/samples)
    dur: float = 0.0
    #: track within the category (one Chrome-trace row per track)
    track: Optional[str] = None
    #: observed value (samples only)
    value: Optional[float] = None
    #: free-form structured payload
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.t + self.dur


Sink = Callable[[TelemetryEvent], None]


def _shifted_copy(event: TelemetryEvent, offset: float,
                  frame_delta: int) -> TelemetryEvent:
    """Replica of ``event`` moved ``offset`` seconds and ``frame_delta``
    frames into the future (periodic-block expansion)."""
    fields = event.fields
    if fields and ("frame" in fields or "tag" in fields):
        fields = dict(fields)
        frame = fields.get("frame")
        if isinstance(frame, int):
            fields["frame"] = frame + frame_delta
        tag = fields.get("tag")
        if isinstance(tag, int):
            fields["tag"] = tag + frame_delta
    return TelemetryEvent(event.kind, event.category, event.name,
                          event.t + offset, dur=event.dur,
                          track=event.track, value=event.value,
                          fields=fields)


class Telemetry:
    """The instrumentation hub.

    Parameters
    ----------
    enabled:
        When False the hub retains no events and updates no counters;
        only attached sinks still observe emitted events.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters = CounterRegistry()
        self._events: List[TelemetryEvent] = []
        self._sinks: List[Sink] = []
        # Periodic blocks: (start, end, repeats, dt, stride) index windows
        # into ``_events`` whose replicas at offsets k*dt (k = 1..repeats),
        # frames advanced by k*stride, are expanded lazily by
        # ``_materialize``.
        self._blocks: List[Tuple[int, int, int, float, int]] = []
        self._materialized: Optional[
            Tuple[Tuple[int, int], List[TelemetryEvent]]] = None
        # Optional runtime sanitizer suite (repro.analysis.sanitizers).
        # Model-layer hooks (RCCE, MPB) guard with ``if sanitizers is not
        # None`` — a direct attribute check, no event allocation — so
        # sanitizer-off runs pay one comparison per site.
        self.sanitizers: Optional[Any] = None

    def attach_sanitizers(self, suite: Any) -> Any:
        """Route runtime-sanitizer hooks from instrumented subsystems to
        ``suite``; returns it (for later :meth:`detach_sanitizers`)."""
        self.sanitizers = suite
        return suite

    def detach_sanitizers(self) -> None:
        self.sanitizers = None

    # -- sinks ------------------------------------------------------------
    def add_sink(self, sink: Sink) -> Sink:
        """Attach a consumer; returns it (for later :meth:`remove_sink`)."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        """Detach a consumer (no-op if it is not attached)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    @property
    def has_sinks(self) -> bool:
        return bool(self._sinks)

    def as_sink(self) -> Sink:
        """This hub as a sink for another hub (hub-to-hub forwarding).

        Events dispatched by the upstream hub are retained/observed here
        under this hub's own ``enabled``/sink rules.
        """
        return self._dispatch

    # -- emission ------------------------------------------------------------
    def _dispatch(self, event: TelemetryEvent) -> None:
        if self.enabled:
            self._events.append(event)
        for sink in self._sinks:
            sink(event)

    def emit(self, category: str, name: str, t: float,
             track: Optional[str] = None, **fields: Any) -> None:
        """Record an instant event at time ``t``."""
        if not self.enabled and not self._sinks:
            return
        self._dispatch(TelemetryEvent("instant", category, name, t,
                                      track=track, fields=fields))

    def span(self, category: str, track: str, name: str,
             t0: float, t1: float, **fields: Any) -> None:
        """Record a closed activity window ``[t0, t1]`` on ``track``."""
        if not self.enabled and not self._sinks:
            return
        if t1 < t0:
            raise ValueError(f"span ends before it starts ({t1} < {t0})")
        self._dispatch(TelemetryEvent("span", category, name, t0,
                                      dur=t1 - t0, track=track,
                                      fields=fields))

    def sample(self, category: str, name: str, t: float, value: float,
               track: Optional[str] = None) -> None:
        """Record a ``(t, value)`` observation of a continuous signal."""
        if not self.enabled and not self._sinks:
            return
        self._dispatch(TelemetryEvent("sample", category, name, t,
                                      track=track or name,
                                      value=float(value)))

    # -- periodic blocks -----------------------------------------------------
    def add_periodic_block(self, start: int, end: int, repeats: int,
                           dt: float, stride: int = 1) -> None:
        """Declare that ``_events[start:end]`` repeats ``repeats`` more
        times at period ``dt`` (replica ``k`` shifted by ``k * dt`` with
        integer ``frame``/``tag`` fields advanced by ``k * stride``, the
        block spanning ``stride`` frames).

        Blocks must be registered in stream order: ``start`` may not
        reach back before the previous block's ``end``.  Registration is
        O(1); expansion happens lazily on first read.
        """
        if not self.enabled:
            return
        if not (0 <= start <= end <= len(self._events)):
            raise ValueError(
                f"periodic block [{start}:{end}] outside retained "
                f"events (len={len(self._events)})")
        if self._blocks and start < self._blocks[-1][1]:
            raise ValueError("periodic blocks must not overlap")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self._blocks.append((start, end, repeats, dt, stride))

    def _materialize(self) -> List[TelemetryEvent]:
        """Retained events with every periodic block expanded in place."""
        if not self._blocks:
            return self._events
        key = (len(self._events), len(self._blocks))
        if self._materialized is not None and self._materialized[0] == key:
            out: List[TelemetryEvent] = self._materialized[1]
            return out
        expanded: List[TelemetryEvent] = []
        cursor = 0
        for start, end, repeats, dt, stride in self._blocks:
            expanded.extend(self._events[cursor:end])
            window = self._events[start:end]
            for k in range(1, repeats + 1):
                offset = k * dt
                for event in window:
                    expanded.append(_shifted_copy(event, offset,
                                                  k * stride))
            cursor = end
        expanded.extend(self._events[cursor:])
        self._materialized = (key, expanded)
        return expanded

    @property
    def event_count(self) -> int:
        """Number of retained events after periodic-block expansion."""
        return len(self._events) + sum(
            (end - start) * repeats
            for start, end, repeats, _, _ in self._blocks)

    @property
    def raw_event_count(self) -> int:
        """Number of retained events before periodic-block expansion
        (the index space :meth:`add_periodic_block` addresses)."""
        return len(self._events)

    # -- cross-process merge ------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Picklable state of the hub: retained events plus a lossless
        counter-registry snapshot (for worker → parent merging)."""
        return {
            "events": list(self._materialize()),
            "counters": self.counters.snapshot(),
        }

    def ingest(self, snapshot: Dict[str, Any]) -> None:
        """Merge a worker hub's :meth:`snapshot` into this hub.

        Events append to the retained buffer (only while ``enabled``,
        matching live emission) and counters fold via
        :meth:`~repro.telemetry.counters.CounterRegistry.merge_snapshot`.
        Sinks do **not** re-observe ingested events: per-run sinks
        (RunMetrics, traces) already consumed them in the worker.
        """
        if self.enabled:
            self._events.extend(snapshot.get("events", ()))
        self.counters.merge_snapshot(snapshot.get("counters", {}))

    # -- queries ------------------------------------------------------------
    @property
    def events(self) -> List[TelemetryEvent]:
        """Retained events (chronological by completion), with periodic
        blocks expanded."""
        return list(self._materialize())

    def events_in(self, category: str) -> List[TelemetryEvent]:
        return [e for e in self._materialize() if e.category == category]

    def tracks(self, category: Optional[str] = None) -> List[str]:
        """Distinct track names, in first-appearance order."""
        seen: List[str] = []
        for event in self._events:
            if category is not None and event.category != category:
                continue
            if event.track is not None and event.track not in seen:
                seen.append(event.track)
        return seen

    @property
    def horizon(self) -> float:
        """Latest event end time (0 when empty)."""
        base = max((e.end for e in self._events), default=0.0)
        for start, end, repeats, dt, _ in self._blocks:
            reach = max((e.end for e in self._events[start:end]),
                        default=0.0) + repeats * dt
            if reach > base:
                base = reach
        return base

    def clear(self) -> None:
        """Drop retained events (counters and sinks stay)."""
        self._events.clear()
        self._blocks.clear()
        self._materialized = None

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<Telemetry {state} events={self.event_count} "
                f"metrics={len(self.counters)} sinks={len(self._sinks)}>")


def _base_key(track: str) -> str:
    """Stage kind without the per-pipeline suffix (``blur[2]`` -> ``blur``)."""
    return track.split("[")[0]


class MetricsSink:
    """Feeds ``stage`` busy/idle spans into a RunMetrics-like collector.

    This is what makes :class:`~repro.pipeline.metrics.RunMetrics` a thin
    consumer of the hub: the stages emit spans, the sink translates them
    into the ``record_busy`` / ``record_idle`` calls the Fig. 15 path has
    always used.
    """

    def __init__(self, metrics: Any) -> None:
        self.metrics = metrics

    def __call__(self, event: TelemetryEvent) -> None:
        if event.kind != "span" or event.category != "stage":
            return
        assert event.track is not None
        if event.name == "busy":
            self.metrics.record_busy(_base_key(event.track), event.dur)
        elif event.name == "idle":
            self.metrics.record_idle(_base_key(event.track), event.dur)


class TraceSink:
    """Feeds ``stage`` busy spans into a :class:`~repro.sim.TraceRecorder`.

    Only busy spans are forwarded so ``busy_fraction`` and the ASCII
    Gantt chart keep their historical meaning (idle windows stay
    implicit as gaps).
    """

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder

    def __call__(self, event: TelemetryEvent) -> None:
        if (event.kind == "span" and event.category == "stage"
                and event.name == "busy"):
            assert event.track is not None
            self.recorder.add(event.track, "busy", event.t, event.end)


#: A shared always-disabled hub for subsystems constructed without one.
#: Never attach sinks to it — create your own ``Telemetry`` instead.
NULL_TELEMETRY = Telemetry(enabled=False)
