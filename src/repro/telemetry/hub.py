"""The telemetry hub: structured events, counters, pluggable sinks.

One :class:`Telemetry` instance accompanies a simulation; every
instrumented subsystem (mesh, memory controllers, DVFS, power, pipeline
stages) reports into it and every consumer (run metrics, Gantt
charts, Chrome-trace export, top reports) reads out of it.

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
  stays a thin consumer of the hub even in runs that collect no
  telemetry (the Fig. 15 path).
* **Retention only when enabled.**  The ``events`` buffer (what the
  Chrome-trace exporter and the Gantt chart read) fills only while
  ``enabled`` is True.
* **Periodic regions stay symbolic.**  A producer that knows a window of
  retained events repeats verbatim at a fixed period (the batched
  engine's frame-wave jump) registers it via :meth:`add_periodic_block`
  instead of appending ``repeats × window`` copies, so registering a
  block is O(1) no matter how many waves it covers.  The exporters and
  the insight engine read the stream in that block form
  (:func:`stretches`) and build only the replicas they keep; every
  other reader sees the fully expanded, chronologically ordered stream
  through ``events`` / ``events_in``, materialized on first read and
  cached.

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
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from .counters import CounterRegistry

__all__ = ["TelemetryEvent", "Telemetry", "Stretch", "stretches",
           "MetricsSink", "NULL_TELEMETRY"]


@dataclass
class TelemetryEvent:
    """One structured telemetry record."""

    #: "span" | "instant" | "sample"
    kind: str
    #: subsystem ("stage", "mesh", "dram", "dvfs", "power", ...)
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


class Stretch(NamedTuple):
    """A run of retained events that repeats ``repeats`` more times.

    Replica ``k`` (``k = 1..repeats``) of every event starts ``k * dt``
    later and has its integer ``frame``/``tag`` fields advanced by
    ``k * stride``; a plain stretch repeats 0 times.  In stream order
    the raw events come first, then replica 1 of each, then replica 2.
    """

    events: Sequence[TelemetryEvent]
    repeats: int = 0
    dt: float = 0.0
    stride: int = 0

    def shift(self, event: TelemetryEvent,
              k: int) -> Tuple[float, Dict[str, Any]]:
        """Start time and fields of ``event``'s replica ``k`` (replica 0
        is the event itself; a shifted replica gets its own fields)."""
        if not k:
            return event.t, event.fields
        fields = event.fields
        if fields and ("frame" in fields or "tag" in fields):
            fields = dict(fields)
            delta = k * self.stride
            frame = fields.get("frame")
            if isinstance(frame, int):
                fields["frame"] = frame + delta
            tag = fields.get("tag")
            if isinstance(tag, int):
                fields["tag"] = tag + delta
        return event.t + k * self.dt, fields

    def expand(self, events: Optional[Iterable[TelemetryEvent]] = None,
               ) -> Iterator[TelemetryEvent]:
        """``events`` (default: all of the stretch's) and their
        replicas, in stream order."""
        window = self.events if events is None else list(events)
        yield from window
        for k in range(1, self.repeats + 1):
            for event in window:
                t, fields = self.shift(event, k)
                yield TelemetryEvent(event.kind, event.category,
                                     event.name, t, dur=event.dur,
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
        # frames advanced by k*stride, are read in place through
        # ``stretches``.
        self._blocks: List[Tuple[int, int, int, float, int]] = []
        self._materialized: Optional[
            Tuple[Tuple[int, int], List[TelemetryEvent]]] = None

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

    def stretches(self) -> Iterator[Stretch]:
        """The retained stream in block form: plain stretches between
        the periodic blocks, each block with its repeats."""
        cursor = 0
        for start, end, repeats, dt, stride in self._blocks:
            if start > cursor:
                yield Stretch(self._events[cursor:start])
            yield Stretch(self._events[start:end], repeats, dt, stride)
            cursor = end
        if cursor < len(self._events):
            yield Stretch(self._events[cursor:])

    def _materialize(self) -> List[TelemetryEvent]:
        """Retained events with every periodic block expanded in place."""
        if not self._blocks:
            return self._events
        key = (len(self._events), len(self._blocks))
        if self._materialized is not None and self._materialized[0] == key:
            out: List[TelemetryEvent] = self._materialized[1]
            return out
        expanded: List[TelemetryEvent] = []
        for stretch in self.stretches():
            expanded.extend(stretch.expand())
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


def stretches(source: Union[Telemetry, Iterable[TelemetryEvent]],
              ) -> Iterator[Stretch]:
    """A hub's stream in block form, or an event list as one plain
    stretch."""
    if isinstance(source, Telemetry):
        return source.stretches()
    return iter([Stretch(list(source))])


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


#: A shared always-disabled hub for subsystems constructed without one.
#: Never attach sinks to it — create your own ``Telemetry`` instead.
NULL_TELEMETRY = Telemetry(enabled=False)
