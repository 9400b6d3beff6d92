"""Exporters: Chrome trace-event JSON, ASCII Gantt charts, counter dumps,
text top reports.

The Chrome trace-event format (the ``chrome://tracing`` / Perfetto JSON
flavour) maps onto the hub's event kinds directly:

* span  -> complete event (``"ph": "X"``) with microsecond ``ts``/``dur``;
* instant -> instant event (``"ph": "i"``);
* sample -> counter event (``"ph": "C"``), one counter track per name.

Each telemetry *category* becomes one Perfetto "process" (pid) and each
*track* one "thread" (tid) inside it, labelled via metadata events — so
a profiled run opens as one group per subsystem with one row per stage,
per active mesh link, per memory controller.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .counters import CounterRegistry
from .hub import Telemetry, TelemetryEvent, stretches

__all__ = [
    "chrome_trace",
    "stage_busy_spans",
    "render_gantt",
    "write_chrome_trace",
    "events_from_chrome",
    "counters_dump",
    "write_counters",
    "top_report",
    "validate_chrome_trace",
]

#: microseconds per second (Chrome trace timestamps are in us)
_US = 1e6


class _IdAllocator:
    """Stable pid/tid assignment plus the matching metadata events."""

    def __init__(self) -> None:
        #: (category, track) -> (pid, tid); (category, None) is the
        #: process itself
        self._ids: Dict[Tuple[str, Optional[str]], Tuple[int, int]] = {}
        #: pid -> tracks named so far
        self._tracks: Dict[int, int] = {}
        self.metadata: List[Dict[str, Any]] = []

    def resolve(self, category: str,
                track: Optional[str]) -> Tuple[int, int]:
        found = self._ids.get((category, track))
        if found is not None:
            return found
        process = self._ids.get((category, None))
        if process is None:
            pid = len(self._tracks) + 1
            self._tracks[pid] = 0
            process = self._ids[(category, None)] = (pid, 0)
            self.metadata.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "ts": 0, "args": {"name": category},
            })
        if track is None:
            return process
        pid = process[0]
        tid = self._tracks[pid] = self._tracks[pid] + 1
        self.metadata.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "ts": 0, "args": {"name": track},
        })
        found = self._ids[(category, track)] = (pid, tid)
        return found


def chrome_trace(telemetry: Union[Telemetry, Sequence[TelemetryEvent]],
                 ) -> Dict[str, Any]:
    """Convert hub events into a Chrome trace-event JSON document.

    Events are sorted by timestamp (metadata first), so ``ts`` is
    monotone within every ``(pid, tid)`` track of sequential spans.
    A hub's periodic blocks are read in place: each replica becomes a
    trace event without becoming a :class:`TelemetryEvent` first.
    """
    ids = _IdAllocator()
    converted: List[Dict[str, Any]] = []
    add = converted.append
    for stretch in stretches(telemetry):
        heads = [ids.resolve(e.category, e.track) for e in stretch.events]
        for k in range(stretch.repeats + 1):
            for event, (pid, tid) in zip(stretch.events, heads):
                t, fields = stretch.shift(event, k)
                if event.kind == "span":
                    add({"ph": "X", "name": event.name,
                         "cat": event.category, "ts": t * _US,
                         "dur": event.dur * _US, "pid": pid, "tid": tid,
                         "args": dict(fields)})
                elif event.kind == "sample":
                    add({"ph": "C", "name": event.name,
                         "cat": event.category, "ts": t * _US,
                         "pid": pid, "tid": tid,
                         "args": {event.name: event.value}})
                else:
                    add({"ph": "i", "name": event.name,
                         "cat": event.category, "ts": t * _US,
                         "pid": pid, "tid": tid, "s": "t",
                         "args": dict(fields)})
    converted.sort(key=itemgetter("ts"))
    return {
        "traceEvents": ids.metadata + converted,
        "displayTimeUnit": "ms",
    }


def stage_busy_spans(telemetry: Union[Telemetry, Sequence[TelemetryEvent]],
                     ) -> List[TelemetryEvent]:
    """The ``stage``/``busy`` spans of a hub or an event list: one per
    frame a stage served (what the Gantt chart draws)."""
    spans: List[TelemetryEvent] = []
    for stretch in stretches(telemetry):
        spans.extend(stretch.expand(
            e for e in stretch.events if e.kind == "span"
            and e.category == "stage" and e.name == "busy"))
    return spans


def render_gantt(telemetry: Union[Telemetry, Sequence[TelemetryEvent]],
                 width: int = 72, t0: float = 0.0,
                 t1: Optional[float] = None,
                 tracks: Optional[Sequence[str]] = None) -> str:
    """Render the stage busy spans as fixed-width ASCII bars.

    One row per stage track (first-appearance order unless ``tracks``
    is given).  Each column covers ``(t1 - t0) / width`` seconds and
    prints ``b`` when a busy span covers its midpoint, ``.`` (idle)
    otherwise.  ``t1`` defaults to the latest busy-span end.  The
    paper's Fig. 15 is this data, summarized: the pipeline filling, the
    bottleneck stage saturating, everything downstream idling.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    spans = stage_busy_spans(telemetry)
    end = t1 if t1 is not None else max((s.end for s in spans),
                                        default=0.0)
    if end <= t0:
        raise ValueError("empty time window")
    names = (list(tracks) if tracks is not None
             else list(dict.fromkeys(str(s.track) for s in spans)))
    if not names:
        raise ValueError("nothing to render")
    label_w = max(len(n) for n in names)
    dt = (end - t0) / width

    lines = [f"{'':{label_w}}  t0={t0:g}s  dt/col={dt:g}s  t1={end:g}s"]
    for name in names:
        row = sorted((s.t, s.end) for s in spans if s.track == name)
        starts = [start for start, _ in row]
        # reach[i]: the latest end among the first i+1 spans, so a long
        # span stays visible past a shorter one that started after it
        reach: List[float] = []
        for _, stop in row:
            reach.append(max(stop, reach[-1]) if reach else stop)
        cells = []
        for col in range(width):
            mid = t0 + (col + 0.5) * dt
            idx = bisect_right(starts, mid) - 1
            cells.append("b" if idx >= 0 and reach[idx] > mid else ".")
        lines.append(f"{name:{label_w}}  {''.join(cells)}")
    return "\n".join(lines)


def write_chrome_trace(path: Union[str, Path],
                       telemetry: Union[Telemetry,
                                        Sequence[TelemetryEvent]]) -> Path:
    """Write the Chrome trace JSON to ``path`` and return the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(telemetry)) + "\n",
                    encoding="ascii")
    return path


def events_from_chrome(doc: Dict[str, Any]) -> List[TelemetryEvent]:
    """Inverse of :func:`chrome_trace`: rebuild hub events from a trace.

    Lets the insight engine (``repro analyze --trace run.json``) consume
    a previously exported trace file instead of a live hub.  Metadata
    events resolve pid/tid back to category/track names; ``X``/``i``/``C``
    phases map back to span/instant/sample.  Unknown phases are skipped.
    Timestamps round-trip through microseconds, so a re-export of the
    parsed events reproduces the original ``ts``/``dur`` values.
    """
    raw = doc.get("traceEvents")
    if not isinstance(raw, list):
        raise ValueError("missing or non-list 'traceEvents'")
    categories: Dict[int, str] = {}
    tracks: Dict[Tuple[int, int], str] = {}
    for ev in raw:
        if not isinstance(ev, dict) or ev.get("ph") != "M":
            continue
        if ev.get("name") == "process_name":
            categories[ev["pid"]] = ev["args"]["name"]
        elif ev.get("name") == "thread_name":
            tracks[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    events: List[TelemetryEvent] = []
    for ev in raw:
        if not isinstance(ev, dict):
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "C"):
            continue
        pid = ev.get("pid", 0)
        tid = ev.get("tid", 0)
        category = categories.get(pid, ev.get("cat", "trace"))
        track = tracks.get((pid, tid))
        t = float(ev["ts"]) / _US
        if ph == "X":
            events.append(TelemetryEvent(
                "span", category, ev["name"], t,
                dur=float(ev.get("dur", 0.0)) / _US, track=track,
                fields=dict(ev.get("args", {}))))
        elif ph == "C":
            args = ev.get("args", {})
            value = args.get(ev["name"])
            events.append(TelemetryEvent(
                "sample", category, ev["name"], t, track=track or ev["name"],
                value=float(value) if value is not None else None))
        else:
            events.append(TelemetryEvent(
                "instant", category, ev["name"], t, track=track,
                fields=dict(ev.get("args", {}))))
    return events


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def counters_dump(registry: CounterRegistry, fmt: str = "json") -> str:
    """Serialize the registry: ``fmt`` is ``"json"`` or ``"csv"``."""
    if fmt == "json":
        return json.dumps(registry.as_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "kind", "value"])
        for name, kind, value in registry.csv_rows():
            writer.writerow([name, kind, repr(value)])
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r} (json or csv)")


def write_counters(path: Union[str, Path],
                   registry: CounterRegistry) -> Path:
    """Dump the registry to ``path`` (format chosen by the suffix)."""
    path = Path(path)
    fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    path.write_text(counters_dump(registry, fmt), encoding="ascii")
    return path


# ---------------------------------------------------------------------------
# top report
# ---------------------------------------------------------------------------

def _top(registry: CounterRegistry, pattern: str,
         n: int) -> List[Tuple[str, float]]:
    matches = [(name, metric.value)
               for name, metric in registry.match(pattern).items()]
    matches.sort(key=lambda kv: kv[1], reverse=True)
    return matches[:n]


def _fmt_bytes(nbytes: float) -> str:
    for unit, scale in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if nbytes >= scale:
            return f"{nbytes / scale:.1f} {unit}"
    return f"{nbytes:.0f} B"


def top_report(telemetry: Telemetry, top: int = 5,
               horizon: Optional[float] = None) -> str:
    """A text summary: hottest links, controllers and stages.

    ``horizon`` (seconds) is the run length used for utilization
    percentages; defaults to the latest event end the hub retained.
    """
    reg = telemetry.counters
    if horizon is None:
        horizon = telemetry.horizon
    lines: List[str] = [f"top report (horizon {horizon:.2f} s)"]

    links = _top(reg, "mesh.link.*.bytes", top)
    lines.append(f"\nhottest mesh links (top {top} by bytes):")
    if not reg.match("mesh.link.*.bytes"):
        lines.append("  (no mesh traffic recorded)")
    total_mesh = sum(m.value for m in reg.match("mesh.link.*.bytes").values())
    for name, value in links:
        share = 100.0 * value / total_mesh if total_mesh else 0.0
        link = name[len("mesh.link."):-len(".bytes")]
        lines.append(f"  {link:>14}  {_fmt_bytes(value):>10}  "
                     f"{share:5.1f} % of mesh bytes")

    mcs = _top(reg, "dram.mc*.bytes", top)
    lines.append(f"\nmemory controllers (top {top} by bytes):")
    if not reg.match("dram.mc*.bytes"):
        lines.append("  (no controller traffic recorded)")
    for name, value in mcs:
        mc = name[len("dram."):-len(".bytes")]
        requests = reg.value(f"dram.{mc}.requests") \
            if f"dram.{mc}.requests" in reg else 0.0
        lines.append(f"  {mc:>14}  {_fmt_bytes(value):>10}  "
                     f"{requests:.0f} requests")

    stages = _top(reg, "stage.*.busy_s", top)
    lines.append(f"\nbusiest stages (top {top} by busy seconds):")
    if not reg.match("stage.*.busy_s"):
        lines.append("  (no stage activity recorded)")
    for name, value in stages:
        key = name[len("stage."):-len(".busy_s")]
        util = 100.0 * value / horizon if horizon > 0 else 0.0
        frames = reg.value(f"stage.{key}.frames") \
            if f"stage.{key}.frames" in reg else 0.0
        lines.append(f"  {key:>14}  {value:8.2f} s busy  {util:5.1f} % "
                     f"util  {frames:.0f} frames")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Check a trace document against the trace-event schema.

    Returns a list of problems (empty means valid): every event carries
    the required keys and, per ``(pid, tid)`` track, the ``ts`` of
    complete events never decreases.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    last_ts: Dict[Tuple[int, int], float] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in event]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if event["ph"] == "X":
            key = (event["pid"], event["tid"])
            if ts < last_ts.get(key, float("-inf")):
                problems.append(
                    f"event {i}: ts {ts} goes backwards on track {key}")
            last_ts[key] = ts
    return problems
