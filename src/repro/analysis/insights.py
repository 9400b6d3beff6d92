"""The trace insight engine: critical paths, attribution, verdicts.

PR 1's telemetry hub records *what happened* (spans, counters); this
module derives *why the run took as long as it did*:

* :func:`analyze_events` — consume a hub's event stream (or a parsed
  Chrome trace via :func:`~repro.telemetry.events_from_chrome`) and
  produce a :class:`RunInsight`:

  - a **critical path** walked backwards through the frame dataflow
    (which stage each completion transitively waited on), whose duration
    telescopes to *exactly* the makespan — the walk only ends when it
    reaches t=0, so ``path.duration == makespan`` is structural, not
    approximate;
  - **per-stage wall-time attribution**: every track's ``[0, makespan]``
    window is partitioned into labelled intervals (compute, blocked on
    the downstream rendezvous, MC queueing, mesh contention,
    idle-starved, uncontended handoff, drained) whose
    boundaries are the exact event timestamps, so the categories tile
    the wall time with shared floats — no residual bucket;
  - **upstream-cause attribution** for idle time ("blur idle because
    sepia was still working"), by intersecting a stage's starvation
    windows with its upstream's activity timeline;
  - an automated **bottleneck verdict** (stage, resource, confidence).

* :func:`verdict_from_result` — the summary-level verdict computable
  from a :class:`~repro.pipeline.metrics.RunResult` alone.  This is what
  metrics snapshots (``repro analyze --snapshot-out``) use, so a
  cache-served run (which carries no events) analyzes byte-identically
  to a fresh one.

The engine understands the paper's four configurations; the stage graph
is reconstructed from track names (``blur[2]``, ``render``, ``connect``,
``transfer``, the host's ``mcpc-render``) plus the per-span causality
fields the instrumentation attaches (``frame``, ``src_core``, ``core``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..pipeline.describe import FILTER_KEYS
from ..pipeline.metrics import RunResult
from ..sim import StatAccumulator
from ..telemetry import Telemetry, TelemetryEvent
from ..telemetry.hub import stretches

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "PathSegment",
    "CriticalPath",
    "StageAttribution",
    "BottleneckVerdict",
    "RunInsight",
    "analyze_events",
    "analyze_telemetry",
    "verdict_from_result",
]

#: the categories a stage's wall time decomposes into (they tile
#: ``[0, makespan]`` exactly — see :class:`StageAttribution`)
ATTRIBUTION_CATEGORIES = (
    "compute",     # the stage's own service (busy minus waits inside it)
    "blocked",     # inside busy, stalled in the send rendezvous
    "mc_queue",    # waiting for a memory-controller grant
    "mesh_queue",  # waiting for a mesh-link grant
    "starved",     # waiting for upstream input (idle + wait spans)
    "handoff",     # uncontended data movement between spans (fetches)
    "drained",     # after the stage's last activity (pipeline drain)
)

_Span = Tuple[float, float, str, Dict[str, Any]]       # (t0, t1, name, fields)
_Interval = Tuple[float, float, str]                   # (t0, t1, label)

#: sub-interval label -> attribution category (within busy or a gap)
_SUB_CATEGORY = {
    "rendezvous": "blocked",
    "dram_queue": "mc_queue",
    "mesh_queue": "mesh_queue",
}

#: busy sub-category -> bottleneck resource name
_RESOURCE_OF = {
    "blocked": "downstream",
    "mc_queue": "memory-controller",
    "mesh_queue": "mesh",
}

#: the categories that count as a stage's busy time
_BUSY = ("compute", "blocked", "mc_queue", "mesh_queue")


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path (chronological order)."""

    track: str
    #: "busy" | "handoff" | "wait" | "startup"
    kind: str
    t0: float
    t1: float
    frame: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class CriticalPath:
    """The backwards walk from the last completion to time zero.

    ``duration`` is defined as ``makespan - origin`` — each walk step
    moves the cursor to the segment's start, so the accounted segments
    telescope and the identity ``duration == makespan`` holds *exactly*
    (bit-for-bit) whenever the walk reached ``origin == 0.0``.
    """

    segments: List[PathSegment]
    makespan: float
    #: where the walk stopped (0.0 = reached the start of the run)
    origin: float = 0.0

    @property
    def duration(self) -> float:
        return self.makespan - self.origin

    def seconds_by_kind(self) -> Dict[str, float]:
        out: Dict[str, List[float]] = {}
        for seg in self.segments:
            out.setdefault(seg.kind, []).append(seg.duration)
        return {k: math.fsum(v) for k, v in sorted(out.items())}

    def seconds_by_track(self) -> Dict[str, float]:
        out: Dict[str, List[float]] = {}
        for seg in self.segments:
            if seg.kind == "busy":
                out.setdefault(seg.track, []).append(seg.duration)
        return {k: math.fsum(v) for k, v in sorted(out.items())}


@dataclass
class StageAttribution:
    """One track's exact wall-time decomposition over ``[0, makespan]``.

    ``intervals`` is a *partition*: the first interval starts at 0.0,
    the last ends at the makespan, and each interval's end is the next
    one's start (the identical float — boundaries are shared event
    timestamps, never arithmetic).  ``seconds`` sums each category with
    ``math.fsum``.
    """

    track: str
    core: Optional[int]
    wall_s: float
    seconds: Dict[str, float]
    intervals: List[_Interval]
    #: upstream state during this stage's starvation windows:
    #: "upstream_working" | "upstream_starved" | "upstream_handoff"
    starved_by: Dict[str, float]
    upstream: Optional[str]

    @property
    def busy_s(self) -> float:
        return math.fsum(self.seconds.get(c, 0.0) for c in _BUSY)

    def total(self) -> float:
        """``fsum`` over the partition (equals ``wall_s`` up to fp)."""
        return math.fsum(b - a for a, b, _ in self.intervals)


@dataclass
class BottleneckVerdict:
    """The automated diagnosis: which stage limits the run, and why."""

    #: stage kind ("render", "blur", "connect", ..., "mcpc-render")
    stage: str
    #: "core" | "memory-controller" | "mesh" | "downstream"
    resource: str
    #: (u1 - u2) / u1 — separation of the top utilization from the next
    confidence: float
    #: the bottleneck stage's busy fraction of the makespan
    utilization: float
    runner_up: Optional[str]
    utilizations: Dict[str, float]

    def describe(self) -> str:
        pct = 100.0 * self.utilization
        return (f"{self.stage} ({self.resource}-bound, "
                f"{pct:.0f}% utilized, confidence {self.confidence:.2f})")


@dataclass
class RunInsight:
    """Everything :func:`analyze_events` derives from one run's events."""

    makespan: float
    critical_path: CriticalPath
    #: per-instance attribution (keys: "blur[2]", "transfer", ...)
    tracks: Dict[str, StageAttribution]
    verdict: BottleneckVerdict
    #: per-kind idle samples in emission order (matches RunMetrics)
    idle_stats: Dict[str, StatAccumulator] = field(default_factory=dict)
    #: per-kind attribution totals summed across instances
    kind_seconds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-kind mean busy fraction (utilization)
    kind_utilization: Dict[str, float] = field(default_factory=dict)
    core_of: Dict[str, Optional[int]] = field(default_factory=dict)

    def idle_quartiles(self) -> Dict[str, Tuple[float, float, float]]:
        """Per-kind (Q1, median, Q3) idle — the Fig. 15 data, rebuilt
        from spans (identical samples to ``RunMetrics``)."""
        return {k: acc.quartiles() for k, acc in self.idle_stats.items()
                if len(acc)}

    def filter_verdict(self) -> Optional[BottleneckVerdict]:
        """The verdict restricted to the five *filter* stages.

        The paper's Fig. 15 claim is per-pipeline: blur, the longest
        filter, shows the least idle time and paces every pipeline —
        even in configurations whose whole-run bottleneck is a
        distribution stage (connect / render).  ``None`` when the run
        has no filter stages (single-core).
        """
        utils = {k: v for k, v in self.kind_utilization.items()
                 if k in FILTER_KEYS}
        if not utils:
            return None
        return _deep_verdict(utils, {k: self.kind_seconds[k]
                                     for k in utils})

    def dominant_idle_cause(self, track: str) -> Optional[str]:
        att = self.tracks[track]
        if not att.starved_by:
            return None
        return max(sorted(att.starved_by), key=lambda k: att.starved_by[k])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (``repro analyze --json``)."""
        fv = self.filter_verdict()
        return {
            "makespan_s": self.makespan,
            "verdict": {
                "stage": self.verdict.stage,
                "resource": self.verdict.resource,
                "confidence": self.verdict.confidence,
                "utilization": self.verdict.utilization,
                "runner_up": self.verdict.runner_up,
                "utilizations": dict(sorted(
                    self.verdict.utilizations.items())),
            },
            "filter_verdict": None if fv is None else {
                "stage": fv.stage,
                "resource": fv.resource,
                "confidence": fv.confidence,
                "utilization": fv.utilization,
                "runner_up": fv.runner_up,
            },
            "critical_path": {
                "duration_s": self.critical_path.duration,
                "origin_s": self.critical_path.origin,
                "segments": len(self.critical_path.segments),
                "by_kind_s": self.critical_path.seconds_by_kind(),
                "busy_by_track_s": self.critical_path.seconds_by_track(),
            },
            "tracks": {
                track: {
                    "core": att.core,
                    "upstream": att.upstream,
                    "seconds": dict(sorted(att.seconds.items())),
                    "starved_by": dict(sorted(att.starved_by.items())),
                }
                for track, att in sorted(self.tracks.items())
            },
            "kind_utilization": dict(sorted(self.kind_utilization.items())),
            "idle_quartiles": {k: list(q) for k, q in
                               sorted(self.idle_quartiles().items())},
        }

    def format_text(self) -> str:
        """Human-readable report (``repro analyze``)."""
        lines = [f"makespan          : {self.makespan:.3f} s  "
                 f"(critical path {self.critical_path.duration:.3f} s, "
                 f"{len(self.critical_path.segments)} segments)"]
        lines.append(f"bottleneck        : {self.verdict.describe()}")
        fv = self.filter_verdict()
        if fv is not None:
            lines.append(f"pipeline filter   : {fv.describe()}")
        by_kind = self.critical_path.seconds_by_kind()
        parts = ", ".join(f"{k} {100.0 * v / self.makespan:.0f}%"
                          for k, v in by_kind.items())
        lines.append(f"path composition  : {parts}")
        busy_by = self.critical_path.seconds_by_track()
        top = sorted(busy_by.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        lines.append("path busy leaders : " + ", ".join(
            f"{t} {100.0 * v / self.makespan:.0f}%" for t, v in top))
        lines.append("")
        lines.append(f"{'stage':>12} {'util%':>6} {'compute':>8} "
                     f"{'blocked':>8} {'mc q':>7} {'mesh q':>7} "
                     f"{'starved':>8} {'drained':>8}")
        for kind in sorted(self.kind_utilization,
                           key=lambda k: -self.kind_utilization[k]):
            sec = self.kind_seconds[kind]
            lines.append(
                f"{kind:>12} {100.0 * self.kind_utilization[kind]:>6.1f} "
                f"{sec.get('compute', 0.0):>8.3f} "
                f"{sec.get('blocked', 0.0):>8.3f} "
                f"{sec.get('mc_queue', 0.0):>7.3f} "
                f"{sec.get('mesh_queue', 0.0):>7.3f} "
                f"{sec.get('starved', 0.0):>8.3f} "
                f"{sec.get('drained', 0.0):>8.3f}")
        causes = []
        for track in sorted(self.tracks):
            att = self.tracks[track]
            starved = att.seconds.get("starved", 0.0)
            cause = self.dominant_idle_cause(track)
            if starved > 0.0 and cause is not None and att.upstream:
                share = 100.0 * att.starved_by[cause] / starved
                what = {"upstream_working": "was still working",
                        "upstream_starved": "was itself starved",
                        "upstream_handoff": "was handing data off",
                        }.get(cause, cause)
                causes.append(f"  {track}: starved {starved:.3f} s — "
                              f"{share:.0f}% because {att.upstream} {what}")
        if causes:
            lines.append("")
            lines.append("starvation causes :")
            lines.extend(causes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# event collection
# ---------------------------------------------------------------------------

def _parse_track(track: str) -> Tuple[str, Optional[int]]:
    """``"blur[2]"`` -> ``("blur", 2)``; ``"render"`` -> (render, None)."""
    if track.endswith("]") and "[" in track:
        base, idx = track[:-1].split("[", 1)
        try:
            return base, int(idx)
        except ValueError:
            return track, None
    return track, None


class _Collected:
    """The event stream, sorted into what the analyses need.

    Each raw event of a hub's stretch is classified once; only the
    records kept here are replicated across the stretch's repeats (the
    mesh xfer and DRAM access spans never are).
    """

    def __init__(self, source: Union[Telemetry, Iterable[TelemetryEvent]],
                 ) -> None:
        #: track -> base spans (busy/idle/wait), emission order
        self.spans: Dict[str, List[_Span]] = {}
        #: core -> contention sub-intervals (rendezvous/queues)
        self.subs: Dict[int, List[_Interval]] = {}
        #: core -> track (from the stages' "bind" instants)
        self.core_track: Dict[int, str] = {}
        #: per-kind idle samples, global emission order (= RunMetrics)
        self.idle_samples: Dict[str, List[float]] = {}
        for stretch in stretches(source):
            kept: List[Tuple[TelemetryEvent, Tuple[str, Any, str]]] = []
            for ev in stretch.events:
                rec = self._classify(ev)
                if rec is not None:
                    kept.append((ev, rec))
            for k in range(stretch.repeats + 1):
                for ev, (what, key, label) in kept:
                    t0, fields = stretch.shift(ev, k)
                    t1 = t0 + ev.dur
                    if what == "bind":
                        self.core_track[key] = label
                    elif what == "span":
                        if label == "idle":
                            base, _ = _parse_track(key)
                            self.idle_samples.setdefault(base, []).append(
                                ev.dur)
                        if t1 > t0:  # zero-width spans carry no wall time
                            self.spans.setdefault(key, []).append(
                                (t0, t1, label, fields))
                    elif t1 > t0:
                        self.subs.setdefault(key, []).append(
                            (t0, t1, label))
        for spans in self.spans.values():
            spans.sort(key=lambda s: (s[0], s[1]))
        for subs in self.subs.values():
            subs.sort(key=lambda s: (s[0], s[1]))

    @staticmethod
    def _classify(ev: TelemetryEvent) -> Optional[Tuple[str, Any, str]]:
        """``(what, key, label)`` for an event the analyses read, where
        ``what`` is ``"bind"`` (core -> track), ``"span"`` (track ->
        busy/idle/wait) or ``"sub"`` (core -> contention label)."""
        if ev.kind == "instant":
            if (ev.category == "stage" and ev.name == "bind"
                    and ev.track is not None):
                core = ev.fields.get("core")
                if core is not None:
                    return "bind", int(core), ev.track
            return None
        if ev.kind != "span":
            return None
        if ev.category in ("stage", "host"):
            if ev.track is None or ev.name not in ("busy", "idle", "wait"):
                return None
            return "span", ev.track, ev.name
        if ev.category == "rcce" and ev.name == "rendezvous":
            src = ev.fields.get("src")
            return None if src is None else ("sub", int(src), "rendezvous")
        if ev.name == "queue" and ev.category in ("dram", "mesh"):
            core = ev.fields.get("core")
            return (None if core is None
                    else ("sub", int(core), f"{ev.category}_queue"))
        return None


def _upstream_map(tracks: Iterable[str]) -> Dict[str, Optional[str]]:
    """The static dataflow graph, reconstructed from track names."""
    present = set(tracks)
    up: Dict[str, Optional[str]] = {}
    for track in present:
        base, p = _parse_track(track)
        source: Optional[str] = None
        if base in FILTER_KEYS and p is not None:
            j = FILTER_KEYS.index(base)
            if j > 0:
                source = f"{FILTER_KEYS[j - 1]}[{p}]"
            elif "render" in present:
                source = "render"
            elif f"render[{p}]" in present:
                source = f"render[{p}]"
            elif "connect" in present:
                source = "connect"
        elif base == "transfer":
            # idle spans come from pipeline 0's last filter; p>=1 waits
            # carry their own src_core field.
            last = f"{FILTER_KEYS[-1]}[0]"
            source = last if last in present else None
        elif base == "connect":
            source = "mcpc-render" if "mcpc-render" in present else None
        up[track] = source if source in present else None
    return up


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

def _find_segment(spans: List[_Span], starts: List[float],
                  cursor: float) -> Optional[_Span]:
    """The span active just before ``cursor``: the latest span covering
    it (``t0 < cursor <= t1``), else the latest span ending at or before
    it.  ``None`` when no span precedes the cursor."""
    i = bisect_right(starts, cursor)
    # Walk left from the last span starting before cursor.  Spans on a
    # track are disjoint, so the covering candidate (if any) is the
    # immediate predecessor; ties on end times resolve to the latest.
    best: Optional[_Span] = None
    for j in range(i - 1, -1, -1):
        t0, t1, _, _ = spans[j]
        if t0 < cursor and cursor <= t1:
            return spans[j]
        if t1 <= cursor:
            if best is None or t1 > best[1]:
                best = spans[j]
            if best is not None and t1 < cursor:
                break
    return best


def _critical_path(col: _Collected, makespan: float,
                   upstream: Dict[str, Optional[str]]) -> CriticalPath:
    terminal = None
    for track, spans in col.spans.items():
        for t0, t1, name, _ in spans:
            if name == "busy" and t1 == makespan:
                terminal = track
    if terminal is None:
        raise ValueError("no busy span ends at the makespan; cannot "
                         "anchor the critical path")
    starts = {track: [s[0] for s in spans]
              for track, spans in col.spans.items()}
    segments: List[PathSegment] = []
    track = terminal
    cursor = makespan
    limit = 10 * sum(len(s) for s in col.spans.values()) + 100
    steps = 0
    while cursor > 0.0:
        steps += 1
        if steps > limit:
            raise ValueError(
                f"critical-path walk did not converge (stuck near "
                f"t={cursor:.6f} on {track!r})")
        seg = _find_segment(col.spans[track], starts[track], cursor)
        if seg is None:
            segments.append(PathSegment(track, "startup", 0.0, cursor))
            cursor = 0.0
            break
        t0, t1, name, fields = seg
        if t1 < cursor:
            # Nothing recorded in (t1, cursor): the stage was moving data
            # uncontended (partition fetch, local copies).
            segments.append(PathSegment(track, "handoff", t1, cursor))
            cursor = t1
            continue
        if name in ("idle", "wait"):
            nxt: Optional[str] = None
            if name == "wait":
                src_core = fields.get("src_core")
                if src_core is not None:
                    nxt = col.core_track.get(int(src_core))
            if nxt is None:
                nxt = upstream.get(track)
            if nxt is None or nxt == track or nxt not in col.spans:
                # No known producer: keep the wait itself on the path so
                # the telescoping stays exact.
                segments.append(PathSegment(track, "wait", t0, cursor))
                cursor = t0
            else:
                track = nxt
            continue
        segments.append(PathSegment(track, "busy", t0, cursor,
                                    frame=fields.get("frame")))
        cursor = t0
    segments.reverse()
    return CriticalPath(segments=segments, makespan=makespan, origin=cursor)


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------

def _base_tiles(spans: List[_Span], T: float, track: str) -> List[_Interval]:
    """Tile ``[0, T]`` with the track's spans, filling gaps.

    Live-hub events are exactly adjacent (shared float boundaries); a
    trace that round-tripped through microsecond Chrome timestamps can
    perturb neighbours by an ulp, so sub-tolerance overlaps are snapped
    rather than rejected.  Real overlaps (a modelling bug — stage spans
    on one track are sequential by construction) still raise.
    """
    tiles: List[_Interval] = []
    cursor = 0.0
    tol = 1e-9 * max(T, 1.0)
    last_end = max((s[1] for s in spans), default=0.0)
    for t0, t1, name, _ in spans:
        if t0 < cursor:
            if cursor - t0 > tol:
                raise ValueError(
                    f"overlapping spans on track {track!r} at t={t0:.6f}")
            t0 = cursor
            if t1 <= t0:
                continue
        if t0 > cursor:
            tiles.append((cursor, t0, "gap"))
        tiles.append((t0, t1, name))
        cursor = t1
    if cursor < T:
        tiles.append((cursor, T, "drained" if cursor == last_end and spans
                      else "gap"))
    return tiles


def _label_at(tiles: List[_Interval], starts: List[float],
              t: float) -> Optional[str]:
    i = bisect_right(starts, t) - 1
    if i < 0:
        return None
    t0, t1, label = tiles[i]
    if t0 <= t < t1:
        return label
    return None


def _attribution(track: str, core: Optional[int], tiles: List[_Interval],
                 tile_starts: List[float], subs: List[_Interval], T: float,
                 upstream: Optional[str]) -> StageAttribution:
    points = {0.0, T}
    for a, b, _ in tiles:
        points.add(a)
        points.add(b)
    for a, b, _ in subs:
        if b > 0.0 and a < T:
            points.add(max(a, 0.0))
            points.add(min(b, T))
    ordered = sorted(points)
    sub_starts = [s[0] for s in subs]
    intervals: List[_Interval] = []
    for a, b in zip(ordered, ordered[1:]):
        if b <= a:
            continue
        mid = a + (b - a) / 2.0
        base = _label_at(tiles, tile_starts, mid) or "gap"
        sub = _label_at(subs, sub_starts, mid)
        if base in ("idle", "wait"):
            category = "starved"
        elif base == "drained":
            category = "drained"
        elif sub is not None:
            category = _SUB_CATEGORY[sub]
        elif base == "busy":
            category = "compute"
        else:
            category = "handoff"
        intervals.append((a, b, category))
    seconds: Dict[str, List[float]] = {}
    for a, b, category in intervals:
        seconds.setdefault(category, []).append(b - a)
    return StageAttribution(
        track=track, core=core, wall_s=T,
        seconds={c: math.fsum(v) for c, v in sorted(seconds.items())},
        intervals=intervals, starved_by={}, upstream=upstream)


def _starved_by(att: StageAttribution, col: _Collected,
                base_tiles: Dict[str, List[_Interval]],
                tile_starts: Dict[str, List[float]],
                upstream: Dict[str, Optional[str]]) -> Dict[str, float]:
    """Intersect starvation windows with the producer's timeline
    (``tile_starts`` holds each track's tile start times)."""
    windows: List[Tuple[float, float, Optional[str]]] = []
    for t0, t1, name, fields in col.spans.get(att.track, []):
        if name == "idle":
            windows.append((t0, t1, upstream.get(att.track)))
        elif name == "wait":
            src_core = fields.get("src_core")
            producer = (col.core_track.get(int(src_core))
                        if src_core is not None else None)
            windows.append((t0, t1, producer or upstream.get(att.track)))
    out: Dict[str, List[float]] = {}
    for t0, t1, producer in windows:
        if producer is None or producer not in base_tiles:
            out.setdefault("source", []).append(t1 - t0)
            continue
        tiles = base_tiles[producer]
        i = max(bisect_right(tile_starts[producer], t0) - 1, 0)
        while i < len(tiles) and tiles[i][0] < t1:
            a, b, label = tiles[i]
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                state = ("upstream_working" if label == "busy"
                         else "upstream_starved" if label in ("idle", "wait")
                         else "upstream_handoff")
                out.setdefault(state, []).append(hi - lo)
            i += 1
    return {k: math.fsum(v) for k, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _rank_verdict(utils: Dict[str, float],
                  resource_of: Dict[str, str]) -> BottleneckVerdict:
    if not utils:
        raise ValueError("no stage activity to diagnose")
    ranked = sorted(utils.items(), key=lambda kv: (-kv[1], kv[0]))
    stage, u1 = ranked[0]
    runner_up, u2 = ranked[1] if len(ranked) > 1 else (None, 0.0)
    confidence = 0.0 if u1 <= 0.0 else max(0.0, min(1.0, (u1 - u2) / u1))
    return BottleneckVerdict(
        stage=stage, resource=resource_of.get(stage, "core"),
        confidence=confidence, utilization=u1, runner_up=runner_up,
        utilizations=dict(sorted(utils.items())))


def verdict_from_result(result: RunResult,
                        filters_only: bool = False) -> BottleneckVerdict:
    """Summary-level bottleneck verdict from a :class:`RunResult` alone.

    Per-kind utilization is ``busy_mean * frames / walkthrough`` (every
    stage instance serves every frame, so the per-interval mean times the
    frame count is the per-instance busy total).  The resource defaults
    to the core; when some memory controller is busier than the top
    stage, the run is diagnosed as MC-bound instead.

    ``filters_only`` restricts the ranking to the five filter stages
    (the per-pipeline view — see :meth:`RunInsight.filter_verdict`).
    """
    T = result.walkthrough_seconds
    if T <= 0.0:
        raise ValueError("run has non-positive duration")
    utils = {kind: mean * result.frames / T
             for kind, mean in result.busy_means.items()
             if not filters_only or kind in FILTER_KEYS}
    verdict = _rank_verdict(utils, {})
    if not filters_only:
        mc_peak = max(result.mc_utilizations, default=0.0)
        if mc_peak > verdict.utilization:
            verdict.resource = "memory-controller"
    return verdict


def _deep_verdict(kind_utils: Dict[str, float],
                  kind_seconds: Dict[str, Dict[str, float]]
                  ) -> BottleneckVerdict:
    resource_of: Dict[str, str] = {}
    for kind, sec in kind_seconds.items():
        busy = math.fsum(sec.get(c, 0.0) for c in _BUSY)
        compute = sec.get("compute", 0.0)
        if busy <= 0.0 or compute >= 0.5 * busy:
            resource_of[kind] = "core"
            continue
        waits = {c: sec.get(c, 0.0) for c in _RESOURCE_OF}
        top = max(sorted(waits), key=lambda c: waits[c])
        resource_of[kind] = _RESOURCE_OF[top]
    return _rank_verdict(kind_utils, resource_of)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def analyze_events(events: Iterable[TelemetryEvent],
                   makespan: Optional[float] = None) -> RunInsight:
    """Derive a :class:`RunInsight` from a run's telemetry events.

    ``makespan`` (when given, e.g. ``result.walkthrough_seconds``) must
    equal the latest busy-span end in the events — the two come from the
    same simulated clock, so any mismatch means the events belong to a
    different run.
    """
    return _analyze(_Collected(events), makespan)


def _analyze(col: _Collected, makespan: Optional[float]) -> RunInsight:
    if not col.spans:
        raise ValueError("no stage activity spans in the event stream "
                         "(was the run executed with telemetry enabled?)")
    observed = max(t1 for spans in col.spans.values()
                   for _, t1, name, _ in spans if name == "busy")
    if makespan is None:
        makespan = observed
    elif makespan != observed:
        raise ValueError(
            f"makespan {makespan!r} does not match the event stream's "
            f"last busy end {observed!r}")
    upstream = _upstream_map(col.spans)
    path = _critical_path(col, makespan, upstream)

    track_core = {track: core for core, track in col.core_track.items()}
    tiles = {track: _base_tiles(spans, makespan, track)
             for track, spans in col.spans.items()}
    tile_starts = {track: [t[0] for t in ts] for track, ts in tiles.items()}
    tracks: Dict[str, StageAttribution] = {}
    for track, spans in col.spans.items():
        core = track_core.get(track)
        subs = col.subs.get(core, []) if core is not None else []
        att = _attribution(track, core, tiles[track], tile_starts[track],
                           subs, makespan, upstream.get(track))
        att.starved_by = _starved_by(att, col, tiles, tile_starts, upstream)
        tracks[track] = att

    kind_seconds: Dict[str, Dict[str, List[float]]] = {}
    kind_count: Dict[str, int] = {}
    for track, att in tracks.items():
        kind, _ = _parse_track(track)
        kind_count[kind] = kind_count.get(kind, 0) + 1
        bucket = kind_seconds.setdefault(kind, {})
        for category, value in att.seconds.items():
            bucket.setdefault(category, []).append(value)
    kinds = {kind: {c: math.fsum(v) for c, v in sorted(cats.items())}
             for kind, cats in kind_seconds.items()}
    kind_utils = {}
    for kind, sec in kinds.items():
        busy = math.fsum(sec.get(c, 0.0) for c in _BUSY)
        kind_utils[kind] = busy / (kind_count[kind] * makespan)

    idle_stats: Dict[str, StatAccumulator] = {}
    for kind, samples in col.idle_samples.items():
        acc = StatAccumulator(kind)
        acc.extend(samples)
        idle_stats[kind] = acc

    return RunInsight(
        makespan=makespan,
        critical_path=path,
        tracks=tracks,
        verdict=_deep_verdict(kind_utils, kinds),
        idle_stats=idle_stats,
        kind_seconds=kinds,
        kind_utilization=kind_utils,
        core_of=track_core,
    )


def analyze_telemetry(telemetry: Telemetry,
                      result: Optional[RunResult] = None) -> RunInsight:
    """Analyze a hub's retained events (see :func:`analyze_events`),
    reading its periodic blocks in place."""
    makespan = result.walkthrough_seconds if result is not None else None
    return _analyze(_Collected(telemetry), makespan)
