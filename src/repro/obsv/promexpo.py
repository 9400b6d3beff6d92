"""Prometheus text-exposition rendering (and a strict parser).

Renders a :class:`~repro.obsv.progress.FleetSnapshot` — plus the
registered counter/metric namespaces — in the Prometheus text
exposition format (version 0.0.4): ``# HELP``/``# TYPE`` headers, one
``name{labels} value`` sample per line.  This is what the
``/metrics`` endpoint (:mod:`repro.obsv.server`) serves and what any
Prometheus-compatible scraper ingests.

:func:`parse_prometheus_text` is the matching strict parser; the CI
smoke step and the unit tests run every rendered page through it, so
the endpoint can never silently drift off-format.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Tuple

from ..telemetry.counters import KNOWN_COUNTER_ROOTS, KNOWN_METRIC_ROOTS
from .progress import RUN_STATES, FleetSnapshot

__all__ = ["render_exposition", "parse_prometheus_text", "CONTENT_TYPE",
           "ExpositionPage"]

#: the exposition-format content type ``/metrics`` responds with
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$")
_LABEL_PAIR = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _fmt(value: float) -> str:
    if value != value:  # NaN never leaves the process
        raise ValueError("refusing to expose a NaN sample")
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class ExpositionPage:
    """Accumulates families in order, one HELP/TYPE header each.

    Public so other exposition surfaces (the ``repro serve`` front-end
    appends its service families after the fleet page) build pages that
    :func:`parse_prometheus_text` accepts by construction.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str,
               samples: List[Tuple[Dict[str, str], float]]) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            if labels:
                body = ",".join(
                    f'{k}="{_escape_label(v)}"'
                    for k, v in sorted(labels.items()))
                self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
            else:
                self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_exposition(snapshot: FleetSnapshot) -> str:
    """The full ``/metrics`` page for one fleet snapshot."""
    page = ExpositionPage()
    page.family("repro_sweep_runs", "gauge",
                "Sweep points by lifecycle state.",
                [({"state": state}, float(snapshot.counts.get(state, 0)))
                 for state in RUN_STATES])
    page.family("repro_sweep_runs_total", "gauge",
                "Points submitted to the sweep.",
                [({}, float(snapshot.total))])
    page.family("repro_sweep_cache_hits_total", "counter",
                "Points answered from the content-addressed result cache.",
                [({}, float(snapshot.cache_hits))])
    page.family("repro_sweep_cache_misses_total", "counter",
                "Points that had to simulate.",
                [({}, float(snapshot.cache_misses))])
    page.family("repro_sweep_frames_completed", "gauge",
                "Frames completed across all runs (heartbeat granularity).",
                [({}, float(snapshot.frames_done))])
    page.family("repro_sweep_frames_total", "gauge",
                "Frames across all runs known so far.",
                [({}, float(snapshot.frames_total))])
    page.family("repro_sweep_elapsed_seconds", "gauge",
                "Wall seconds since the sweep started.",
                [({}, snapshot.elapsed_s)])
    page.family("repro_sweep_throughput_runs_per_second", "gauge",
                "Completed runs per wall second.",
                [({}, snapshot.throughput_runs_per_s)])
    if snapshot.eta_s is not None:
        page.family("repro_sweep_eta_seconds", "gauge",
                    "Estimated wall seconds to completion (from "
                    "completed-run wall times).",
                    [({}, snapshot.eta_s)])
    if snapshot.utilization is not None:
        page.family("repro_sweep_worker_utilization", "gauge",
                    "Busy seconds / (workers x elapsed), 0..1.",
                    [({}, snapshot.utilization)])
    page.family("repro_sweep_workers", "gauge",
                "Worker processes seen on the progress stream.",
                [({}, float(len(snapshot.workers)))])
    page.family("repro_sweep_worker_busy_seconds", "counter",
                "Wall seconds each worker spent inside finished runs.",
                [({"worker": w.name}, w.busy_s)
                 for w in snapshot.workers])
    page.family("repro_sweep_worker_runs_finished", "counter",
                "Runs each worker finished.",
                [({"worker": w.name}, float(w.finished))
                 for w in snapshot.workers])
    page.family("repro_sweep_finished", "gauge",
                "1 once the sweep completed.",
                [({}, 1.0 if snapshot.finished else 0.0)])

    # The registered telemetry namespaces, so a scraper learns the
    # counter contract without reading the source.
    page.family("repro_known_counter_root", "gauge",
                "Registered first segments of the telemetry counter "
                "namespace (see docs/observability.md).",
                [({"root": root}, 1.0)
                 for root in sorted(KNOWN_COUNTER_ROOTS)])
    page.family("repro_known_metric_root", "gauge",
                "Registered first segments of the derived-metric "
                "namespace (repro diff snapshots).",
                [({"root": root}, 1.0)
                 for root in sorted(KNOWN_METRIC_ROOTS)])

    return page.text()


def parse_prometheus_text(text: str
                          ) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Strictly parse exposition text into ``{family: [(labels, value)]}``.

    Raises ``ValueError`` on any malformed line, on a sample without a
    preceding ``# TYPE`` header, or on a non-numeric value — the unit
    tests and the CI smoke step run every served page through this, so
    a formatting bug fails loudly instead of breaking scrapers quietly.
    """
    families: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                base = name[:-len(suffix)]
                break
        if base not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} has no "
                             f"preceding # TYPE header")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for pair in _split_labels(raw, lineno):
                pm = _LABEL_PAIR.match(pair)
                if pm is None:
                    raise ValueError(
                        f"line {lineno}: malformed label {pair!r}")
                labels[pm.group("key")] = (
                    pm.group("value").replace('\\"', '"')
                    .replace("\\n", "\n").replace("\\\\", "\\"))
        value_text = match.group("value")
        if value_text in ("+Inf", "-Inf"):
            value = math.inf if value_text == "+Inf" else -math.inf
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric value "
                                 f"{value_text!r}") from None
        families.setdefault(base, []).append((labels, value))
    return families


def _split_labels(raw: str, lineno: int) -> List[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    parts: List[str] = []
    buf: List[str] = []
    in_quotes = False
    escaped = False
    for ch in raw:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            buf.append(ch)
            escaped = True
        elif ch == '"':
            buf.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        parts.append("".join(buf))
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    return [p.strip() for p in parts if p.strip()]
