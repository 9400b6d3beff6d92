"""Self-contained HTML report for one analyzed run.

``repro analyze ... --html report.html`` renders a single file with no
external assets (inline CSS, inline SVG):

* the bottleneck verdict banner;
* per-stage utilization bars;
* per-stage wall-time attribution as stacked horizontal bars (the exact
  partition from :class:`~repro.analysis.insights.StageAttribution`);
* a Gantt chart of every track's busy/starved intervals with the
  critical path overlaid;
* a mesh-contention heatmap (queueing seconds per core position).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Tuple

from ..analysis.insights import RunInsight

__all__ = ["insight_to_html"]

#: attribution category -> fill colour (shared by legend, bars, Gantt)
_COLORS = {
    "compute": "#4878cf",
    "blocked": "#d65f5f",
    "mc_queue": "#b47cc7",
    "mesh_queue": "#c4ad66",
    "starved": "#e8e8e8",
    "handoff": "#6acc65",
    "drained": "#f7f7f7",
}

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
.verdict { border-left: 6px solid #4878cf; background: #f0f4fb;
           padding: 0.8em 1.2em; font-size: 1.05em; }
.bar { display: flex; height: 1.1em; background: #fafafa;
       border: 1px solid #ddd; }
.bar div { height: 100%; }
table.att { border-collapse: collapse; width: 100%; }
table.att td, table.att th { padding: 0.25em 0.6em; text-align: left;
                             font-size: 0.9em; }
table.att td.track { white-space: nowrap; width: 9em;
                     font-family: monospace; }
.legend span { display: inline-block; margin-right: 1.2em;
               font-size: 0.85em; }
.legend i { display: inline-block; width: 0.9em; height: 0.9em;
            margin-right: 0.3em; vertical-align: -0.1em;
            border: 1px solid #bbb; }
svg text { font-family: monospace; font-size: 10px; }
.small { color: #666; font-size: 0.85em; }
"""


def _esc(s: object) -> str:
    return html.escape(str(s))


def _legend() -> str:
    parts = [f'<span><i style="background:{c}"></i>{_esc(name)}</span>'
             for name, c in _COLORS.items()]
    return '<p class="legend">' + "".join(parts) + "</p>"


def _stacked_bar(seconds: Dict[str, float], total: float) -> str:
    cells: List[str] = []
    for category, color in _COLORS.items():
        value = seconds.get(category, 0.0)
        if value <= 0.0 or total <= 0.0:
            continue
        pct = 100.0 * value / total
        cells.append(
            f'<div style="width:{pct:.3f}%;background:{color}" '
            f'title="{_esc(category)}: {value:.4f} s"></div>')
    return '<div class="bar">' + "".join(cells) + "</div>"


def _attribution_table(insight: RunInsight) -> str:
    rows = ['<table class="att">',
            "<tr><th>track</th><th>wall-time attribution "
            "(exact partition)</th></tr>"]
    for track in sorted(insight.tracks):
        att = insight.tracks[track]
        rows.append(f'<tr><td class="track">{_esc(track)}</td>'
                    f"<td>{_stacked_bar(att.seconds, att.wall_s)}</td></tr>")
    rows.append("</table>")
    return "\n".join(rows)


def _utilization_bars(insight: RunInsight) -> str:
    rows = ['<table class="att">',
            "<tr><th>stage</th><th>utilization</th><th></th></tr>"]
    for kind in sorted(insight.kind_utilization,
                       key=lambda k: -insight.kind_utilization[k]):
        util = insight.kind_utilization[kind]
        rows.append(
            f'<tr><td class="track">{_esc(kind)}</td>'
            f'<td style="width:60%">{_stacked_bar({"compute": util}, 1.0)}'
            f"</td><td>{100.0 * util:.1f}%</td></tr>")
    rows.append("</table>")
    return "\n".join(rows)


def _gantt(insight: RunInsight, width: int = 1000,
           row_h: int = 16) -> str:
    tracks = sorted(insight.tracks)
    T = insight.makespan
    if T <= 0.0:
        return ""
    label_w = 110
    h = row_h * len(tracks) + 30
    sx = (width - label_w) / T
    parts = [f'<svg viewBox="0 0 {width} {h}" width="100%" '
             f'xmlns="http://www.w3.org/2000/svg">']
    for i, track in enumerate(tracks):
        y = 14 + i * row_h
        parts.append(f'<text x="2" y="{y + row_h - 5}">{_esc(track)}</text>')
        for t0, t1, category in insight.tracks[track].intervals:
            if category in ("starved", "drained", "handoff"):
                continue
            x = label_w + t0 * sx
            w = max((t1 - t0) * sx, 0.25)
            color = _COLORS.get(category, "#999")
            parts.append(
                f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
                f'height="{row_h - 3}" fill="{color}">'
                f"<title>{_esc(track)} {_esc(category)} "
                f"[{t0:.4f}, {t1:.4f}] s</title></rect>")
    # Critical-path overlay: a red line traced along the involved rows.
    index = {track: i for i, track in enumerate(tracks)}
    for seg in insight.critical_path.segments:
        i = index.get(seg.track)
        if i is None:
            continue
        y = 14 + i * row_h + (row_h - 3) / 2
        x0 = label_w + seg.t0 * sx
        x1 = label_w + seg.t1 * sx
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y:.1f}" x2="{x1:.2f}" '
            f'y2="{y:.1f}" stroke="#d62728" stroke-width="2.5" '
            f'opacity="0.85"><title>critical path: {_esc(seg.track)} '
            f"{_esc(seg.kind)}</title></line>")
    # Time axis.
    y_ax = 14 + len(tracks) * row_h + 4
    parts.append(f'<line x1="{label_w}" y1="{y_ax}" x2="{width}" '
                 f'y2="{y_ax}" stroke="#888"/>')
    for k in range(11):
        t = T * k / 10.0
        x = label_w + t * sx
        parts.append(f'<line x1="{x:.1f}" y1="{y_ax}" x2="{x:.1f}" '
                     f'y2="{y_ax + 4}" stroke="#888"/>')
        if k % 2 == 0:
            parts.append(f'<text x="{x - 12:.1f}" y="{y_ax + 14}">'
                         f"{t:.2f}s</text>")
    parts.append("</svg>")
    return "".join(parts)


def _mesh_heatmap(insight: RunInsight, cols: int = 6,
                  rows: int = 4) -> str:
    """Mesh/MC queueing seconds, laid out on the chip's tile grid."""
    by_core: Dict[int, float] = {}
    for track, att in insight.tracks.items():
        if att.core is None:
            continue
        queued = (att.seconds.get("mesh_queue", 0.0)
                  + att.seconds.get("mc_queue", 0.0))
        by_core[att.core] = by_core.get(att.core, 0.0) + queued
    peak = max(by_core.values(), default=0.0)
    cell, pad = 64, 4
    width = cols * (cell + pad) + 40
    height = rows * (cell + pad) + 24
    parts = [f'<svg viewBox="0 0 {width} {height}" width="60%" '
             f'xmlns="http://www.w3.org/2000/svg">']
    core_track = {att.core: track for track, att in insight.tracks.items()
                  if att.core is not None}
    for tile_y in range(rows):
        for tile_x in range(cols):
            x = 20 + tile_x * (cell + pad)
            y = 8 + (rows - 1 - tile_y) * (cell + pad)
            for half in range(2):
                core = (tile_y * cols + tile_x) * 2 + half
                value = by_core.get(core)
                frac = (value / peak) if (value and peak > 0.0) else 0.0
                # white -> orange -> red ramp
                r = 255
                g = int(244 - 160 * frac)
                b = int(235 - 200 * frac)
                fill = (f"rgb({r},{g},{b})" if value is not None
                        else "#f4f4f4")
                hy = y + half * (cell // 2)
                parts.append(
                    f'<rect x="{x}" y="{hy}" width="{cell}" '
                    f'height="{cell // 2 - 2}" fill="{fill}" '
                    f'stroke="#ccc"><title>core {core}'
                    + (f" ({_esc(core_track[core])}): "
                       f"{value:.4f} s queued"
                       if value is not None and core in core_track
                       else "") + "</title></rect>")
                if value is not None:
                    parts.append(
                        f'<text x="{x + 3}" y="{hy + 12}">c{core}</text>')
    parts.append("</svg>")
    note = ("" if peak > 0.0 else
            '<p class="small">no mesh/MC queueing was recorded '
            "(uncontended run)</p>")
    return "".join(parts) + note


def _concurrency_section(summary: Dict) -> str:
    """Render the static concurrency analysis (lock + protocol prongs)."""
    locks = summary.get("locks", {})
    protocol = summary.get("protocol", {})
    rows: List[str] = []
    for mod in locks.get("modules", []):
        attrs = ", ".join(mod.get("guarded_attrs", [])) or "&mdash;"
        holds = ", ".join(mod.get("caller_holds", [])) or "&mdash;"
        edges = ("; ".join(f"{o} &rarr; {i}"
                           for o, i in mod.get("lock_order_edges", []))
                 or "&mdash;")
        findings = len(mod.get("findings", []))
        rows.append(
            f"<tr><td class=\"track\">{_esc(mod['module'])}</td>"
            f"<td>{_esc(attrs)}</td><td>{_esc(holds)}</td>"
            f"<td>{edges}</td><td>{findings}</td></tr>")
    lock_table = (
        '<table class="att"><tr><th>module</th><th>guarded attrs</th>'
        '<th>caller-holds</th><th>lock order</th><th>findings</th></tr>'
        + "".join(rows) + "</table>") if rows else "<p>no contracts</p>"
    chan_rows = "".join(
        f"<tr><td class=\"track\">{_esc(src)}</td>"
        f"<td class=\"track\">{_esc(dst)}</td><td>{_esc(label)}</td></tr>"
        for src, dst, label in protocol.get("channels", []))
    verdict = ("deadlock-free" if protocol.get("deadlock_free")
               else "DEADLOCK")
    issues = protocol.get("issues", [])
    issue_html = "".join(f"<li>{_esc(i)}</li>" for i in issues)
    return f"""
<h2>Concurrency: lock discipline</h2>
<p class="small">{locks.get('contracts', 0)} guarded-by contract(s)
across {_esc(', '.join(locks.get('packages', [])))};
{locks.get('findings', 0)} finding(s)</p>
{lock_table}
<h2>Concurrency: pipeline protocol</h2>
<p class="small">{_esc(protocol.get('name', ''))}:
<b>{verdict}</b> after {protocol.get('steps', 0)} abstract steps,
{len(protocol.get('processes', []))} processes</p>
{'<ul>' + issue_html + '</ul>' if issues else ''}
<table class="att"><tr><th>sender</th><th>receiver</th>
<th>channel</th></tr>{chan_rows}</table>
"""


def insight_to_html(insight: RunInsight,
                    title: Optional[str] = None,
                    concurrency: Optional[Dict] = None) -> str:
    """Render the full self-contained report document.

    ``concurrency`` (the dict from
    :func:`repro.analysis.concurrency.concurrency_summary`) appends the
    lock-discipline and pipeline-protocol sections when provided.
    """
    verdict = insight.verdict
    fv = insight.filter_verdict()
    head = title or "repro analyze report"
    fv_line = ("" if fv is None else
               f"<br>per-pipeline filter bottleneck: "
               f"<b>{_esc(fv.describe())}</b>")
    con_html = ("" if concurrency is None
                else _concurrency_section(concurrency))
    doc = f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{_esc(head)}</title><style>{_CSS}</style></head><body>
<h1>{_esc(head)}</h1>
<div class="verdict">bottleneck: <b>{_esc(verdict.describe())}</b>
{fv_line}<br>
<span class="small">makespan {insight.makespan:.4f} s; critical path
{insight.critical_path.duration:.4f} s across
{len(insight.critical_path.segments)} segments</span></div>
<h2>Stage utilization</h2>
{_utilization_bars(insight)}
<h2>Wall-time attribution</h2>
{_legend()}
{_attribution_table(insight)}
<h2>Timeline (critical path in red)</h2>
{_gantt(insight)}
<h2>Mesh / memory-controller contention</h2>
{_mesh_heatmap(insight)}
{con_html}</body></html>
"""
    return doc
