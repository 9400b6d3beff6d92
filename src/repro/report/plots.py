"""ASCII line charts: the *shape* of a sweep (saturation, knees, dips)
at a glance in a terminal."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["ascii_chart"]

def ascii_chart(series: Dict[str, Sequence[float]],
                x_labels: Optional[Sequence[object]] = None,
                height: int = 12, width: Optional[int] = None,
                title: Optional[str] = None) -> str:
    """Multi-series ASCII line chart.

    Each series gets a distinct marker (its name's first letter); values
    are binned onto a ``height``-row grid.  Collisions print ``*``.
    """
    if not series:
        raise ValueError("nothing to plot")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError("all series must share one length")
    n = lengths.pop()
    if n == 0:
        raise ValueError("empty series")
    if height < 3:
        raise ValueError("height must be >= 3")
    if x_labels is not None and len(x_labels) != n:
        raise ValueError("x_labels length mismatch")

    all_vals = [float(v) for vals in series.values() for v in vals]
    lo, hi = min(all_vals), max(all_vals)
    if hi == lo:
        hi = lo + 1.0
    col_w = max(1, (width or 4 * n) // n)

    grid: List[List[str]] = [[" "] * (n * col_w) for _ in range(height)]
    for name, vals in series.items():
        marker = name[:1] or "#"
        for i, v in enumerate(vals):
            row = int((hi - float(v)) / (hi - lo) * (height - 1) + 0.5)
            col = i * col_w + col_w // 2
            cell = grid[row][col]
            grid[row][col] = marker if cell == " " else "*"

    axis_w = max(len(f"{hi:.4g}"), len(f"{lo:.4g}"))
    lines: List[str] = []
    if title:
        lines.append(title)
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{hi:.4g}"
        elif r == height - 1:
            label = f"{lo:.4g}"
        else:
            label = ""
        lines.append(f"{label:>{axis_w}} |{''.join(row)}")
    lines.append(f"{'':>{axis_w}} +{'-' * (n * col_w)}")
    if x_labels is not None:
        cells = "".join(f"{str(x):^{col_w}}"[:col_w] for x in x_labels)
        lines.append(f"{'':>{axis_w}}  {cells}")
    legend = "  ".join(f"{name[:1]}={name}" for name in series)
    lines.append(f"{'':>{axis_w}}  {legend}")
    return "\n".join(lines)
