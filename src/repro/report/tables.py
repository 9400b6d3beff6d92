"""ASCII table formatting for the command-line reports and examples."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["format_table"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells = [f"{c:.1f}" if isinstance(c, float) else str(c) for c in row]
        if len(cells) != len(headers):
            raise ValueError("row width does not match headers")
        str_rows.append(cells)
    widths = [max(len(r[i]) for r in str_rows) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    for i, row in enumerate(str_rows):
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append(sep)
    return "\n".join(lines)
