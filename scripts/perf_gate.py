#!/usr/bin/env python
"""Speed gate over two perfbench results.

Usage::

    python3 perfbench/run.py --workload table1 --workload ref-event \\
        --workload ref-batched --workload explain --workload service \\
        | tail -n 1 > current.json
    python scripts/perf_gate.py perf-baseline.json current.json

Each file holds perfbench's result: the last non-empty line is the JSON
object perfbench prints last.  ``perf-baseline.json`` is that line,
committed verbatim; refreshing it is the same command with the output
redirected there.

The gate fails (exit 1) when either result

* reports ``"correct": false`` or a failed operation, or
* lacks the ``norm_wall`` of one of the five gated workloads;

or when the current result

* takes more than 20 % longer than the baseline on any gated
  workload's ``norm_wall``, or
* runs ``ref-event`` less than 3 times as long as ``ref-batched``
  (``norm_wall`` over ``norm_wall``).

``norm_wall`` is wall time in units of perfbench's reference loop, so
the two results may come from different hosts.  Unreadable input exits
2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: workloads whose ``norm_wall`` the gate bounds
GATED = ("table1", "ref-event", "ref-batched", "explain", "service")

#: largest allowed ``norm_wall`` over the baseline's
MAX_RATIO = 1.20

#: smallest allowed ``ref-event`` / ``ref-batched`` ``norm_wall`` ratio
MIN_BATCHED_SPEEDUP = 3.0


def load(path: str) -> Dict[str, Any]:
    """The JSON object on the last non-empty line of ``path``."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    doc = json.loads(lines[-1])
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: last line is not a JSON object")
    return doc


def problems(label: str, doc: Dict[str, Any]) -> List[str]:
    """Why ``doc`` cannot be gated: wrong results or a missing workload."""
    found = []
    if doc.get("correct") is not True:
        found.append(f"{label}: perfbench reports correct={doc.get('correct')}")
    if doc.get("failed") != 0:
        found.append(f"{label}: {doc.get('failed')} failed operation(s)")
    metrics = doc.get("metrics", {})
    for name in GATED:
        if f"{name}.norm_wall" not in metrics:
            found.append(f"{label}: workload {name} missing")
    return found


def norm_wall(doc: Dict[str, Any], name: str) -> float:
    return float(doc["metrics"][f"{name}.norm_wall"]["value"])


def gate(baseline: Dict[str, Any], current: Dict[str, Any]) -> List[str]:
    """Every reason the current result fails the gate (empty: pass)."""
    found = problems("baseline", baseline) + problems("current", current)
    if found:
        return found
    for name in GATED:
        base, now = norm_wall(baseline, name), norm_wall(current, name)
        ratio = now / base
        print(f"{name:<12} norm_wall {base:10.4g} -> {now:10.4g}  "
              f"({ratio:.3f}x, bound {MAX_RATIO:.2f}x)")
        if ratio > MAX_RATIO:
            found.append(f"{name}: norm_wall {now:.4g} is {ratio:.3f}x the "
                         f"baseline's {base:.4g} (> {MAX_RATIO:.2f}x)")
    speedup = norm_wall(current, "ref-event") / norm_wall(current,
                                                          "ref-batched")
    print(f"ref-event / ref-batched norm_wall {speedup:.2f}x "
          f"(floor {MIN_BATCHED_SPEEDUP:.1f}x)")
    if speedup < MIN_BATCHED_SPEEDUP:
        found.append(f"ref-batched: ref-event / ref-batched norm_wall is "
                     f"{speedup:.2f}x (< {MIN_BATCHED_SPEEDUP:.1f}x)")
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        baseline, current = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    found = gate(baseline, current)
    for problem in found:
        print(f"FAIL {problem}", file=sys.stderr)
    if not found:
        print("OK: every gated workload within its bound")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
