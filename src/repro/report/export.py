"""Result export: serialize :class:`~repro.pipeline.RunResult` objects.

A release-quality harness must leave machine-readable artifacts behind;
these helpers turn run results into plain dicts and JSON files so
downstream analysis (plotting, regression tracking) never has to re-run
a sweep.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Union

from ..pipeline.metrics import RunResult

__all__ = ["result_to_dict", "results_to_json", "results_from_json"]

PathLike = Union[str, pathlib.Path]


def result_to_dict(result: RunResult) -> Dict:
    """A JSON-safe dict with every field of the result."""
    return {
        "config": result.config,
        "arrangement": result.arrangement,
        "pipelines": result.pipelines,
        "frames": result.frames,
        "cores_used": result.cores_used,
        "walkthrough_seconds": result.walkthrough_seconds,
        "seconds_per_frame": result.seconds_per_frame,
        "scc_energy_j": result.scc_energy_j,
        "scc_avg_power_w": result.scc_avg_power_w,
        "mcpc_energy_above_idle_j": result.mcpc_energy_above_idle_j,
        "total_energy_j": result.total_energy_j(),
        "idle_quartiles": {k: list(v)
                           for k, v in result.idle_quartiles.items()},
        "busy_means": dict(result.busy_means),
        "mc_utilizations": list(result.mc_utilizations),
        "power_trace": [list(p) for p in result.power_trace],
        "latency_quartiles": (list(result.latency_quartiles)
                              if result.latency_quartiles else None),
    }


def results_to_json(results: Iterable[RunResult], path: PathLike) -> None:
    """Write results as a JSON array."""
    payload = [result_to_dict(r) for r in results]
    pathlib.Path(path).write_text(json.dumps(payload, indent=2))


def results_from_json(path: PathLike) -> List[Dict]:
    """Load previously exported results (as plain dicts)."""
    data = json.loads(pathlib.Path(path).read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of results")
    return data
