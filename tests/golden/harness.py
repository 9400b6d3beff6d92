"""Golden-run capture: one scenario in, one JSON-stable dict out.

The dict contains only *model-level observables* — frame checksums,
per-stage busy/idle statistics, message and byte counts, virtual time,
energy.  The timing fields come from a plain run; the checksums come
from :func:`repro.pipeline.film.render_film`, since the pixels do not
depend on timing.  It deliberately excludes kernel internals (e.g. the
number of events the simulator processed): an engine optimisation may
change how the calendar is driven, but must never change what the model
computes.

All scalars are either ints or Python floats produced by the
deterministic DES arithmetic, so JSON round-trips them exactly and the
comparison is bit-identical equality.  Frame pixels are quantised to
8-bit before hashing so the checksums are robust against last-ulp BLAS
differences across machines while still catching any visible change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.pipeline import PipelineRunner, render_film
from repro.pipeline.workload import WalkthroughWorkload

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"

#: the small-scenario matrix: every timing-level configuration crossed
#: with every arrangement, plus one DVFS run (blur tile at 800 MHz)
SCENARIOS: Dict[str, Dict[str, Any]] = {}
for _config in ("one_renderer", "n_renderers", "mcpc_renderer"):
    for _arr in ("unordered", "ordered", "flipped"):
        SCENARIOS[f"{_config}-{_arr}"] = {
            "config": _config, "arrangement": _arr,
        }
SCENARIOS["one_renderer-ordered-dvfs800"] = {
    "config": "one_renderer", "arrangement": "ordered",
    "frequency_plan": {"blur": 800},
}

#: shared scenario geometry: small enough that the film (real pixels
#: through the real filters) stays fast, large enough that every stage
#: does real work on every strip
FRAMES = 3
IMAGE_SIDE = 40
PIPELINES = 2
SEED = 11

#: the snapshot fields the batched engine reproduces bit for bit (its
#: coarse chip keeps no mesh or memory-controller counters)
BATCHED_FIELDS = ("virtual_time", "busy", "idle", "frame_completions",
                  "scc_energy_j", "scc_avg_power_w",
                  "mcpc_energy_above_idle_j", "latency_quartiles")

_workloads: Dict[tuple, WalkthroughWorkload] = {}


def _workload(frames: int, side: int) -> WalkthroughWorkload:
    """Share the procedural city across scenarios (profiles are memoized
    per workload, and they are deterministic, so sharing is safe)."""
    key = (frames, side)
    if key not in _workloads:
        _workloads[key] = WalkthroughWorkload(frames=frames, image_side=side)
    return _workloads[key]


def _checksum(image: np.ndarray) -> str:
    """SHA-256 of the 8-bit-quantised frame plus its shape."""
    quant = (np.clip(image, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    digest = hashlib.sha256()
    digest.update(str(quant.shape).encode("ascii"))
    digest.update(quant.tobytes())
    return digest.hexdigest()


def _stat_dict(accs) -> Dict[str, Any]:
    return {
        key: {"count": acc.count, "total": acc.total}
        for key, acc in sorted(accs.items())
    }


def _timing(runner: PipelineRunner) -> Dict[str, Any]:
    """The :data:`BATCHED_FIELDS` of one run."""
    result = runner.run()
    metrics = runner.last_metrics
    return {
        "virtual_time": result.walkthrough_seconds,
        "busy": _stat_dict(metrics.busy),
        "idle": _stat_dict(metrics.idle),
        "frame_completions": [[f, t] for f, t in metrics.frame_completions],
        "scc_energy_j": result.scc_energy_j,
        "scc_avg_power_w": result.scc_avg_power_w,
        "mcpc_energy_above_idle_j": result.mcpc_energy_above_idle_j,
        "latency_quartiles": (list(result.latency_quartiles)
                              if result.latency_quartiles else None),
    }


def _runner(scenario: str, frames: int, image_side: int, pipelines: int,
            seed: int, engine: str) -> PipelineRunner:
    spec = SCENARIOS[scenario]
    return PipelineRunner(
        config=spec["config"],
        pipelines=pipelines,
        arrangement=spec["arrangement"],
        frames=frames,
        image_side=image_side,
        workload=_workload(frames, image_side),
        seed=seed,
        frequency_plan=spec.get("frequency_plan"),
        engine=engine,
    )


def capture(scenario: str, frames: int = FRAMES,
            image_side: int = IMAGE_SIDE,
            pipelines: int = PIPELINES, seed: int = SEED) -> Dict[str, Any]:
    """Run one scenario on the event engine and return its golden dict."""
    spec = SCENARIOS[scenario]
    runner = _runner(scenario, frames, image_side, pipelines, seed, "event")
    timing = _timing(runner)
    film = render_film(_workload(frames, image_side), spec["config"],
                       pipelines, frames, seed)
    chip = runner.last_chip
    mesh = chip.mesh
    golden: Dict[str, Any] = {
        "scenario": scenario,
        "config": spec["config"],
        "arrangement": spec["arrangement"],
        "frames": frames,
        "image_side": image_side,
        "pipelines": pipelines,
        "seed": seed,
        "frames_displayed": len(runner.last_metrics.frame_completions),
        "frame_checksums": [_checksum(f) for f in film],
        "mesh_messages": mesh.messages,
        "mesh_bytes": mesh.bytes_moved,
        "link_messages_total": sum(
            link.messages for link in mesh._links.values()),
        "mc_bytes_served": [mc.bytes_served for mc in chip.memory.controllers],
        "mc_requests": [mc.requests for mc in chip.memory.controllers],
        **timing,
    }
    return golden


def capture_batched(scenario: str, frames: int = FRAMES,
                    image_side: int = IMAGE_SIDE, pipelines: int = PIPELINES,
                    seed: int = SEED) -> Dict[str, Any]:
    """The scenario's :data:`BATCHED_FIELDS` from the batched engine."""
    runner = _runner(scenario, frames, image_side, pipelines, seed, "batched")
    timing = _timing(runner)
    assert runner.last_chip is None, "the event engine ran, not the batched"
    return timing


def snapshot_path(scenario: str) -> Path:
    return SNAPSHOT_DIR / f"{scenario}.json"


def load_snapshot(scenario: str) -> Optional[Dict[str, Any]]:
    path = snapshot_path(scenario)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_snapshot(scenario: str, golden: Dict[str, Any]) -> None:
    SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
    snapshot_path(scenario).write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


def canonical_json(golden: Dict[str, Any]) -> str:
    """Stable serialization used for cross-process comparison."""
    return json.dumps(golden, sort_keys=True)
