"""Golden snapshot of the batched engine on the 63 SCC Table-I points.

Every SCC row of Table I (three configurations, three arrangements, one
to seven pipelines) runs on the batched engine at 400 frames and is
pinned in ``snapshots/batched_table1.json``: the headline scalars, how
many frames were simulated and how many jumps the run made, and one
sha256 over the canonical JSON of everything else the run decided —
the full cache dict of the ``RunResult``, every frame's birth and
completion, and the ``(frame, J, period)`` jump list with its strides.
Three telemetry-on runs pin the sha256 of their Chrome trace and of
their counter snapshot.

The comparison is bit equality: a change to the scheduler that moves
any float, any jump or any synthesized event fails here.
``pytest tests/golden --update-goldens`` rewrites the snapshot from the
current code; do that only in a change that means to alter the model.
"""

import hashlib
import json

import pytest

from repro.exec.cache import result_to_cache_dict
from repro.pipeline import PipelineRunner
from repro.report import paper
from repro.telemetry import Telemetry, chrome_trace

from .harness import SNAPSHOT_DIR

FRAMES = 400
SNAPSHOT = SNAPSHOT_DIR / "batched_table1.json"

POINTS = [f"{config}/{arrangement}/{n}"
          for config in ("one_renderer", "n_renderers", "mcpc_renderer")
          for arrangement in ("unordered", "ordered", "flipped")
          for n in paper.TABLE1_PIPELINES]

#: telemetry-on runs: (config, arrangement, pipelines, frames)
TELEMETRY_POINTS = [
    "mcpc_renderer/ordered/5/50",
    "n_renderers/ordered/4/60",
    "one_renderer/flipped/3/60",
]


def _sha(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture(point: str) -> dict:
    config, arrangement, n = point.split("/")
    # the paper's findings read the same runs: simulate each point once
    run = paper.Run(config, int(n), arrangement, frames=FRAMES)
    result = paper.simulate(run)
    decisions = paper.batched_decisions(run)
    decided = {
        "result": result_to_cache_dict(result),
        "births": sorted(decisions["births"].items()),
        "completions": decisions["completions"],
        "jumps": decisions["jumps"],
        "strides": decisions["strides"],
    }
    return {
        "walkthrough_seconds": result.walkthrough_seconds,
        "scc_energy_j": result.scc_energy_j,
        "mcpc_energy_above_idle_j": result.mcpc_energy_above_idle_j,
        "frames_simulated": decisions["frames_simulated"],
        "jumps": len(decisions["jumps"]),
        "sha256": _sha(decided),
    }


def capture_telemetry(point: str) -> dict:
    config, arrangement, n, frames = point.split("/")
    hub = Telemetry(enabled=True)
    PipelineRunner(config=config, arrangement=arrangement, pipelines=int(n),
                   frames=int(frames), telemetry=hub,
                   engine="batched").run()
    return {
        "chrome_trace_sha256": _sha(chrome_trace(hub)),
        "counters_sha256": _sha(hub.counters.snapshot()),
    }


def _load() -> dict:
    return json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}


def _check(section: str, point: str, got: dict, update: bool) -> None:
    if update:
        snapshot = _load()
        snapshot.setdefault(section, {})[point] = got
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True)
                            + "\n")
        pytest.skip(f"snapshot for {section} {point} rewritten")
    want = _load().get(section, {}).get(point)
    assert want is not None, (
        f"no snapshot for {point!r}; run "
        "`pytest tests/golden --update-goldens` and commit the result")
    assert got == want


@pytest.mark.parametrize("point", POINTS)
def test_batched_table1_point(point, update_goldens):
    _check("points", point, capture(point), update_goldens)


@pytest.mark.parametrize("point", TELEMETRY_POINTS)
def test_batched_telemetry_point(point, update_goldens):
    _check("telemetry", point, capture_telemetry(point), update_goldens)
