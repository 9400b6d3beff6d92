"""Golden snapshots of the 21 Table-I cluster points at 400 frames.

The Mogon rows of Table I (three cluster configurations, one to seven
pipelines) are pinned field by field against ``snapshots/hpc_table1.json``,
which was captured with the discrete-event generator model the recurrence
in :mod:`repro.cluster.mogon` replaced.  ``walkthrough_seconds``,
``cores_used`` and every ``idle_quartiles`` entry must match bit for bit.
``busy_means`` may differ in the last bits: a mean is a sum, and the event
kernel added one stage key's samples across pipelines in completion-time
order, the recurrence in pipeline order.

``pytest tests/golden --update-goldens`` rewrites the snapshot from the
current code; do that only in a change that means to alter the model.
"""

import json

import pytest

from repro.cluster import CLUSTER_CONFIGURATIONS, ClusterRunner
from repro.report.paper import TABLE1_PIPELINES

from .harness import SNAPSHOT_DIR

FRAMES = 400
SNAPSHOT = SNAPSHOT_DIR / "hpc_table1.json"
#: relative bound on a busy mean (summation order only; observed ~1e-15)
BUSY_REL = 1e-12

POINTS = [f"{config}/{n}" for config in CLUSTER_CONFIGURATIONS
          for n in TABLE1_PIPELINES]


def capture(point: str) -> dict:
    config, n = point.split("/")
    result = ClusterRunner(config=config, pipelines=int(n),
                           frames=FRAMES).run()
    return {
        "walkthrough_seconds": result.walkthrough_seconds,
        "cores_used": result.cores_used,
        "idle_quartiles": {k: list(q)
                           for k, q in result.idle_quartiles.items()},
        "busy_means": dict(result.busy_means),
    }


def _load() -> dict:
    return json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}


@pytest.mark.parametrize("point", POINTS)
def test_cluster_table1_point(point, update_goldens):
    got = capture(point)
    if update_goldens:
        snapshot = _load()
        snapshot[point] = got
        SNAPSHOT.write_text(json.dumps(snapshot, indent=1, sort_keys=True)
                            + "\n")
        pytest.skip(f"snapshot for {point} rewritten")
    want = _load().get(point)
    assert want is not None, (
        f"no snapshot for {point!r}; run "
        "`pytest tests/golden --update-goldens` and commit the result")
    assert got["walkthrough_seconds"] == want["walkthrough_seconds"]
    assert got["cores_used"] == want["cores_used"]
    assert got["idle_quartiles"] == want["idle_quartiles"]
    assert got["busy_means"].keys() == want["busy_means"].keys()
    for key, mean in want["busy_means"].items():
        assert got["busy_means"][key] == pytest.approx(mean, rel=BUSY_REL,
                                                       abs=0.0), key
