"""Golden snapshot of the walkthrough's culling counts at 400 frames.

Every ``(frame, strip, num_strips)`` profile of the default workload for
the Table-I splits 1..7 — all 11 200 keys — is pinned against
``snapshots/culling_table.json``: ``nodes_visited`` and
``triangles_in_view`` must match bit for bit.  The snapshot was captured
with the per-frustum depth-first octree walk that the batched culling
kernel (:meth:`repro.render.Octree.cull`) replaced.

``pytest tests/golden --update-goldens`` rewrites the snapshot from the
current code; do that only in a change that means to alter the scene,
the camera path or the octree.
"""

import json

import pytest

from repro.pipeline import DEFAULT_IMAGE_SIDE, WalkthroughWorkload
from repro.report.paper import TABLE1_PIPELINES

from .harness import SNAPSHOT_DIR

FRAMES = 400
SNAPSHOT = SNAPSHOT_DIR / "culling_table.json"
FIELDS = ("nodes_visited", "triangles_in_view")


@pytest.fixture(scope="module")
def workload():
    return WalkthroughWorkload(frames=FRAMES, image_side=DEFAULT_IMAGE_SIDE)


def capture(workload, num_strips: int) -> dict:
    profiles = [[workload.profile(f, s, num_strips) for s in range(num_strips)]
                for f in range(FRAMES)]
    return {field: [[getattr(p, field) for p in row] for row in profiles]
            for field in FIELDS}


def _dump(snapshot: dict) -> str:
    """One JSON row per frame, so a diff names the frame that moved."""
    splits = []
    for n, table in sorted(snapshot["splits"].items(), key=lambda kv: int(kv[0])):
        fields = []
        for field in FIELDS:
            rows = ",\n".join("    " + json.dumps(row, separators=(",", ":"))
                              for row in table[field])
            fields.append(f'   "{field}": [\n{rows}\n   ]')
        splits.append(f'  "{n}": {{\n' + ",\n".join(fields) + "\n  }")
    return ("{\n"
            f' "frames": {snapshot["frames"]},\n'
            f' "image_side": {snapshot["image_side"]},\n'
            ' "splits": {\n' + ",\n".join(splits) + "\n }\n}\n")


def _load() -> dict:
    if SNAPSHOT.exists():
        return json.loads(SNAPSHOT.read_text())
    return {"frames": FRAMES, "image_side": DEFAULT_IMAGE_SIDE, "splits": {}}


def test_snapshot_matches_workload_shape():
    snapshot = _load()
    assert snapshot["frames"] == FRAMES
    assert snapshot["image_side"] == DEFAULT_IMAGE_SIDE


@pytest.mark.parametrize("num_strips", TABLE1_PIPELINES)
def test_culling_table_split(num_strips, workload, update_goldens):
    got = capture(workload, num_strips)
    if update_goldens:
        snapshot = _load()
        snapshot["splits"][str(num_strips)] = got
        SNAPSHOT.write_text(_dump(snapshot))
        pytest.skip(f"culling table for {num_strips} strips rewritten")
    want = _load()["splits"].get(str(num_strips))
    assert want is not None, (
        f"no snapshot for {num_strips} strips; "
        "run pytest tests/golden --update-goldens")
    for field in FIELDS:
        for frame, (g, w) in enumerate(zip(got[field], want[field])):
            assert g == w, f"{field} of frame {frame}, {num_strips} strips"
        assert len(got[field]) == len(want[field]) == FRAMES
