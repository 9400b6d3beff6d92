"""``scripts/perf_gate.py``: the CI speed gate over perfbench results.

Synthetic perfbench results drive the script as CI does, in a
subprocess; each injected regression must exit nonzero and name the
workload.  The committed baseline must be a gateable result.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
GATE = REPO_ROOT / "scripts" / "perf_gate.py"
BASELINE = REPO_ROOT / "perf-baseline.json"
WORKLOADS = ("table1", "ref-event", "ref-batched", "explain", "service")


def _result(**norm_walls):
    walls = {"table1": 5000.0, "ref-event": 400.0, "ref-batched": 8.0,
             "explain": 20.0, "service": 30.0, **norm_walls}
    metrics = {}
    for name, wall in walls.items():
        metrics[f"{name}.setup_s"] = {"value": 1.0, "unit": "s"}
        metrics[f"{name}.norm_wall"] = {"value": wall, "unit": "loops"}
        metrics[f"{name}.peak_rss_mb"] = {"value": 90.0, "unit": "MB"}
    return {"correct": True, "attempted": 40, "failed": 0,
            "metrics": metrics}


def _run(*paths):
    return subprocess.run(
        [sys.executable, str(GATE), *map(str, paths)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})


def _gate(tmp_path, baseline, current):
    base = tmp_path / "baseline.json"
    now = tmp_path / "current.json"
    base.write_text(json.dumps(baseline) + "\n")
    # perfbench's whole output: the result is its last line
    now.write_text("[ref-event seed=0 trace=0] 0/9 operations failed\n"
                   + json.dumps(current) + "\n")
    return _run(base, now)


def test_baseline_against_itself_passes(tmp_path):
    proc = _gate(tmp_path, _result(), _result())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK" in proc.stdout


def test_slowdown_within_bound_passes(tmp_path):
    proc = _gate(tmp_path, _result(), _result(explain=20.0 * 1.19))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_norm_wall_regression_fails_naming_workload(tmp_path, workload):
    base = _result()
    slow = _result(**{workload: base["metrics"][f"{workload}.norm_wall"]
                      ["value"] * 1.25})
    proc = _gate(tmp_path, base, slow)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"FAIL {workload}: norm_wall" in proc.stderr
    others = set(WORKLOADS) - {workload}
    assert not any(f"FAIL {name}:" in proc.stderr for name in others)


def test_batched_speedup_below_floor_fails(tmp_path):
    # ref-batched stays within its own 20 % of a baseline already near
    # the floor, but ref-event / ref-batched drops below 3
    base = _result(**{"ref-event": 100.0, "ref-batched": 30.0})
    slow = _result(**{"ref-event": 100.0, "ref-batched": 35.0})
    proc = _gate(tmp_path, base, slow)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL ref-batched: ref-event / ref-batched" in proc.stderr
    assert "norm_wall 35 is" not in proc.stderr


def test_incorrect_result_fails(tmp_path):
    proc = _gate(tmp_path, _result(), dict(_result(), correct=False))
    assert proc.returncode == 1
    assert "correct=False" in proc.stderr


def test_failed_operation_fails(tmp_path):
    proc = _gate(tmp_path, _result(), dict(_result(), failed=1))
    assert proc.returncode == 1
    assert "1 failed operation" in proc.stderr


def test_missing_workload_fails(tmp_path):
    current = _result()
    del current["metrics"]["service.norm_wall"]
    proc = _gate(tmp_path, _result(), current)
    assert proc.returncode == 1
    assert "workload service missing" in proc.stderr


def test_unreadable_input_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    assert _run(BASELINE, bad).returncode == 2
    assert _run(BASELINE).returncode == 2


def test_committed_baseline_is_one_gateable_line(tmp_path):
    # perfbench's last line, committed verbatim
    text = BASELINE.read_text()
    assert len(text.strip().splitlines()) == 1
    doc = json.loads(text)
    assert doc["correct"] is True
    assert doc["failed"] == 0
    for name in WORKLOADS:
        assert doc["metrics"][f"{name}.norm_wall"]["value"] > 0
    proc = _gate(tmp_path, doc, doc)
    assert proc.returncode == 0, proc.stdout + proc.stderr
