"""Smoke test of the benchmark, run explicitly (about 90 s):

    pytest perfbench/test_smoke.py

Every workload runs with ``--quick --seconds 1``, once untraced and
once traced.  The checks: each metric BENCHMARK.json declares is printed
with its unit, a drifted reference makes operations fail, the benchmark
writes nothing outside ``--out``, and without the program it exits
non-zero without a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DRIFTED_POINT = "scc/mcpc_renderer/ordered/5/400"


def bench(tmp: Path, *args: str, cwd: Path = ROOT,
          script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    """Run the benchmark with an empty HOME and TMPDIR under ``tmp``."""
    for name in ("home", "tmp"):
        (tmp / name).mkdir(exist_ok=True)
    env = dict(os.environ, HOME=str(tmp / "home"), TMPDIR=str(tmp / "tmp"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(script), "--quick", "--seconds", "1",
         "--out", str(tmp / "out"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, timeout=900)


def tree(root: Path) -> Dict[str, Tuple[int, int]]:
    """Size and modification time of every file outside ``.git``."""
    return {str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*") if p.is_file()
            and ".git" not in p.relative_to(root).parts}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory):
    tmp = tmp_path_factory.mktemp("untraced")
    before = tree(ROOT)
    proc = bench(tmp)
    return proc, tmp, before, tree(ROOT)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_printed(proc: subprocess.CompletedProcess, declared: list) -> None:
    summary = last_json(proc)
    assert summary["correct"] and summary["failed"] == 0
    for workload in WORKLOADS:
        for metric in declared:
            entry = summary["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]
    for metric in declared:
        line = re.compile(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                          rf"{re.escape(metric['unit'])}\s", re.M)
        assert len(line.findall(proc.stdout)) == len(WORKLOADS), metric


def test_end_to_end_metrics_are_printed_with_units(untraced) -> None:
    proc = untraced[0]
    assert_printed(proc, SPEC["end_to_end"])
    assert re.findall(r"^\s+fail_ratio\s+(\S+)", proc.stdout, re.M) \
        == ["0"] * len(WORKLOADS)


def test_per_layer_metrics_are_printed_with_units(tmp_path: Path) -> None:
    assert_printed(bench(tmp_path, "--trace", "1"), SPEC["per_layer"])


def copy_benchmark(root: Path) -> Path:
    """A tree holding BENCHMARK.json and a copy of the benchmark; the
    copy's run.py."""
    shutil.copytree(HERE, root / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root / HERE.name / "run.py"


def test_reference_drift_raises_fail_ratio(tmp_path: Path) -> None:
    drifted = tmp_path / "drifted"
    script = copy_benchmark(drifted)
    (drifted / "src").symlink_to(ROOT / "src")
    reference = script.parent / "reference.json"
    doc = json.loads(reference.read_text())
    doc["points"][DRIFTED_POINT]["walkthrough_seconds"] *= 1 + 1e-6
    reference.write_text(json.dumps(doc))
    proc = bench(tmp_path, "--workload", "ref-batched", cwd=drifted,
                 script=script)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    ratio = re.search(r"^\s+fail_ratio\s+(\S+)", proc.stdout, re.M)
    assert ratio is not None and float(ratio.group(1)) == 1.0


def test_writes_nothing_outside_out(untraced) -> None:
    proc, tmp, before, after = untraced
    assert proc.returncode == 0
    assert after == before
    assert not any((tmp / "home").iterdir())
    assert not any((tmp / "tmp").iterdir())
    assert not any(p.name.startswith("run-") for p in (tmp / "out").iterdir())


def test_fails_without_the_program(tmp_path: Path) -> None:
    bare = tmp_path / "bare"
    proc = bench(tmp_path, "--workload", "ref-batched", cwd=bare,
                 script=copy_benchmark(bare))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
