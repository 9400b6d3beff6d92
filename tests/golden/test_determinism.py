"""Determinism guards: identical seeds must give identical results.

Two hazards are covered:

* *in-process state leaks* — a second run in the same interpreter must
  not see caches or module state from the first (memoized workloads and
  profiles must be semantically invisible);
* *hash-order leaks* — dict/set iteration order must never reach event
  order.  Python randomises ``str`` hashes per process unless
  ``PYTHONHASHSEED`` pins them, so running the same scenario in two
  subprocesses with *different* hash seeds flushes out any dependency.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from .harness import canonical_json, capture

REPO_ROOT = Path(__file__).resolve().parents[2]

_SUBPROCESS_SCRIPT = """\
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from tests.golden.harness import canonical_json, capture
print(canonical_json(capture({scenario!r})))
"""


def _run_in_subprocess(scenario: str, hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    script = _SUBPROCESS_SCRIPT.format(
        src=str(REPO_ROOT / "src"), root=str(REPO_ROOT), scenario=scenario)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_same_process_twice_identical():
    scenario = "mcpc_renderer-ordered"
    first = capture(scenario)
    second = capture(scenario)
    assert canonical_json(first) == canonical_json(second)


def test_subprocesses_with_varied_hashseed_identical():
    scenario = "one_renderer-flipped"
    a = _run_in_subprocess(scenario, "1")
    b = _run_in_subprocess(scenario, "4242")
    assert canonical_json(a) == canonical_json(b), (
        "hash-order (dict/set iteration) leaked into simulated results"
    )
    # And the subprocess result matches this process, too.
    local = capture(scenario)
    assert canonical_json(local) == canonical_json(a)
