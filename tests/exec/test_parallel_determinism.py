"""Parallel execution must be invisible in the results.

The acceptance bar for the sweep executor: the same sweep run with
``jobs=1`` and ``jobs=2`` produces byte-identical aggregated results
and identical cache keys.  These tests spawn real worker processes, so
the sweeps are kept tiny.
"""

import json

from repro.exec import ResultCache, RunSpec, SweepExecutor
from repro.exec.cache import result_to_cache_dict

FRAMES = 5

SWEEP = [
    RunSpec(config="one_renderer", pipelines=1, frames=FRAMES),
    RunSpec(config="one_renderer", pipelines=2, frames=FRAMES),
    RunSpec(config="n_renderers", pipelines=2, frames=FRAMES),
    RunSpec(platform="hpc", config="single_renderer", pipelines=2,
            frames=FRAMES),
]


def result_bytes(results) -> bytes:
    return json.dumps([result_to_cache_dict(r) for r in results],
                      sort_keys=True).encode()


def test_jobs_1_and_2_are_byte_identical(tmp_path):
    serial_cache = ResultCache(tmp_path / "serial")
    parallel_cache = ResultCache(tmp_path / "parallel")
    serial_exec = SweepExecutor(jobs=1, cache=serial_cache)
    parallel_exec = SweepExecutor(jobs=2, cache=parallel_cache)

    serial = serial_exec.run(SWEEP)
    parallel = parallel_exec.run(SWEEP)

    assert result_bytes(serial) == result_bytes(parallel)
    # identical cache keys...
    assert serial_exec.digests(SWEEP) == parallel_exec.digests(SWEEP)
    # ...and identical entries on disk, byte for byte
    for digest in serial_exec.digests(SWEEP):
        assert (serial_cache.path_for(digest).read_bytes()
                == parallel_cache.path_for(digest).read_bytes())


def test_parallel_cache_serves_serial_rerun(tmp_path):
    cache = ResultCache(tmp_path)
    first = SweepExecutor(jobs=2, cache=cache).run(SWEEP)
    rerun_exec = SweepExecutor(jobs=1, cache=cache)
    rerun = rerun_exec.run(SWEEP)
    assert rerun_exec.last_stats.executed == 0
    assert rerun_exec.last_stats.hits == len(SWEEP)
    assert result_bytes(rerun) == result_bytes(first)

