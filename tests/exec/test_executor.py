"""RunSpec validation and the sweep executor's serial scheduling path."""

import pytest

from repro.exec import ResultCache, RunSpec, SweepExecutor, execute_spec
from repro.exec.executor import build_runner
from repro.pipeline import PipelineRunner

FRAMES = 6


def test_spec_validation():
    with pytest.raises(ValueError):
        RunSpec(config="quantum")
    with pytest.raises(ValueError):
        RunSpec(platform="gpu")
    with pytest.raises(ValueError):
        RunSpec(arrangement="diagonal")
    with pytest.raises(ValueError):
        RunSpec(platform="hpc", config="one_renderer")
    with pytest.raises(ValueError):
        RunSpec(platform="hpc", config="single_renderer",
                frequency_plan={"blur": 400})


def test_hpc_spec_pins_arrangement():
    spec = RunSpec(platform="hpc", config="single_renderer",
                   arrangement="ordered")
    assert spec.arrangement == "cluster"
    assert spec == RunSpec(platform="hpc", config="single_renderer",
                           arrangement="flipped")


def test_spec_coerces_scalar_types():
    spec = RunSpec(pipelines="3", frames=10.0)
    assert spec.pipelines == 3 and isinstance(spec.pipelines, int)
    assert spec.frames == 10 and isinstance(spec.frames, int)


@pytest.mark.parametrize("field", ("pipelines", "frames", "image_side",
                                   "seed"))
@pytest.mark.parametrize("value", (2.5, True, False, "2.5", float("inf")))
def test_spec_rejects_lossy_scalars(field, value):
    """2.5 must not quietly run (and cache) the 2-pipeline point."""
    with pytest.raises(ValueError, match=field):
        RunSpec(**{field: value})


def test_spec_rejects_lossy_placement_cores():
    with pytest.raises(ValueError, match="placement core"):
        RunSpec(placement=("ordered", [0], [[1, 2, 3, 4, 5.5]], 6))


def test_from_dict_ignores_unknown_keys():
    doc = RunSpec(pipelines=2).as_dict()
    doc["schema_leak"] = 99
    assert RunSpec.from_dict(doc) == RunSpec(pipelines=2)


def test_execute_spec_matches_direct_runner():
    spec = RunSpec(config="one_renderer", pipelines=2, frames=FRAMES)
    direct = PipelineRunner(config="one_renderer", pipelines=2,
                            frames=FRAMES).run()
    assert execute_spec(spec) == direct


def test_runner_spec_round_trip():
    runner = PipelineRunner(config="n_renderers", pipelines=2, frames=FRAMES)
    assert runner.spec_exact
    assert execute_spec(runner.spec()) == runner.run()


def test_runner_spec_refuses_custom_components():
    from repro.pipeline.workload import WalkthroughWorkload
    runner = PipelineRunner(config="one_renderer", frames=FRAMES,
                            workload=WalkthroughWorkload(frames=FRAMES))
    assert not runner.spec_exact
    with pytest.raises(ValueError):
        runner.spec()


def test_hpc_runner_from_build_runner_round_trips():
    """A cluster runner built from a spec shares the memoized workload,
    which counts as declarative: it gives the same spec back."""
    spec = RunSpec(platform="hpc", config="single_renderer", pipelines=2,
                   frames=FRAMES)
    runner = build_runner(spec)
    assert runner.spec_exact
    assert runner.spec() == spec
    assert execute_spec(runner.spec()) == runner.run()


def test_hpc_runner_refuses_custom_workload():
    from repro.cluster import ClusterRunner
    from repro.pipeline.workload import WalkthroughWorkload
    runner = ClusterRunner(frames=FRAMES,
                           workload=WalkthroughWorkload(frames=FRAMES))
    assert not runner.spec_exact
    with pytest.raises(ValueError):
        runner.spec()
    with pytest.raises(ValueError, match="fewer frames"):
        ClusterRunner(frames=FRAMES + 1,
                      workload=WalkthroughWorkload(frames=FRAMES))


def test_results_come_back_in_submission_order(tmp_path):
    specs = [RunSpec(config="one_renderer", pipelines=n, frames=FRAMES)
             for n in (3, 1, 2)]
    executor = SweepExecutor(cache=ResultCache(tmp_path))
    results = executor.run(specs)
    assert [r.pipelines for r in results] == [3, 1, 2]
    assert executor.last_stats.executed == 3
    assert executor.last_stats.hits == 0


def test_cache_hits_skip_execution(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [RunSpec(config="one_renderer", pipelines=n, frames=FRAMES)
             for n in (1, 2)]
    first = SweepExecutor(cache=cache).run(specs)

    executor = SweepExecutor(cache=cache)
    # one cached point, one fresh point: both slot in submission order
    wider = specs + [RunSpec(config="one_renderer", pipelines=3,
                             frames=FRAMES)]
    second = executor.run(wider)
    assert executor.last_stats.hits == 2
    assert executor.last_stats.executed == 1
    assert second[:2] == first
    assert [r.pipelines for r in second] == [1, 2, 3]
    # cumulative stats roll up across .run() calls
    assert executor.stats.hits == 2


def test_run_one(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(config="one_renderer", pipelines=1, frames=FRAMES)
    a = SweepExecutor(cache=cache).run_one(spec)
    executor = SweepExecutor(cache=cache)
    assert executor.run_one(spec) == a
    assert executor.last_stats.hits == 1


def test_executor_repr(tmp_path):
    executor = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
    assert "jobs=2" in repr(executor)
    assert "cache=on" in repr(executor)


def test_submit_after_close_reopens_the_pool(tmp_path):
    """close() vs submit() must never leak a shutdown pool to a caller."""
    executor = SweepExecutor(cache=ResultCache(tmp_path))
    spec = RunSpec(config="one_renderer", frames=FRAMES, image_side=16)
    first = executor.submit(spec)
    assert first.result(timeout=60).config == "one_renderer"
    executor.close(cancel_pending=True)
    # a fresh submit lazily reopens; no "schedule after shutdown" error
    second = executor.submit(spec)
    assert second.result(timeout=60).config == "one_renderer"
    executor.close()


def test_concurrent_submit_and_close_never_raises(tmp_path):
    """Hammer the close/submit interleaving that used to race.

    submit() used to capture the pool outside the lock and call
    pool.submit on a pool close() had already shut down, raising
    RuntimeError('cannot schedule new futures after shutdown').
    Every interleaving must now either land the work or reopen.
    """
    import threading

    executor = SweepExecutor(cache=ResultCache(tmp_path))
    spec = RunSpec(config="one_renderer", frames=2, image_side=16)
    errors = []
    futures = []
    stop = threading.Event()

    def submitter():
        while not stop.is_set():
            try:
                futures.append(executor.submit(spec, progress=None))
            except RuntimeError as exc:  # the pre-fix failure mode
                errors.append(exc)
                return

    def closer():
        while not stop.is_set():
            executor.close(cancel_pending=True)

    threads = [threading.Thread(target=submitter),
               threading.Thread(target=closer)]
    for t in threads:
        t.start()
    import time
    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    executor.close()
    assert errors == [], errors
    assert futures  # the submitter made progress
