"""Live progress streaming must never change results or hang on failure."""

import json

import pytest

import repro.exec.executor as executor_mod
from repro.exec import ResultCache, RunSpec, SweepExecutor, execute_spec
from repro.exec.cache import result_to_cache_dict
from repro.obsv import RUN_STATES
from repro.service.wire import event_to_wire

SWEEP = [
    RunSpec(config="single_core", frames=4),
    RunSpec(config="one_renderer", pipelines=2, frames=4),
    RunSpec(config="n_renderers", pipelines=2, frames=4),
]


def fingerprint(results) -> bytes:
    return json.dumps([result_to_cache_dict(r) for r in results],
                      sort_keys=True).encode()


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_identical_streaming_on_vs_off(jobs):
    quiet = SweepExecutor(jobs=jobs).run(SWEEP)
    events = []
    loud = SweepExecutor(jobs=jobs, progress=events.append).run(SWEEP)
    assert fingerprint(loud) == fingerprint(quiet)
    assert events, "streaming on must produce events"
    for ev in events:
        if ev.kind == "state":
            assert ev.state in RUN_STATES
    by_index = {}
    for ev in events:
        if ev.kind == "state":
            by_index.setdefault(ev.index, []).append(ev.state)
    for i in range(len(SWEEP)):
        assert by_index[i][0] == "queued"
        assert by_index[i][-1] == "done"
    assert (events[0].kind, events[0].state) == ("sweep", "start")
    assert (events[-1].kind, events[-1].state) == ("sweep", "finish")


def test_cached_points_stream_cached_events(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    SweepExecutor(jobs=1, cache=cache).run(SWEEP)
    events = []
    again = SweepExecutor(jobs=2, cache=cache,
                          progress=events.append).run(SWEEP)
    assert fingerprint(again) == fingerprint(SweepExecutor(jobs=1).run(SWEEP))
    cached = [ev for ev in events if ev.state == "cached"]
    assert [ev.index for ev in cached] == [0, 1, 2]
    assert all(ev.state != "running" for ev in events)


def _explode_on_first(spec, telemetry=None):
    if spec.config == "single_core":
        raise RuntimeError("injected failure")
    return execute_spec(spec, telemetry=telemetry)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_surfaces_failed_event_without_hanging(
        jobs, monkeypatch):
    # Patching the module global works across fork: workers inherit the
    # patched parent image.  (Under spawn this test would need a real
    # importable hook; the suite runs where fork is available.)
    monkeypatch.setattr(executor_mod, "execute_spec", _explode_on_first)
    events = []
    executor = SweepExecutor(jobs=jobs, progress=events.append)
    with pytest.raises(RuntimeError, match="injected failure"):
        executor.run(SWEEP)
    failed = [(ev.index, ev.error) for ev in events if ev.state == "failed"]
    assert failed == [(0, "RuntimeError('injected failure')")]
    # The stream still closes cleanly: the sweep-finish marker arrives
    # and the drain thread exits (a hang here would time the suite out).
    assert (events[-1].kind, events[-1].state) == ("sweep", "finish")


def test_batched_heartbeats_carry_the_period_and_nothing_else():
    # The heartbeat frame a service client receives: frame counts plus,
    # once the batched engine jumps, the detected frame-wave period.
    spec = RunSpec(config="mcpc_renderer", pipelines=5, frames=400,
                   engine="batched")
    events = []
    SweepExecutor(jobs=1, progress=events.append).run([spec])
    heartbeats = [ev for ev in events if ev.kind == "heartbeat"]
    assert any(ev.period_s > 0 for ev in heartbeats)
    (done,) = [ev for ev in events if ev.state == "done"]
    assert done.frames_done == 400
    wire_keys = {"v", "kind", "worker", "index", "digest", "frames_done",
                 "frames_total", "period_s"}
    for ev in heartbeats:
        assert set(event_to_wire(ev)) <= wire_keys
