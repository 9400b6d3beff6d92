"""The wave jump's bookkeeping works in bulk, bit for bit.

A jump over ``j`` frames used to build the skipped frames' births,
completions, latencies, MCPC power segments and memory-controller busy
time one Python step per frame.  Those steps are now array operations
over the locked period; ``jump_oracle`` keeps the per-frame loop, and
every super-period length ``k = 1 … 8`` must agree with it bit for bit.

The last test is the scaling guard: it counts the Python lines the
result path runs (no wall clock), and a run that skips 389 frames must
run exactly as many as one that skips 89.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import BatchedEngine
from repro.engine.batched import _Actor, _replicate
from repro.pipeline import PipelineRunner
from repro.pipeline.metrics import RunMetrics
from repro.sim import StatAccumulator, TimeSeries, running_sum

from .jump_oracle import accrue, host_segments, replica, skip_frames

KS = range(1, 9)


def _hex(pairs):
    return [(f, t.hex()) for f, t in pairs]


def _state(rng, k, lag):
    """Frame records as a lock leaves them: births up to the head frame,
    completions ``lag`` frames behind it, irregular times."""
    head = 3 * k + int(rng.integers(2, 6))
    births = dict(enumerate(np.cumsum(rng.uniform(0.01, 0.2, head + 1))
                            .tolist()))
    last_f = head - lag
    done = [(f, births[f] + float(rng.uniform(0.5, 1.0)))
            for f in range(last_f + 1)]
    return head, births, done


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("waves", [1, 2, 7])
def test_replicate_matches_replica_loop(k, waves):
    rng = np.random.default_rng(k)
    last = rng.uniform(0.0, 50.0, k).tolist()
    period = float(rng.uniform(0.01, 1.0))
    n = waves * k - (waves > 1)
    want = []
    for i in range(1, n + 1):
        offset, m = replica(i, k)
        want.append(last[k - 1 + offset] + m * period)
    got = _replicate(last, n, period).tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("waves", [1, 3])
@pytest.mark.parametrize("unborn", [False, True])
def test_skip_frames_matches_scalar_loop(k, waves, unborn):
    rng = np.random.default_rng(100 + k)
    if unborn:
        # a completion whose frame has no birth (older than the births
        # the jump copies) records no latency
        head, births, done = _state(rng, k, k + 2)
        del births[done[-1][0] + 1]
    else:
        head, births, done = _state(rng, k, int(rng.integers(1, 4)))
    j, period = waves * k, float(rng.uniform(0.05, 0.3))
    want = (dict(births), list(done), [0.5])
    skip_frames(*want, head, j, k, period)
    eng = SimpleNamespace(births=dict(births), completions=list(done),
                          latency_samples=[0.5],
                          actors=[SimpleNamespace(frame=head - 2),
                                  SimpleNamespace(frame=head)])
    BatchedEngine._skip_frames(eng, j, k, period)
    assert _hex(sorted(eng.births.items())) == _hex(sorted(want[0].items()))
    assert _hex(eng.completions) == _hex(want[1])
    assert [x.hex() for x in eng.latency_samples] == [
        x.hex() for x in want[2]]


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("in_compute", [False, True])
def test_host_segments_match_scalar_loop(k, in_compute):
    rng = np.random.default_rng(200 + k)
    a0, j, period = 3 * k + 2, 4 * k, float(rng.uniform(0.05, 0.3))
    costs = rng.uniform(0.01, 0.1, a0 + j + 1)
    starts = np.cumsum(rng.uniform(0.1, 0.2, a0)).tolist()
    segs = [(s, float(c)) for s, c in zip(starts, costs)]
    actor = SimpleNamespace(host=True, frame=a0, cost_arr=costs,
                            eng=SimpleNamespace(mcpc_segments=list(segs)),
                            in_compute=in_compute, seg_start=starts[-1] + 0.2,
                            cur_dur=float(costs[a0]))
    want = list(segs)
    last = j
    if in_compute:
        want.append((actor.seg_start, actor.cur_dur))
        last = j - 1
    host_segments(want, costs, a0, last, k, period)
    _Actor.synthesize(actor, j, k, period)
    assert _hex(actor.eng.mcpc_segments) == _hex(want)


@pytest.mark.parametrize("waves", [1, 2, 5, 389])
def test_busy_accrual_matches_one_add_per_period(waves):
    """Every memory controller's busy time, accrued in one call as the
    jump does it, equals one add per skipped period."""
    rng = np.random.default_rng(waves)
    busy, accrued = rng.uniform(0.0, 3.0, (2, 4))
    got = running_sum(busy.tolist(),
                      np.broadcast_to(accrued[:, None], (4, waves)))
    want = [accrue(b, a, waves) for b, a in zip(busy.tolist(),
                                                accrued.tolist())]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]


# ---------------------------------------------------------------------------
# scaling guard: the result path's Python work does not grow with J
# ---------------------------------------------------------------------------

def _functions():
    """The code the jump and the result assembly run, by name."""
    fns = {
        "_jump": BatchedEngine._jump,
        "_skip_frames": BatchedEngine._skip_frames,
        "run": BatchedEngine.run,
        "synthesize": _Actor.synthesize,
        "_replicate": _replicate,
        "record_stage_samples": RunMetrics.record_stage_samples,
        "running_sum": running_sum,
    }
    for cls in (TimeSeries, StatAccumulator):
        for name, attr in vars(cls).items():
            fn = attr.fget if isinstance(attr, property) else attr
            if hasattr(fn, "__code__"):
                fns[f"{cls.__name__}.{name}"] = fn
    return {fn.__code__: name for name, fn in fns.items()}


def _line_counts(frames):
    """Python line events per watched function in one batched run of
    the reference profile, comprehensions counted with their owner."""
    codes = _functions()
    counts = dict.fromkeys(codes.values(), 0)

    def tracer(frame, event, arg):
        code = frame.f_code
        owner = codes.get(code)
        if owner is None and code.co_name.startswith("<"):
            owner = codes.get(frame.f_back.f_code)
        if owner is None:
            return None

        def lines(frame, event, arg):
            if event == "line":
                counts[owner] += 1
            return lines
        return lines

    engine = BatchedEngine(PipelineRunner(
        config="mcpc_renderer", arrangement="ordered", pipelines=5,
        frames=frames, engine="batched"))
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        engine.run()
    finally:
        sys.settrace(previous)
    return engine.jumps, counts


def test_result_path_does_not_grow_with_skipped_frames():
    jumps_100, short = _line_counts(100)
    jumps_400, long = _line_counts(400)
    # one jump each, from the same frame; only its length differs
    assert len(jumps_100) == len(jumps_400) == 1
    assert jumps_100[0][0] == jumps_400[0][0]
    assert jumps_400[0][1] - jumps_100[0][1] == 300
    assert short["_jump"] > 0 and short["synthesize"] > 0
    assert short["TimeSeries.extend"] > 0
    assert long == short
