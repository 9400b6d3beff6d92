"""RunMetrics: the bulk stage-sample path checks every sample, as the
per-sample calls do."""

import math

import pytest

from repro.pipeline.metrics import RunMetrics

NAN = math.nan


@pytest.mark.parametrize("vals", [
    [NAN, -1.0],
    [-1.0, NAN],
    [NAN, NAN, 0.5, -2.0],
    [0.25, NAN, -1e-300],
    [-math.inf, NAN],
])
@pytest.mark.parametrize("kind", ["idle", "busy"])
def test_record_stage_samples_rejects_a_negative_sample_anywhere(vals, kind):
    samples = {"blur": vals}
    idle, busy = (samples, {}) if kind == "idle" else ({}, samples)
    with pytest.raises(ValueError, match="blur: negative stage time"):
        RunMetrics().record_stage_samples(idle, busy)
    # the per-sample call rejects the same list
    single = RunMetrics()
    record = single.record_idle if kind == "idle" else single.record_busy
    with pytest.raises(ValueError):
        for v in vals:
            record("blur", v)


@pytest.mark.parametrize("vals", [
    [NAN, 1.0],
    [1.0, NAN],
    [NAN],
    [-0.0, 0.0, 2.5],
    [math.inf, NAN, 0.0],
])
def test_record_stage_samples_accepts_what_record_idle_accepts(vals):
    bulk = RunMetrics()
    bulk.record_stage_samples({"blur": vals}, {"blur": vals})
    single = RunMetrics()
    for v in vals:
        single.record_idle("blur", v)
        single.record_busy("blur", v)
    for name in ("idle", "busy"):
        got = getattr(bulk, name)["blur"]._samples
        want = getattr(single, name)["blur"]._samples
        assert list(map(float.hex, got)) == list(map(float.hex, want))
