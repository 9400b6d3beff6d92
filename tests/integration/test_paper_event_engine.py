"""The paper's headline runs agree on both engines.

The findings in :mod:`repro.report.paper` run on the batched engine.
The 400-frame walkthroughs behind the headline shapes (the §VI-A
anchors, the arrangement non-result, the power and energy anchors, the
Fig. 15 idle times and the three §VI-D settings) also run here on the
discrete-event engine, and every field a finding reads must match the
batched run to 1e-9 relative.
"""

import dataclasses

import pytest

from repro.pipeline import ARRANGEMENTS
from repro.report import paper

CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")

#: (config, pipelines, arrangement) of the event-engine headline runs
HEADLINE = sorted(
    {("one_renderer", n, "ordered") for n in (1, 2, 7)}
    | {("n_renderers", n, "ordered") for n in (1, 2, 5, 7)}
    | {("mcpc_renderer", n, "ordered") for n in range(1, 9)}
    | {(config, 4, arr) for config in CONFIGS for arr in ARRANGEMENTS})

RUNS = ([paper.SINGLE_CORE]
        + [paper.Run(config, n, arr) for config, n, arr in HEADLINE]
        + list(paper.DVFS.values()))

#: RunResult fields the findings read (``total_energy_j`` is a sum of
#: two of them, the verdicts read ``busy_means``)
SCALARS = ("walkthrough_seconds", "scc_energy_j", "scc_avg_power_w",
           "mcpc_energy_above_idle_j")
REL = 1e-9


def _close(a, b):
    return a == pytest.approx(b, rel=REL, abs=0.0)


@pytest.mark.parametrize("run", RUNS, ids=lambda r: (
    f"{r.config}-{r.pipelines}-{r.arrangement}"
    + (f"-{r.plan}" if r.plan else "")))
def test_event_engine_agrees_with_the_batched_run(run):
    assert any(run in f.runs for f in paper.FINDINGS)
    batched = paper.simulate(run)
    event = paper.simulate(dataclasses.replace(run, engine="event"))
    for name in SCALARS:
        assert _close(getattr(event, name), getattr(batched, name)), name
    assert event.idle_quartiles.keys() == batched.idle_quartiles.keys()
    for key, quartiles in batched.idle_quartiles.items():
        assert all(map(_close, event.idle_quartiles[key], quartiles)), key
    assert event.busy_means.keys() == batched.busy_means.keys()
    for key, mean in batched.busy_means.items():
        assert _close(event.busy_means[key], mean), key
    assert all(map(_close, event.mc_utilizations, batched.mc_utilizations))
    assert len(event.power_trace) == len(batched.power_trace)
    for (t_e, w_e), (t_b, w_b) in zip(event.power_trace,
                                      batched.power_trace):
        assert _close(t_e, t_b) and _close(w_e, w_b)
