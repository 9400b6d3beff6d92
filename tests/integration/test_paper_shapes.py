"""Integration: full 400-frame runs must reproduce the paper's shapes.

These are the headline claims of the reproduction (DESIGN.md §1).  Exact
seconds are not asserted — the substrate is a simulator — but every
qualitative result and every quantitative anchor (within a tolerance
band) is.
"""

from functools import lru_cache

import pytest

from repro.pipeline import PipelineRunner
from repro.pipeline.arrangements import dvfs_study_placement
from repro.report import paper


@pytest.fixture(scope="module")
def baseline():
    return PipelineRunner(config="single_core").run()


def full_run(config, pipelines, arrangement="ordered"):
    return _full_run(config, pipelines, arrangement)


@lru_cache(maxsize=None)
def _full_run(config, pipelines, arrangement):
    """One 400-frame run; each point is simulated once per module (runs
    are deterministic, and no test mutates a result)."""
    return PipelineRunner(config=config, pipelines=pipelines,
                          arrangement=arrangement).run()


# ---------------------------------------------------------------------------
# §VI-A anchors
# ---------------------------------------------------------------------------

def test_single_core_baseline_is_382s(baseline):
    assert baseline.walkthrough_seconds == pytest.approx(
        paper.BASELINE_SINGLE_CORE_S, rel=0.05)


def test_one_renderer_full_pipeline_near_207s():
    r = full_run("one_renderer", 1)
    assert r.walkthrough_seconds == pytest.approx(207.0, rel=0.12)


def test_one_renderer_saturates_near_101s(baseline):
    r7 = full_run("one_renderer", 7)
    assert r7.walkthrough_seconds == pytest.approx(101.0, rel=0.12)
    # Speed-up vs one core ~3.44 (paper §VI-A).
    speedup = r7.speedup_vs(baseline.walkthrough_seconds)
    assert speedup == pytest.approx(3.44, rel=0.2)


def test_n_renderers_scale_to_58s(baseline):
    r7 = full_run("n_renderers", 7)
    assert r7.walkthrough_seconds == pytest.approx(58.0, rel=0.12)
    speedup = r7.speedup_vs(baseline.walkthrough_seconds)
    assert speedup == pytest.approx(6.89, rel=0.2)


def test_mcpc_best_near_5_pipelines(baseline):
    times = {n: full_run("mcpc_renderer", n).walkthrough_seconds
             for n in (3, 4, 5, 6, 7)}
    best_n = min(times, key=times.get)
    assert best_n in (4, 5, 6)
    assert times[5] == pytest.approx(53.0, rel=0.12)
    speedup = baseline.walkthrough_seconds / min(times.values())
    assert speedup == pytest.approx(7.49, rel=0.2)


def test_mcpc_dips_beyond_its_optimum():
    t5 = full_run("mcpc_renderer", 5).walkthrough_seconds
    t8 = full_run("mcpc_renderer", 8).walkthrough_seconds
    assert t8 > t5


def test_mcpc_beats_n_renderers_at_high_counts():
    mcpc = full_run("mcpc_renderer", 5).walkthrough_seconds
    nrend = full_run("n_renderers", 5).walkthrough_seconds
    assert mcpc < nrend


def test_configs_equivalent_at_one_and_two_pipelines():
    """Paper: with 1-2 pipelines no configuration gains anything —
    blur bounds them all."""
    for n in (1, 2):
        times = [full_run(cfg, n).walkthrough_seconds
                 for cfg in ("one_renderer", "n_renderers", "mcpc_renderer")]
        assert max(times) / min(times) < 1.15


# ---------------------------------------------------------------------------
# the arrangement non-result
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config,n", [("one_renderer", 4),
                                      ("n_renderers", 4),
                                      ("mcpc_renderer", 4)])
def test_arrangements_do_not_matter(config, n):
    times = [full_run(config, n, arrangement=arr).walkthrough_seconds
             for arr in ("unordered", "ordered", "flipped")]
    assert max(times) / min(times) < 1.03


# ---------------------------------------------------------------------------
# power & energy (§VI-B)
# ---------------------------------------------------------------------------

def test_power_anchors():
    mcpc5 = full_run("mcpc_renderer", 5)
    nrend7 = full_run("n_renderers", 7)
    assert mcpc5.scc_avg_power_w == pytest.approx(paper.POWER_MCPC_5PL_W,
                                                  abs=2.0)
    assert nrend7.scc_avg_power_w == pytest.approx(paper.POWER_NREND_7PL_W,
                                                   abs=2.0)


def test_power_linear_in_pipelines():
    watts = [full_run("mcpc_renderer", n).scc_avg_power_w
             for n in (1, 3, 5, 7)]
    diffs = [b - a for a, b in zip(watts, watts[1:])]
    assert all(d == pytest.approx(diffs[0], rel=0.05) for d in diffs)


def test_hybrid_beats_nrenderers_on_energy():
    hybrid = full_run("mcpc_renderer", 5)
    nrend = full_run("n_renderers", 7)
    e_hybrid = hybrid.total_energy_j()
    e_nrend = nrend.total_energy_j()
    assert e_hybrid < e_nrend
    assert e_hybrid == pytest.approx(paper.ENERGY_HYBRID_J, rel=0.15)
    assert e_nrend == pytest.approx(paper.ENERGY_NREND_J, rel=0.15)


# ---------------------------------------------------------------------------
# idle times (Fig. 15)
# ---------------------------------------------------------------------------

def test_idle_time_ordering_with_seven_pipelines():
    r = full_run("mcpc_renderer", 7)
    med = {k: q[1] for k, q in r.idle_quartiles.items()}
    # Blur waits least among the filters; scratch waits most.
    filters = ("sepia", "blur", "scratch", "flicker", "swap")
    assert min(filters, key=lambda k: med[k]) == "blur"
    assert max(filters, key=lambda k: med[k]) == "scratch"
    # Text anchors: blur ~58 ms, scratch ~133 ms.
    assert med["blur"] == pytest.approx(0.058, rel=0.25)
    assert med["scratch"] == pytest.approx(0.133, rel=0.25)


def test_idle_quartiles_close_to_median():
    """Paper: 'the quartiles are very close to the median'."""
    r = full_run("mcpc_renderer", 7)
    for key in ("sepia", "blur", "scratch", "flicker"):
        q1, med, q3 = r.idle_quartiles[key]
        assert (q3 - q1) <= 0.25 * med


# ---------------------------------------------------------------------------
# DVFS (§VI-D, Figs 16-18)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dvfs_runs():
    placement = dvfs_study_placement()
    base = PipelineRunner(config="mcpc_renderer", pipelines=1,
                          placement=placement).run()
    fast = PipelineRunner(config="mcpc_renderer", pipelines=1,
                          placement=placement,
                          frequency_plan={"blur": 800.0}).run()
    mixed = PipelineRunner(
        config="mcpc_renderer", pipelines=1, placement=placement,
        frequency_plan={"blur": 800.0, "scratch": 400.0, "flicker": 400.0,
                        "swap": 400.0, "transfer": 400.0}).run()
    return base, fast, mixed


def test_blur_800_speeds_up_36_percent(dvfs_runs):
    base, fast, _ = dvfs_runs
    ratio = base.walkthrough_seconds / fast.walkthrough_seconds
    # Paper: 236/174 = 1.36.
    assert ratio == pytest.approx(1.36, rel=0.05)


def test_blur_800_costs_about_4_watts(dvfs_runs):
    base, fast, _ = dvfs_runs
    extra = fast.scc_avg_power_w - base.scc_avg_power_w
    assert 3.0 <= extra <= 5.5


def test_mixed_plan_keeps_speed_at_lower_power(dvfs_runs):
    base, fast, mixed = dvfs_runs
    assert mixed.walkthrough_seconds == pytest.approx(
        fast.walkthrough_seconds, rel=0.02)
    assert mixed.scc_avg_power_w < base.scc_avg_power_w
    assert mixed.scc_avg_power_w < fast.scc_avg_power_w
