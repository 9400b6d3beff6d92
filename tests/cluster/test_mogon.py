"""Tests for the Mogon cluster model (Fig. 13 platform)."""

import pytest

from repro.cluster import CLUSTER_CONFIGURATIONS, ClusterConfig, ClusterRunner
from repro.pipeline import PipelineRunner

FRAMES = 40


def run(config, pipelines=2, **kw):
    return ClusterRunner(config=config, pipelines=pipelines, frames=FRAMES,
                         **kw).run()


def test_validation():
    with pytest.raises(ValueError):
        ClusterRunner(config="gpu_farm")
    with pytest.raises(ValueError):
        ClusterRunner(pipelines=0)
    with pytest.raises(ValueError):
        ClusterRunner(frames=0)


def test_all_cluster_configs_run():
    for cfg in CLUSTER_CONFIGURATIONS:
        result = run(cfg)
        assert result.walkthrough_seconds > 0
        assert result.config == f"hpc_{cfg}"
        assert result.arrangement == "cluster"


def test_cluster_much_faster_than_scc():
    """'the rendering can be done at least three times faster'."""
    scc = PipelineRunner(config="mcpc_renderer", pipelines=5,
                         frames=FRAMES).run()
    hpc = run("single_renderer", pipelines=5)
    assert hpc.walkthrough_seconds < scc.walkthrough_seconds / 3


def test_single_renderer_scales_with_pipelines():
    times = [run("single_renderer", pipelines=n).walkthrough_seconds
             for n in (1, 2, 4, 7)]
    assert times == sorted(times, reverse=True)
    # Near-linear early scaling (unlike the SCC's render-bound saturation).
    assert times[0] / times[1] > 1.8


def test_external_renderer_flattens():
    """The frame feed bounds the external configuration (Fig. 13)."""
    t3 = run("external_renderer", pipelines=3).walkthrough_seconds
    t7 = run("external_renderer", pipelines=7).walkthrough_seconds
    assert t7 == pytest.approx(t3, rel=0.05)


def test_external_renderer_slowest_at_high_pipeline_counts():
    """'The other configurations that were the slowest on the SCC system
    achieve the best performance on the cluster nodes.'"""
    ext = run("external_renderer", pipelines=7).walkthrough_seconds
    single = run("single_renderer", pipelines=7).walkthrough_seconds
    parallel = run("parallel_renderer", pipelines=7).walkthrough_seconds
    assert single < ext
    assert parallel < ext


def test_cluster_13x_faster_than_scc_at_7_pipelines():
    """'Using seven pipelines, the cluster is 13.5 times faster than the
    SCC system' — accept a generous band around 13.5."""
    scc = PipelineRunner(config="mcpc_renderer", pipelines=7,
                         frames=FRAMES).run()
    hpc = run("single_renderer", pipelines=7)
    ratio = scc.walkthrough_seconds / hpc.walkthrough_seconds
    assert 8.0 < ratio < 22.0


def test_no_power_model_for_cluster():
    result = run("single_renderer")
    assert result.scc_energy_j == 0.0
    assert result.scc_avg_power_w == 0.0


def test_custom_cluster_config():
    slow = ClusterConfig(filter_speedup=1.0, render_speedup=1.0)
    fast = ClusterConfig(filter_speedup=20.0, render_speedup=50.0)
    t_slow = run("single_renderer", cluster_config=slow).walkthrough_seconds
    t_fast = run("single_renderer", cluster_config=fast).walkthrough_seconds
    assert t_fast < t_slow / 3


def test_determinism():
    a = run("parallel_renderer", pipelines=3)
    b = run("parallel_renderer", pipelines=3)
    assert a.walkthrough_seconds == b.walkthrough_seconds


@pytest.mark.parametrize("config, per_pipeline, shared", [
    ("single_renderer", 5, 2),    # filters; renderer + transfer
    ("parallel_renderer", 6, 1),  # a renderer and filters per pipeline
    ("external_renderer", 5, 2),  # filters; connector + transfer
])
@pytest.mark.parametrize("pipelines", (1, 3))
def test_cores_used_counts_the_processes_of_each_config(
        config, per_pipeline, shared, pipelines):
    """Counted like the SCC rows: a remote renderer is not counted."""
    result = run(config, pipelines=pipelines)
    assert result.cores_used == per_pipeline * pipelines + shared
