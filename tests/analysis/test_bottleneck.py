"""The paper's bottleneck story, read from exact batched runs.

Blur paces every pipeline at small pipeline counts; the shared input
stage (render, or connect behind the MCPC) caps the saturated counts,
which gives the 5-pipeline MCPC optimum (Figs. 9-11, Table I).  The
verdicts come from :func:`repro.analysis.analyze_telemetry` over one
400-frame batched walkthrough, the report ``repro explain`` prints.
"""

from repro.analysis import RunInsight, analyze_telemetry
from repro.pipeline import PipelineRunner
from repro.scc import MemoryConfig, SCCConfig
from repro.telemetry import Telemetry

#: the stage every pipeline of a configuration shares at its head
INPUT_STAGE = {"one_renderer": "render", "n_renderers": "render",
               "mcpc_renderer": "connect"}


def _insight(config: str, pipelines: int) -> RunInsight:
    # Not memoised: six 400-frame insights (critical path,
    # per-track attribution, idle samples) hold ~80 MB together, which a
    # module-level cache would keep alive for the rest of the session.
    telemetry = Telemetry()
    result = PipelineRunner(config=config, pipelines=pipelines, frames=400,
                            telemetry=telemetry, engine="batched").run()
    return analyze_telemetry(telemetry, result)


def _compute_per_instance(insight: RunInsight, kind: str) -> float:
    """Compute seconds of one instance of ``kind`` over the run."""
    instances = sum(1 for track in insight.tracks
                    if track.split("[")[0] == kind)
    return insight.kind_seconds[kind]["compute"] / instances


def test_bottlenecks_match_paper_narrative():
    """Blur bounds small pipeline counts; the shared input stage bounds
    the saturated regimes."""
    for config, n in (("one_renderer", 1), ("n_renderers", 2),
                      ("mcpc_renderer", 2)):
        insight = _insight(config, n)
        assert insight.filter_verdict().stage == "blur", (config, n)
        assert (_compute_per_instance(insight, "blur")
                > _compute_per_instance(insight, INPUT_STAGE[config])), \
            (config, n)
    for config, n in (("one_renderer", 5), ("n_renderers", 7),
                      ("mcpc_renderer", 6)):
        verdict = _insight(config, n).verdict
        assert verdict.stage == INPUT_STAGE[config], (config, n)
        assert verdict.resource == "core", (config, n)


def test_explain_names_the_bottleneck():
    text = _insight("mcpc_renderer", 6).format_text()
    assert "bottleneck        : connect (core-bound" in text
    assert "pipeline filter   : blur (core-bound" in text


def test_local_memory_shrinks_handoffs():
    """The local-store ablation removes the DRAM bounce of every strip
    hand-off: the copy-light filters lose most of their busy time."""
    def run(local_memory: bool):
        chip = SCCConfig(memory=MemoryConfig(local_memory=local_memory))
        return PipelineRunner(config="n_renderers", pipelines=1, frames=30,
                              chip_config=chip, engine="batched").run()

    base, local = run(False), run(True)
    assert local.walkthrough_seconds < base.walkthrough_seconds
    assert local.busy_means["scratch"] < 0.5 * base.busy_means["scratch"]
