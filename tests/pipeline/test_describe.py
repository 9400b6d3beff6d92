"""Tests for the configuration describer + chip diagnostics."""

import pytest

from repro.pipeline import PipelineRunner
from repro.pipeline.describe import describe
from repro.scc.diagnostics import (
    chip_report,
    frequency_map,
    mc_summary,
    mesh_summary,
)


def test_describe_validates_config():
    with pytest.raises(ValueError):
        describe("quantum")


def test_single_core_description():
    d = describe("single_core")
    assert d.pipelines == 0
    assert len(d.cores) == 1
    assert d.stage("single-core").feeds == ("viewer",)


def test_one_renderer_graph_wiring():
    d = describe("one_renderer", 3)
    render = d.stage("render")
    assert set(render.feeds) == {"sepia[0]", "sepia[1]", "sepia[2]"}
    assert d.stage("blur[1]").feeds == ("scratch[1]",)
    assert d.stage("swap[2]").feeds == ("transfer",)
    assert d.stage("transfer").feeds == ("viewer",)
    assert len(d.cores) == 1 + 15 + 1


def test_mcpc_description_includes_host_stage():
    d = describe("mcpc_renderer", 2)
    host = d.stage("mcpc-render")
    assert host.core is None
    assert host.feeds == ("connect",)
    assert len(d.cores) == 2 + 10  # connect + transfer + filters


def test_description_matches_runner_core_count():
    for config, n in (("one_renderer", 4), ("n_renderers", 3),
                      ("mcpc_renderer", 5)):
        d = describe(config, n)
        result = PipelineRunner(config=config, pipelines=n, frames=2).run()
        assert len(d.cores) == result.cores_used


def test_description_to_text():
    d = describe("n_renderers", 2, "flipped")
    text = d.to_text()
    assert "render[0]" in text
    assert "flipped" in text
    assert "core" in text
    # every node's line ends with its per-frame op program
    blur = d.stage("blur[0]")
    src, dst = blur.program[0].arg, blur.program[-1].arg
    assert (f"blur[0]      [core {blur.core:2d}] -> scratch[0]: "
            f"recv {src}, compute, send {dst}") in text
    assert ": compute, send " in text  # a renderer: no input
    assert "compute, udp downlink, done" in text  # the transfer stage
    with pytest.raises(KeyError):
        describe("n_renderers", 2).stage("warp")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ran_chip():
    runner = PipelineRunner(config="n_renderers", pipelines=2, frames=10)
    runner.run()
    return runner.last_chip


def test_frequency_map_shows_grid(ran_chip):
    text = frequency_map(ran_chip)
    assert text.count("533@1.1") == 24


def test_frequency_map_reflects_dvfs(ran_chip):
    ran_chip.dvfs.set_tile_frequency(0, 800.0)
    try:
        assert "800@1.3" in frequency_map(ran_chip)
    finally:
        ran_chip.dvfs.set_tile_frequency(0, 533.0)


def test_mc_summary_accounts_traffic(ran_chip):
    text = mc_summary(ran_chip)
    assert "MC0" in text and "MC3" in text
    assert "MB" in text


def test_mesh_summary_lists_hot_links(ran_chip):
    text = mesh_summary(ran_chip)
    assert "messages" in text
    assert "->" in text


def test_full_report(ran_chip):
    text = chip_report(ran_chip)
    assert "48 cores" in text
    assert "power:" in text
    assert "memory controllers:" in text


def test_description_matches_runner_for_all_shapes():
    """Property: describer core counts equal runner core counts for
    every configuration/arrangement/pipeline combination."""
    from hypothesis import given, settings, strategies as st

    @given(st.sampled_from(["one_renderer", "n_renderers", "mcpc_renderer"]),
           st.integers(1, 7),
           st.sampled_from(["unordered", "ordered", "flipped"]))
    @settings(max_examples=15, deadline=None)
    def check(config, n, arrangement):
        d = describe(config, n, arrangement)
        result = PipelineRunner(config=config, pipelines=n,
                                arrangement=arrangement, frames=2).run()
        assert len(d.cores) == result.cores_used
        assert d.pipelines == result.pipelines

    check()
