"""Tests for the reporting helpers and paper reference data."""

import pytest

from repro.report import format_table, paper


def test_format_table_alignment():
    out = format_table(["n", "time"], [[1, 207.0], [2, 107.0]],
                       title="Table I")
    lines = out.splitlines()
    assert lines[0] == "Table I"
    assert "n" in lines[1] and "time" in lines[1]
    assert "-+-" in lines[2]
    assert "207.0" in lines[3]


def test_format_table_width_mismatch():
    with pytest.raises(ValueError):
        format_table(["a"], [[1, 2]])


# ---------------------------------------------------------------------------
# paper reference data sanity
# ---------------------------------------------------------------------------

def test_table1_complete():
    assert len(paper.TABLE1) == 12
    for row in paper.TABLE1.values():
        assert len(row) == len(paper.TABLE1_PIPELINES) == 7


def test_table1_monotone_configs():
    """Within every row, more pipelines never hurt by much."""
    for (config, _), row in paper.TABLE1.items():
        assert row[0] >= row[-1] * 0.9


def test_fig8_stages_sum_to_the_baseline():
    total = sum(paper.FIG8_STAGE_SECONDS.values()) * 400
    assert total == pytest.approx(paper.BASELINE_SINGLE_CORE_S, rel=0.02)


def test_energy_arithmetic_matches_text():
    hybrid = (paper.MCPC_RENDER_SECONDS * (paper.MCPC_RENDER_W -
                                           paper.MCPC_IDLE_W)
              + 51.0 * paper.POWER_MCPC_5PL_W)
    assert hybrid == pytest.approx(paper.ENERGY_HYBRID_J, rel=0.01)
    assert 58.0 * paper.POWER_NREND_7PL_W == pytest.approx(
        paper.ENERGY_NREND_J, rel=0.01)


def test_speedups_consistent_with_table1():
    """The quoted max speed-ups roughly follow from Table I rows."""
    best_mcpc = min(paper.TABLE1[("mcpc_renderer", "flipped")])
    assert paper.BASELINE_SINGLE_CORE_S / best_mcpc == pytest.approx(
        paper.SPEEDUPS["mcpc_renderer"]["max_vs_core"], rel=0.02)
