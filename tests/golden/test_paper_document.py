"""EXPERIMENTS.md is the golden of the paper's findings.

Every row of :data:`repro.report.paper.FINDINGS` must land in its band,
and the numeric tables of EXPERIMENTS.md (between ``<!-- paper:NAME -->``
markers) must equal a fresh rendering of the model's values.  The prose
outside the markers is written by hand.  ``pytest tests/golden
--update-goldens`` rewrites the marked tables from the current code; do
that only in a change that means to alter the model.
"""

import dataclasses
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.report import paper

DOCUMENT = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def outcomes():
    return paper.evaluate()


def test_finding_keys_are_unique():
    keys = [f.key for f in paper.FINDINGS]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("finding", paper.FINDINGS, ids=lambda f: f.key)
def test_finding_in_band(finding):
    assert paper.failures([(finding, finding.value())]) == []


def test_document_matches_the_model(outcomes, update_goldens):
    text = DOCUMENT.read_text(encoding="utf-8")
    fresh = paper.render_document(text, outcomes)
    if update_goldens:
        DOCUMENT.write_text(fresh, encoding="utf-8")
        pytest.skip("EXPERIMENTS.md tables rewritten")
    assert fresh == text, (
        "EXPERIMENTS.md differs from the model; run `pytest tests/golden "
        "--update-goldens` if the model was meant to change")


def test_rendering_is_idempotent(outcomes):
    once = paper.render_document(DOCUMENT.read_text(encoding="utf-8"),
                                 outcomes)
    assert paper.render_document(once, outcomes) == once


@pytest.mark.parametrize("stale, fresh", [
    # the hand-copied cells this table replaced had drifted
    ("| hybrid (MCPC render, 5 pl.) (J) | 2642 | 2778 |",
     "| hybrid (MCPC render, 5 pl.) (J) | 2642 | 2762 |"),
    ("| 53.2 | 54.2 | 55.5 | ±15 % |", "| 53.2 | 54.2 | 55 | ±15 % |"),
])
def test_a_drifted_cell_fails_the_document(outcomes, stale, fresh):
    text = DOCUMENT.read_text(encoding="utf-8")
    assert stale in text
    drifted = text.replace(stale, fresh)
    assert paper.render_document(drifted, outcomes) != drifted


def test_a_document_without_markers_fails(outcomes):
    with pytest.raises(ValueError):
        paper.render_document("# EXPERIMENTS\n\nno tables here\n", outcomes)


def _pushed_outside(finding, value):
    """``finding`` with its value moved just past its band's upper end."""
    pushed = math.nextafter(finding.band.hi, math.inf)
    assert finding.band.holds(value) and not finding.band.holds(pushed)
    return dataclasses.replace(finding, runs=(), measure=lambda: pushed)


def test_a_finding_pushed_out_of_band_fails_test_and_cli(
        outcomes, monkeypatch, capsys):
    finding, value = next((f, v) for f, v in outcomes
                          if f.key == "energy/hybrid (MCPC render, 5 pl.) "
                                      "(J)")
    pushed = _pushed_outside(finding, value)
    assert paper.failures([(pushed, pushed.value())]) != []
    monkeypatch.setattr(paper, "FINDINGS", (pushed,))
    assert main(["paper"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL energy/hybrid")
    assert out.splitlines()[-1] == "1 findings, 1 outside their band"
