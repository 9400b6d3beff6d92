"""Tests for ASCII plots and result export."""

import pytest

from repro.pipeline import PipelineRunner
from repro.report import (
    ascii_chart,
    result_to_dict,
    results_from_json,
    results_to_json,
)


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

def test_ascii_chart_renders_extremes():
    out = ascii_chart({"time": [200, 100, 50, 50]}, x_labels=[1, 2, 3, 4],
                      title="demo")
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "200" in lines[1]          # max on the top row
    assert "t" in out                 # marker
    assert "t=time" in lines[-1]      # legend


def test_ascii_chart_marks_collisions():
    out = ascii_chart({"aaa": [1, 2], "abb": [1, 3]})
    assert "*" in out  # both series share the first point


def test_ascii_chart_validation():
    with pytest.raises(ValueError):
        ascii_chart({})
    with pytest.raises(ValueError):
        ascii_chart({"a": [1], "b": [1, 2]})
    with pytest.raises(ValueError):
        ascii_chart({"a": []})
    with pytest.raises(ValueError):
        ascii_chart({"a": [1, 2]}, height=1)
    with pytest.raises(ValueError):
        ascii_chart({"a": [1, 2]}, x_labels=[1])


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def results():
    return [PipelineRunner(config="n_renderers", pipelines=n,
                           frames=10).run() for n in (1, 2)]


def test_result_to_dict_fields(results):
    d = result_to_dict(results[0])
    assert d["config"] == "n_renderers"
    assert d["pipelines"] == 1
    assert d["walkthrough_seconds"] > 0
    assert "blur" in d["idle_quartiles"]
    assert len(d["mc_utilizations"]) == 4
    assert d["total_energy_j"] == pytest.approx(
        d["scc_energy_j"] + d["mcpc_energy_above_idle_j"])


def test_json_roundtrip(tmp_path, results):
    path = tmp_path / "results.json"
    results_to_json(results, path)
    loaded = results_from_json(path)
    assert len(loaded) == 2
    assert loaded[0]["pipelines"] == 1
    assert loaded[1]["pipelines"] == 2
    assert loaded[0]["walkthrough_seconds"] == pytest.approx(
        results[0].walkthrough_seconds)


def test_json_rejects_non_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"oops": 1}')
    with pytest.raises(ValueError):
        results_from_json(path)
