"""Prometheus exposition rendering and the strict parser."""

import math

import pytest

from repro.obsv import (ExpositionPage, parse_prometheus_text,
                        render_exposition)
from repro.obsv.progress import FleetAggregator, state_event, sweep_event


def snapshot_with_activity():
    agg = FleetAggregator()
    agg.consume(sweep_event("start", 3))
    for i in range(3):
        agg.consume(state_event("queued", i, f"d{i}", frames_total=4))
    agg.consume(state_event("cached", 2, "d2", frames_total=4))
    agg.consume(state_event("running", 0, "d0", worker="w1", frames_total=4))
    agg.consume(state_event("done", 0, "d0", worker="w1", wall_s=1.5,
                            frames_done=4, frames_total=4))
    return agg.snapshot()


def test_render_parses_round_trip():
    text = render_exposition(snapshot_with_activity())
    families = parse_prometheus_text(text)
    by_state = dict()
    for labels, value in families["repro_sweep_runs"]:
        by_state[labels["state"]] = value
    assert by_state["done"] == 1 and by_state["cached"] == 1
    assert by_state["queued"] == 1
    assert families["repro_sweep_runs_total"] == [({}, 3.0)]
    assert families["repro_sweep_cache_hits_total"] == [({}, 1.0)]
    (sample,) = families["repro_sweep_worker_busy_seconds"]
    assert sample == ({"worker": "w1"}, 1.5)


def test_label_values_are_escaped_and_unescaped():
    page = ExpositionPage()
    page.family("repro_note", "gauge", "A label with every escape.",
                [({"note": 'quo"te\\slash\nline'}, 1.0)])
    families = parse_prometheus_text(page.text())
    (labels, _) = families["repro_note"][0]
    assert labels["note"] == 'quo"te\\slash\nline'


def test_nan_sample_refused():
    page = ExpositionPage()
    with pytest.raises(ValueError, match="NaN"):
        page.family("repro_bad", "gauge", "Not a number.",
                    [({}, math.nan)])


def test_parser_rejects_sample_without_type_header():
    with pytest.raises(ValueError, match="no\\s+preceding"):
        parse_prometheus_text("orphan_metric 1\n")


def test_parser_rejects_malformed_lines():
    with pytest.raises(ValueError, match="malformed sample"):
        parse_prometheus_text("# TYPE a gauge\n}{ 1\n")
    with pytest.raises(ValueError, match="malformed TYPE"):
        parse_prometheus_text("# TYPE a rainbow\na 1\n")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_prometheus_text("# TYPE a gauge\na banana\n")
    with pytest.raises(ValueError, match="malformed label"):
        parse_prometheus_text('# TYPE a gauge\na{b=unquoted} 1\n')


def test_parser_accepts_inf_and_comments():
    families = parse_prometheus_text(
        "# random commentary\n"
        "# TYPE a gauge\n"
        "a +Inf\n")
    assert families["a"] == [({}, math.inf)]
