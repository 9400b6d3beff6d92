"""The /metrics + /healthz endpoint (real sockets, ephemeral ports)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obsv import MetricsServer, parse_prometheus_text
from repro.obsv.progress import FleetAggregator, state_event, sweep_event


@pytest.fixture()
def live_server():
    agg = FleetAggregator()
    agg.consume(sweep_event("start", 2))
    agg.consume(state_event("queued", 0, "d0"))
    agg.consume(state_event("cached", 1, "d1"))
    server = MetricsServer(agg, port=0)
    with server:
        yield server


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


def test_metrics_page_parses_as_exposition(live_server):
    status, headers, body = fetch(live_server.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    families = parse_prometheus_text(body)
    assert families["repro_sweep_runs_total"] == [({}, 2.0)]
    assert families["repro_sweep_cache_hits_total"] == [({}, 1.0)]


def test_healthz_reports_sweep_progress(live_server):
    status, headers, body = fetch(live_server.url + "/healthz")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    doc = json.loads(body)
    assert doc["status"] == "ok"
    assert doc["sweep"] == {"total": 2, "completed": 1, "failed": 0,
                            "finished": False}
    assert doc["uptime_s"] >= 0


def test_unknown_path_is_404(live_server):
    with pytest.raises(urllib.error.HTTPError) as err:
        fetch(live_server.url + "/nope")
    assert err.value.code == 404


def test_render_failure_is_500_not_a_crash(live_server):
    live_server.aggregator.snapshot = None  # sabotage: render must fail
    with pytest.raises(urllib.error.HTTPError) as err:
        fetch(live_server.url + "/metrics")
    assert err.value.code == 500


def test_ephemeral_port_resolves_and_double_start_rejected(live_server):
    assert live_server.port != 0
    assert str(live_server.port) in live_server.url
    with pytest.raises(RuntimeError, match="already started"):
        live_server.start()


def test_stop_is_idempotent():
    server = MetricsServer(FleetAggregator(), port=0)
    server.start()
    server.stop()
    server.stop()  # second stop is a no-op
