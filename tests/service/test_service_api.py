"""HTTP API surface: submit, fetch, errors, auth, metrics, health."""

import json

import pytest

from repro.obsv.promexpo import parse_prometheus_text

from .conftest import TINY, http, http_json

pytestmark = pytest.mark.service


def test_post_run_returns_digest_immediately(service):
    status, _, doc = http_json("POST", service.url + "/runs", TINY)
    assert status == 202
    assert doc["status"] == "accepted"
    assert len(doc["digest"]) == 64
    int(doc["digest"], 16)  # hex content address


def test_get_run_waits_and_serves_result(service):
    _, _, doc = http_json("POST", service.url + "/runs", TINY)
    digest = doc["digest"]
    status, headers, body = http(
        "GET", service.url + f"/runs/{digest}?wait=30")
    assert status == 200
    assert headers["X-Repro-Source"] in ("done", "cached")
    result = json.loads(body)
    assert result["digest"] == digest
    assert result["result"]["frames"] == TINY["frames"]
    assert result["result"]["walkthrough_seconds"] > 0


def test_resubmit_of_finished_run_reports_cached(service):
    _, _, doc = http_json("POST", service.url + "/runs", TINY)
    http("GET", service.url + f"/runs/{doc['digest']}?wait=30")
    status, _, again = http_json("POST", service.url + "/runs", TINY)
    assert status == 200
    assert again == {"digest": doc["digest"], "status": "cached"}


def test_sweep_submission_mixed_statuses(service):
    specs = [TINY, {**TINY, "frames": 5}, TINY]  # third duplicates first
    status, _, doc = http_json("POST", service.url + "/sweeps",
                               {"specs": specs})
    assert status == 202
    assert doc["accepted"] == 3 and doc["rejected"] == 0
    statuses = [run["status"] for run in doc["runs"]]
    assert statuses[0] == "accepted"
    assert statuses[2] in ("coalesced", "cached")
    digests = {run["digest"] for run in doc["runs"]}
    assert len(digests) == 2  # duplicate spec, duplicate digest


def test_unknown_digest_is_404(service):
    status, _, doc = http_json("GET", service.url + "/runs/" + "0" * 64)
    assert status == 404
    assert doc["error"] == "not_found"


def test_malformed_json_is_400(service):
    status, _, body = http("POST", service.url + "/runs",
                           raw=b"{not json")
    assert status == 400
    assert json.loads(body)["error"] == "bad_request"


def test_unknown_spec_field_is_400(service):
    status, _, doc = http_json("POST", service.url + "/runs",
                               {**TINY, "fames": 4})
    assert status == 400
    assert "fames" in doc["detail"]


def test_invalid_spec_value_is_400(service):
    status, _, doc = http_json("POST", service.url + "/runs",
                               {**TINY, "config": "no_such_config"})
    assert status == 400
    assert doc["error"] == "bad_request"


@pytest.mark.parametrize("field, value", (("pipelines", 2.5),
                                          ("frames", True)))
def test_lossy_spec_number_is_400(service, field, value):
    status, _, doc = http_json("POST", service.url + "/runs",
                               {**TINY, field: value})
    assert status == 400
    assert doc["error"] == "bad_request"
    assert field in doc["detail"]


def test_oversized_body_is_413(make_service):
    service = make_service(max_body_bytes=256)
    status, _, doc = http_json("POST", service.url + "/runs",
                               {**TINY, "seed": int("9" * 400)})
    assert status == 413
    assert doc["error"] == "payload_too_large"


def test_wrong_method_is_405(service):
    status, _, doc = http_json("GET", service.url + "/runs")
    assert status == 405


def test_unknown_route_is_404(service):
    status, _, doc = http_json("GET", service.url + "/nope")
    assert status == 404


def test_healthz_needs_no_auth(make_service):
    service = make_service(auth_token="sekrit")
    status, _, doc = http_json("GET", service.url + "/healthz")
    assert status == 200
    assert doc["status"] == "ok"
    assert doc["breaker"] == "closed"


def test_auth_gates_every_other_route(make_service):
    service = make_service(auth_token="sekrit")
    status, _, doc = http_json("POST", service.url + "/runs", TINY)
    assert (status, doc["error"]) == (401, "unauthorized")
    status, _, _ = http_json("GET", service.url + "/metrics")
    assert status == 401
    status, _, _ = http_json("POST", service.url + "/runs", TINY,
                             token="wrong")
    assert status == 401
    status, _, doc = http_json("POST", service.url + "/runs", TINY,
                               token="sekrit")
    assert status == 202


def test_metrics_page_parses_and_carries_service_families(service):
    _, _, doc = http_json("POST", service.url + "/runs", TINY)
    http("GET", service.url + f"/runs/{doc['digest']}?wait=30")
    status, headers, body = http("GET", service.url + "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    families = parse_prometheus_text(body.decode())
    assert "repro_service_requests_total" in families
    assert "repro_service_coalescer" in families
    assert "repro_service_breaker" in families
    assert "repro_sweep_runs" in families  # fleet page rides along
    coalescer = dict((labels["key"], value)
                     for labels, value in families["repro_service_coalescer"])
    assert coalescer["submitted"] >= 1


def test_keep_alive_connection_serves_multiple_requests(service):
    import http.client

    conn = http.client.HTTPConnection(service.config.host, service.port,
                                      timeout=10)
    try:
        for _ in range(3):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
    finally:
        conn.close()
