"""The fleet-facing HTTP surface: ``GET /v1/capabilities`` and the
streaming ``POST /v1/evaluate-batch`` endpoint, plus the uniform
``{"schema": 1, "ok": false, "error": ...}`` error shape.

Tests speak raw ``http.client`` where streaming details matter
(NDJSON chunking, in-band fatal records); what ``ServeClient`` makes of
the same stream lives in ``tests/serve/test_client.py``.
"""

import http.client
import json

import pytest

from repro.gp.parse import unparse
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.fitness_cache import pipeline_fingerprint
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.serve.client import JobFailed, ServeClient, ServeError
from repro.serve.server import API_SCHEMA, ENDPOINTS, ReproServer

BENCHMARK = "codrle4"


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(port=0, workers=1, capacity=4)
    srv.start()
    yield srv
    srv.drain(timeout=30.0)


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url, timeout=30.0)


def batch_payload(items=None):
    tree = unparse(BASELINE_TREES["hyperblock"]())
    if items is None:
        items = [{"index": 0, "tree": tree, "benchmark": BENCHMARK}]
    return {"schema": 1, "case": "hyperblock", "dataset": "train",
            "settings": {}, "items": items}


def post_batch(server, payload, path="/v1/evaluate-batch"):
    """Raw POST; returns (status, headers, parsed body).

    A 200 body is the list of NDJSON records, anything else the JSON
    error document.
    """
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        if response.status != 200:
            return response.status, response.headers, json.loads(raw)
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        return 200, response.headers, lines
    finally:
        conn.close()


class TestCapabilities:
    def test_shape(self, client):
        caps = client.capabilities()
        assert caps["schema"] == API_SCHEMA
        assert caps["ok"] is True
        assert caps["server"] == "repro-serve"
        assert caps["endpoints"] == list(ENDPOINTS)
        assert "POST /v1/evaluate-batch" in caps["endpoints"]
        assert caps["pipeline_fingerprint"] == pipeline_fingerprint()
        assert caps["batch_concurrency"] == 4

    def test_wrong_method_is_405_with_allow(self, server):
        status, headers, body = post_batch(server, {},
                                           path="/v1/capabilities")
        assert status == 405
        assert headers["Allow"] == "GET"
        assert body["schema"] == API_SCHEMA
        assert body["ok"] is False
        assert "error" in body


class TestErrorShape:
    def test_404_carries_schema_and_ok(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/no-such-route")
        assert excinfo.value.status == 404
        assert excinfo.value.payload["schema"] == API_SCHEMA
        assert excinfo.value.payload["ok"] is False

    def test_bad_batch_is_400(self, server, client):
        status, _, body = post_batch(server, {"schema": 99})
        assert status == 400
        assert body["ok"] is False
        assert "schema" in body["error"]
        for settings in ({"noise_stddev": float("inf")},
                         {"noise_stddev": float("nan")},
                         {"noise_stddev": True},
                         {"verify_outputs": "yes"}):
            payload = batch_payload()
            payload["settings"] = settings
            status, _, body = post_batch(server, payload)
            assert status == 400, settings
            field = next(iter(settings))
            assert body["error"].startswith(f"bad settings: {field} must")
        # a case whose candidates are not trees is refused up front,
        # not answered item by item with an AttributeError on a warm
        # harness nobody can use
        payload = batch_payload()
        payload["case"] = "flags"
        status, _, body = post_batch(server, payload)
        assert status == 400
        assert body["schema"] == API_SCHEMA and body["ok"] is False
        assert "flags" in body["error"]
        assert not any(case == "flags"
                       for case, _ in server.harness_pool._harnesses)
        # the same record guards the queued endpoint: a failed job
        # with the same text, not an OverflowError inside the simulator
        with pytest.raises(JobFailed, match="noise_stddev must be a finite"):
            client.evaluate(BENCHMARK, noise=float("inf"))

    def test_unknown_case_is_400(self, server):
        payload = batch_payload()
        payload["case"] = "mystery"
        status, _, body = post_batch(server, payload)
        assert status == 400
        assert "mystery" in body["error"]


class TestEvaluateBatch:
    def test_streams_values_matching_direct_harness(self, server):
        tree = BASELINE_TREES["hyperblock"]()
        harness = EvaluationHarness(case_study("hyperblock"))
        expected = harness.speedup(tree, BENCHMARK, "train")
        payload = batch_payload([
            {"index": 7, "tree": unparse(tree), "benchmark": BENCHMARK},
            {"index": 3, "tree": unparse(tree), "benchmark": BENCHMARK},
        ])
        status, headers, lines = post_batch(server, payload)
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert lines[-1] == {"done": True, "count": 2}
        records = {line["index"]: line for line in lines[:-1]}
        assert set(records) == {7, 3}
        for record in records.values():
            assert record["ok"] is True
            assert record["value"] == expected

    def test_bad_item_fails_alone(self, server):
        tree = unparse(BASELINE_TREES["hyperblock"]())
        payload = batch_payload([
            {"index": 0, "tree": "(nonsense", "benchmark": BENCHMARK},
            {"index": 1, "tree": tree, "benchmark": BENCHMARK},
        ])
        status, _, lines = post_batch(server, payload)
        assert status == 200
        by_index = {line["index"]: line for line in lines[:-1]}
        assert by_index[0]["ok"] is False
        assert "error" in by_index[0]
        assert by_index[1]["ok"] is True

    def test_fingerprint_mismatch_is_in_band_fatal(self, server):
        payload = batch_payload()
        payload["fingerprint"] = {"pipeline": "bogus"}
        status, _, lines = post_batch(server, payload)
        assert status == 200
        assert lines[0]["ok"] is False
        assert lines[0]["fatal"] is True
        assert "fingerprint" in lines[0]["error"]
        assert lines[-1] == {"done": True, "count": 0}

    def test_duplicate_indices_rejected(self, server):
        tree = unparse(BASELINE_TREES["hyperblock"]())
        payload = batch_payload([
            {"index": 0, "tree": tree, "benchmark": BENCHMARK},
            {"index": 0, "tree": tree, "benchmark": BENCHMARK},
        ])
        status, _, body = post_batch(server, payload)
        assert status == 400
        assert "duplicate" in body["error"]


class TestBackpressure:
    def test_exhausted_lanes_shed_with_retry_after(self):
        srv = ReproServer(port=0, workers=1, capacity=4,
                          batch_concurrency=1)
        srv.start()
        assert srv._batch_lanes.acquire(blocking=False)  # hog the lane
        try:
            status, headers, body = post_batch(srv, batch_payload())
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert body["ok"] is False
        finally:
            srv._batch_lanes.release()
            srv.drain(timeout=10.0)

    def test_draining_server_says_503(self):
        srv = ReproServer(port=0, workers=1, capacity=4)
        srv.start()
        try:
            srv._draining.set()
            status, headers, body = post_batch(srv, batch_payload())
            assert status == 503
            assert headers["Retry-After"] == "5"
            assert body["ok"] is False
        finally:
            srv._draining.clear()
            srv.drain(timeout=10.0)
