"""End-to-end serving daemon tests.

A real :class:`ReproServer` is booted on an ephemeral port (port 0)
per fixture.  The expensive fixtures (real compile/simulate handlers)
are module-scoped; backpressure/timeout/cancel tests inject gated toy
handlers so they exercise the HTTP contract in milliseconds.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.gp.parse import unparse
from repro.machine.descr import DEFAULT_EPIC
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.serve.artifact import build_artifact
from repro.serve.client import JobFailed, ServeClient, ServeError, ServerBusy
from repro.serve.jobs import HarnessPool, run_evaluate, simulation_payload
from repro.serve.registry import ArtifactRegistry
from repro.serve.server import MAX_BODY_BYTES, ReproServer
from tests.conftest import wait_until

REPO_ROOT = Path(__file__).resolve().parents[2]

BENCHMARK = "codrle4"


def canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Real-handler server: byte-identity, artifacts, compile.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def store(tmp_path_factory):
    registry = ArtifactRegistry(tmp_path_factory.mktemp("store"))
    artifact = build_artifact(
        case="hyperblock",
        expression=unparse(BASELINE_TREES["hyperblock"]()),
        machine=DEFAULT_EPIC,
        training_config={"mode": "specialize", "benchmark": BENCHMARK},
        metrics={"train_speedup": 1.0},
        created_at=1_700_000_000.0,
    )
    registry.save(artifact)
    return registry, artifact


@pytest.fixture(scope="module")
def server(store):
    registry, _ = store
    srv = ReproServer(port=0, workers=4, capacity=32, registry=registry)
    srv.start()
    yield srv
    srv.drain(timeout=30.0)


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(server.url, timeout=30.0)


@pytest.fixture(scope="module")
def direct_payloads(store):
    """What the library produces without the daemon in the loop."""
    _, artifact = store
    harness = EvaluationHarness(case_study("hyperblock"))
    baseline = simulation_payload(
        "hyperblock", harness.case.machine.name, BENCHMARK, "train",
        harness.baseline_result(BENCHMARK, "train"))
    deployed = simulation_payload(
        "hyperblock", harness.case.machine.name, BENCHMARK, "train",
        harness.simulate(artifact.tree(), BENCHMARK, "train"),
        artifact_id=artifact.artifact_id)
    return {"baseline": baseline, "deployed": deployed}


class TestHealthAndMetrics:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["capacity"] == 32
        assert health["workers"] == 4

    def test_metrics_shape(self, client):
        metrics = client.metrics()
        assert metrics["schema"] == 1
        assert {"queue", "requests", "codegen_cache", "obs"} <= set(metrics)
        assert metrics["queue"]["capacity"] == 32

    def test_requests_are_counted(self, server, client):
        client.health()
        assert server.request_counters.get("200", 0) > 0


class TestByteIdentity:
    def test_evaluate_matches_direct_library_call(self, client,
                                                  direct_payloads):
        served = client.evaluate(BENCHMARK, case="hyperblock")
        assert canonical(served) == canonical(direct_payloads["baseline"])

    def test_evaluate_under_artifact_matches_direct(self, client, store,
                                                    direct_payloads):
        _, artifact = store
        served = client.evaluate(BENCHMARK,
                                 artifact=artifact.artifact_id[:10])
        assert canonical(served) == canonical(direct_payloads["deployed"])

    def test_run_evaluate_agrees_with_server(self, store, direct_payloads):
        """The handler the server calls is the same function — pin it."""
        registry, artifact = store
        payload = run_evaluate(
            {"benchmark": BENCHMARK, "artifact": artifact.short_id},
            HarnessPool(), registry=registry)
        assert canonical(payload) == canonical(direct_payloads["deployed"])

    def test_eight_concurrent_clients_byte_identical(self, server,
                                                     direct_payloads):
        expected = canonical(direct_payloads["baseline"])
        results = [None] * 8
        errors = []

        def worker(slot):
            try:
                mine = ServeClient(server.url, timeout=60.0, retries=8)
                results[slot] = canonical(
                    mine.evaluate(BENCHMARK, case="hyperblock",
                                  timeout=120.0))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert errors == []
        assert all(result == expected for result in results)


class TestCompileEndpoint:
    SOURCE = """
    int main() {
        int i; int total;
        total = 0;
        for (i = 0; i < 8; i = i + 1) { total = total + i; }
        return total;
    }
    """

    def test_compile_static_stats(self, client):
        payload = client.compile(self.SOURCE)
        assert payload["machine"] == "epic"
        assert "main" in payload["functions"]
        assert payload["functions"]["main"]["blocks"] >= 1
        assert payload["artifact"] is None

    def test_compile_and_run(self, client):
        payload = client.compile(self.SOURCE, run=True)
        assert payload["simulation"]["return_value"] == 28
        assert payload["simulation"]["cycles"] > 0

    def test_compile_bad_source_fails_job(self, client):
        with pytest.raises(JobFailed) as excinfo:
            client.compile("int main( {")
        assert excinfo.value.payload["state"] == "failed"


class TestArtifactRoutes:
    def test_list(self, client, store):
        _, artifact = store
        rows = client.artifacts()
        assert [row["artifact_id"] for row in rows] == \
            [artifact.artifact_id]

    def test_get_by_prefix(self, client, store):
        _, artifact = store
        doc = client.artifact(artifact.short_id)
        assert doc["artifact_id"] == artifact.artifact_id
        assert doc["expression"] == artifact.expression

    def test_unknown_artifact_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.artifact("feedfacefeed")
        assert excinfo.value.status == 404


class TestHttpContract:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v2/nothing")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_non_json_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/evaluate", data=b"not json at all",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_non_object_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/evaluate", data=b"[1, 2]",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_oversized_body_413(self, client):
        huge = {"benchmark": BENCHMARK, "pad": "x" * (MAX_BODY_BYTES + 1)}
        with pytest.raises(ServeError) as excinfo:
            client.submit("evaluate", huge)
        assert excinfo.value.status == 413

    def test_bad_benchmark_fails_job_not_server(self, client):
        with pytest.raises(JobFailed):
            client.evaluate("no-such-benchmark")
        assert client.health()["status"] == "ok"


class TestKeptConnections:
    """What a client that keeps its connection relies on."""

    @pytest.fixture()
    def toy_server(self):
        srv = ReproServer(port=0, workers=1, capacity=4,
                          handler=lambda kind, params: {})
        srv.start()
        yield srv
        srv.drain(timeout=10.0)

    def test_accepted_socket_has_nagle_off(self, toy_server):
        """Headers and body leave in two writes; with Nagle on, every
        reply on a kept connection waits out a delayed ACK."""
        accepted = []
        accept = toy_server.httpd.get_request

        def recording_accept():
            request, address = accept()
            accepted.append(request)
            return request, address

        toy_server.httpd.get_request = recording_accept
        conn = http.client.HTTPConnection(toy_server.host, toy_server.port,
                                          timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            # the reply is in, so the handler has set the socket up
            assert accepted[0].getsockopt(socket.IPPROTO_TCP,
                                          socket.TCP_NODELAY)
        finally:
            conn.close()

    @pytest.mark.parametrize("status, path, declared, draining", [
        (405, "/healthz", None, False),
        (404, "/v1/no-such-route", None, False),
        (413, "/v1/evaluate", MAX_BODY_BYTES + 1, False),
        (503, "/v1/evaluate-batch", None, True),
    ])
    def test_error_reply_does_not_poison_the_connection(
            self, toy_server, status, path, declared, draining):
        """An error sent before the body is read must not leave the
        body in the socket to be parsed as the next request."""
        body = json.dumps({"benchmark": BENCHMARK}).encode()
        if draining:
            toy_server._draining.set()
        conn = http.client.HTTPConnection(toy_server.host, toy_server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(declared or len(body)))
            conn.endheaders(body)
            response = conn.getresponse()
            error = json.loads(response.read())
            assert response.status == status
            assert error["ok"] is False and error["schema"] == 1
            # same connection object: http.client re-opens it only if
            # the server announced ``Connection: close``
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Content-Type"] == "application/json"
            assert json.loads(response.read())["status"] == (
                "draining" if draining else "ok")
        finally:
            conn.close()
            toy_server._draining.clear()

    def test_malformed_content_length_is_400_and_closes(self, toy_server):
        conn = http.client.HTTPConnection(toy_server.host, toy_server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/evaluate")
            conn.putheader("Content-Length", "-5")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            assert json.loads(response.read())["ok"] is False
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# Injected-handler servers: backpressure, timeout, cancel, drain.
# ---------------------------------------------------------------------------

@pytest.fixture()
def gated_server():
    gate = threading.Event()
    srv = ReproServer(port=0, workers=1, capacity=1,
                      handler=lambda kind, params: gate.wait(30) and {})
    srv.start()
    yield srv, gate
    gate.set()
    srv.drain(timeout=10.0)


def saturate(server, gate_depth=1):
    """Fill the worker and the queue; returns the raw submit URL."""
    client = ServeClient(server.url, retries=0)
    client.submit("evaluate", {})  # occupies the single worker
    wait_until(lambda: server.queue.stats()["running"], "a running job")
    client.submit("evaluate", {})  # fills capacity-1 queue
    return server.url + "/v1/evaluate"


class TestBackpressure:
    def test_queue_full_sheds_429_with_retry_after(self, gated_server):
        srv, _ = gated_server
        url = saturate(srv)
        request = urllib.request.Request(
            url, data=b"{}", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        body = json.loads(excinfo.value.read())
        assert "capacity" in body["error"]

    def test_client_gives_up_with_server_busy(self, gated_server):
        srv, _ = gated_server
        saturate(srv)
        impatient = ServeClient(srv.url, retries=1, backoff=0.01,
                                sleep=lambda s: None)
        with pytest.raises(ServerBusy):
            impatient.submit("evaluate", {})
        assert impatient.retry_count == 1

    def test_client_retry_succeeds_once_queue_drains(self, gated_server):
        srv, gate = gated_server
        saturate(srv)
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            gate.set()  # free the worker so the queue drains
            time.sleep(0.05)

        patient = ServeClient(srv.url, retries=8, backoff=0.01,
                              sleep=sleep)
        submitted = patient.submit("evaluate", {})
        assert submitted["state"] == "queued"
        # the first backoff honoured the server's Retry-After hint (>=1s)
        assert slept[0] >= 1.0

    def test_draining_server_answers_503(self):
        srv = ReproServer(port=0, workers=1, capacity=4,
                          handler=lambda kind, params: {})
        srv.start()
        try:
            assert srv.queue.drain(timeout=5.0)  # queue only; HTTP stays up
            request = urllib.request.Request(
                srv.url + "/v1/evaluate", data=b"{}", method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] == "5"
        finally:
            srv.drain(timeout=5.0)


class TestJobLifecycleOverHttp:
    def test_job_timeout_reported(self):
        srv = ReproServer(
            port=0, workers=1, capacity=4, job_timeout=0.05,
            handler=lambda kind, params: time.sleep(0.2) or {"late": True})
        srv.start()
        try:
            client = ServeClient(srv.url)
            submitted = client.submit("evaluate", {})
            job = client.wait(submitted["job_id"], timeout=10.0)
            assert job["state"] == "timeout"
            assert job["result"] is None
            with pytest.raises(JobFailed):
                client.run("evaluate", {}, timeout=10.0)
        finally:
            srv.drain(timeout=10.0)

    def test_cancel_queued_job_over_http(self, gated_server):
        srv, gate = gated_server
        client = ServeClient(srv.url, retries=0)
        client.submit("evaluate", {})
        wait_until(lambda: srv.queue.stats()["running"], "a running job")
        queued = client.submit("evaluate", {})
        cancelled = client.cancel(queued["job_id"])
        assert cancelled["cancelled"] is True
        assert client.job(queued["job_id"])["state"] == "cancelled"
        # cancelling a finished job is refused, not an error
        gate.set()
        client.wait(queued["job_id"], timeout=5.0)
        assert client.cancel(queued["job_id"])["cancelled"] is False


class TestGracefulDrain:
    def test_drain_is_idempotent(self):
        srv = ReproServer(port=0, workers=1, capacity=4,
                          handler=lambda kind, params: {})
        srv.start()
        assert srv.drain(timeout=5.0) is True
        assert srv.drain(timeout=5.0) is True
        assert srv.health_payload()["status"] == "draining"

    @pytest.mark.slow
    def test_sigterm_drains_in_flight_jobs(self, tmp_path):
        """`repro serve` under SIGTERM: finish the in-flight job, log
        final metrics, exit 0."""
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_ARTIFACT_STORE=str(tmp_path / "store"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--drain-timeout", "120"],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on http://")
            url = banner.split()[2]
            client = ServeClient(url, timeout=30.0)
            submitted = client.submit(
                "evaluate", {"benchmark": BENCHMARK,
                             "case": "hyperblock"})
            assert submitted["state"] == "queued"
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=180)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, stderr
        assert "serve: drained" in stderr
        metrics_line = next(line for line in stderr.splitlines()
                            if line.startswith("serve: final metrics "))
        final = json.loads(metrics_line[len("serve: final metrics "):])
        # the job submitted just before SIGTERM still ran to completion
        assert final["done"] == 1
        assert final["depth"] == 0 and final["running"] == 0

    @pytest.mark.slow
    def test_sigterm_drains_mid_campaign_generation(self, tmp_path):
        """SIGTERM while an autopilot campaign is under way: the
        in-flight generation finishes and checkpoints, queued campaign
        steps are shed, interactive jobs complete, and the daemon
        exits 0 with the campaign in a consistent state on disk."""
        from repro.gp.parse import unparse
        from repro.metaopt.baselines import BASELINE_TREES
        from repro.serve.registry import ArtifactRegistry

        registry = ArtifactRegistry(tmp_path / "store")
        baseline_expr = unparse(BASELINE_TREES["hyperblock"]())
        bad = build_artifact(
            case="hyperblock",
            expression=f"(sub 0.0000 {baseline_expr})",
            machine=DEFAULT_EPIC,
            training_config={"mode": "manual"}, metrics={},
            created_at=1.0)
        registry.save(bad)
        registry.set_channel("hyperblock", DEFAULT_EPIC.name, "stable",
                             bad.artifact_id)
        config_path = tmp_path / "autopilot.json"
        config_path.write_text(json.dumps({
            "sample_rate": 1.0, "window_size": 8, "window_min": 3,
            "threshold": 0.999, "canary_fraction": 1.0,
            "min_pairs": 3, "max_pairs": 8, "alpha": 0.125,
            "population": 8, "generations": 12, "gp_seed": 11,
        }))
        state_dir = tmp_path / "autopilot"
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_ARTIFACT_STORE=str(tmp_path / "store"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--drain-timeout", "120",
             "--autopilot", str(state_dir),
             "--autopilot-config", str(config_path)],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on http://")
            url = banner.split()[2]
            client = ServeClient(url, timeout=60.0)
            # trip the monitor: three losing benchmarks at rate 1.0
            for bench in ("diamond-join", "023.eqntott", "codrle4"):
                client.evaluate(bench, case="hyperblock",
                                channel="stable", timeout=120.0)
            campaigns = wait_until(
                lambda: client.autopilot_status()["campaigns"],
                "a campaign to start", timeout=60.0)
            name = campaigns[0]["name"]
            checkpoint = state_dir / "campaigns" / name / "checkpoint.pkl"
            wait_until(checkpoint.exists, "the first checkpoint",
                       timeout=60.0)
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=180)
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        assert proc.returncode == 0, stderr
        assert "serve: drained" in stderr
        metrics_line = next(line for line in stderr.splitlines()
                            if line.startswith("serve: final metrics "))
        final = json.loads(metrics_line[len("serve: final metrics "):])
        assert final["depth"] == 0 and final["running"] == 0
        assert final["background_depth"] == 0
        # every interactive evaluate completed; only campaign steps
        # were shed by the drain
        assert final["done"] >= 3
        # A real daemon cannot be gated, so the signal lands on either
        # side of the campaign's last generation; both are consistent
        # resting states.  (That a drain *mid-generation* parks the
        # campaign is tests/autopilot/test_loop.py's gated test.)
        record = json.loads(
            (state_dir / "campaigns" / name / "campaign.json")
            .read_text())
        assert record["parent_id"] == bad.artifact_id
        if record["phase"] == "evolving":
            # parked resumably: the checkpoint loads
            from repro.experiments.checkpoint import load_checkpoint

            assert load_checkpoint(checkpoint)["engine"]["generation"] >= 1
        else:
            assert record["phase"] == "canary"
            assert registry.get_channel(
                "hyperblock", DEFAULT_EPIC.name,
                "canary") == record["champion_id"]
            assert registry.load(record["champion_id"]).parent_id \
                == bad.artifact_id
