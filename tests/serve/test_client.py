"""``ServeClient``, the one HTTP client under ``src/repro``: the wire
calls the fleet makes against a real in-process :class:`ReproServer`,
and the transport rules (one kept connection, one lock, what is and is
not a retry) against scripted stand-ins."""

import ast
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.gp.parse import unparse
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.serve.client import ServeClient, ServeError, ServerBusy
from repro.serve.server import ReproServer

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

BENCHMARK = "codrle4"


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(port=0, workers=1, capacity=4)
    srv.start()
    yield srv
    srv.drain(timeout=30.0)


@pytest.fixture()
def client(server):
    """Built as the fleet builds its per-worker client: a bare
    ``host:port`` and no retries of its own."""
    client = ServeClient(f"{server.host}:{server.port}", timeout=60.0,
                         retries=0)
    yield client
    client.close()


def batch_payload(**extra):
    return {
        "schema": 1, "case": "hyperblock", "dataset": "train",
        "settings": {},
        "items": [{"index": 4,
                   "tree": unparse(BASELINE_TREES["hyperblock"]()),
                   "benchmark": BENCHMARK}],
        **extra,
    }


class TestWireCalls:
    def test_health_and_capabilities(self, client):
        assert client.health()["status"] == "ok"
        caps = client.capabilities()
        assert caps["schema"] == 1
        assert "POST /v1/evaluate-batch" in caps["endpoints"]

    def test_rejection_carries_status(self, server):
        patient = ServeClient(server.url, retries=3, sleep=pytest.fail)
        with pytest.raises(ServeError) as excinfo:
            patient._request("GET", "/v1/no-such-route")
        assert excinfo.value.status == 404
        assert not isinstance(excinfo.value, ServerBusy)
        assert patient.retry_count == 0

    def test_evaluate_batch_round_trip(self, client):
        expected = EvaluationHarness(case_study("hyperblock")).speedup(
            BASELINE_TREES["hyperblock"](), BENCHMARK, "train")
        records = client.evaluate_batch(batch_payload())
        assert records == [{"index": 4, "ok": True, "value": expected}]

    def test_keep_alive_reuses_one_connection(self, client):
        """Back-to-back batches must not leave the stream dirty — the
        second request rides the same socket."""
        client.evaluate_batch(batch_payload())
        first_socket = client._conn.sock
        assert first_socket is not None
        client.evaluate_batch(batch_payload())
        assert client._conn.sock is first_socket

    def test_fatal_in_band_record_is_permanent(self, server):
        patient = ServeClient(server.url, retries=3, sleep=pytest.fail)
        with pytest.raises(ServeError, match="fingerprint") as excinfo:
            patient.evaluate_batch(
                batch_payload(fingerprint={"pipeline": "bogus"}))
        assert not isinstance(excinfo.value, ServerBusy)
        # the stream was drained: the connection is still the kept one
        kept = patient._conn.sock
        assert kept is not None
        patient.health()
        assert patient._conn.sock is kept


# ---------------------------------------------------------------------------
# Transport rules, against scripted servers.
# ---------------------------------------------------------------------------

class Scripted:
    """An HTTP/1.1 server whose every request is answered by
    ``respond(handler)``; counts the connections it accepted."""

    def __init__(self, respond):
        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, format, *args):  # noqa: A002
                pass

            def reply(self, status, payload, headers=()):
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                respond(self)

            def do_POST(self):  # noqa: N802
                self.rfile.read(int(self.headers["Content-Length"]))
                respond(self)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.connections = 0
        accept = self.httpd.get_request

        def counting_accept():
            self.connections += 1
            return accept()

        self.httpd.get_request = counting_accept
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5.0)


class TestTransport:
    def test_shared_client_gives_each_thread_its_own_reply(self):
        """Eight threads, one client, one connection: without the lock
        around an exchange, replies cross between callers."""
        srv = ReproServer(port=0, workers=2, capacity=32,
                          handler=lambda kind, params: params)
        srv.start()
        shared = ServeClient(srv.url, timeout=30.0)
        wrong, errors = [], []

        def caller(who):
            try:
                for serial in range(10):
                    mine = {"who": who, "serial": serial}
                    if shared.run("evaluate", mine) != mine:
                        wrong.append(mine)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(who,))
                       for who in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            shared.close()
            srv.drain(timeout=10.0)
        assert errors == [] and wrong == []
        assert shared.retry_count == 0

    def test_connection_closed_by_server_is_reopened_without_a_retry(self):
        """The server hangs up after every reply without saying so; the
        next request finds a dead socket.  That is not a failure of the
        request: no sleep, nothing in ``retry_count`` (which the
        bench's ``S.shed_429`` reads)."""
        def respond(handler):
            handler.reply(200, {"status": "ok"})
            handler.close_connection = True

        with Scripted(respond) as scripted:
            client = ServeClient(scripted.url, sleep=pytest.fail)
            for _ in range(3):
                assert client.health() == {"status": "ok"}
            assert client.retry_count == 0
            assert scripted.connections == 3

    def test_retry_after_reaches_the_caller_as_a_number(self):
        statuses = [429, 503, 503]

        def respond(handler):
            handler.reply(statuses.pop(0), {"ok": False, "error": "full"},
                          headers=[("Retry-After", "7")])

        with Scripted(respond) as scripted:
            client = ServeClient(scripted.url, retries=0)
            with pytest.raises(ServerBusy) as excinfo:
                client.health()
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 7.0
            slept = []
            patient = ServeClient(scripted.url, retries=1, max_backoff=60.0,
                                  sleep=slept.append)
            with pytest.raises(ServerBusy) as excinfo:
                patient.health()
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after == 7.0
            assert slept == [7.0] and patient.retry_count == 1

    def test_connection_refused_is_busy_without_a_status(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        client = ServeClient(f"http://127.0.0.1:{port}", retries=2,
                             sleep=lambda seconds: None)
        with pytest.raises(ServerBusy) as excinfo:
            client.health()
        assert excinfo.value.status is None
        assert excinfo.value.retry_after is None
        assert client.retry_count == 2

    def test_stream_without_done_marker_is_a_transport_failure(self):
        def respond(handler):
            body = b'{"index": 0, "ok": true, "value": 1.0}\n'
            handler.send_response(200)
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)

        with Scripted(respond) as scripted:
            client = ServeClient(scripted.url, retries=0)
            with pytest.raises(ServerBusy, match="done marker") as excinfo:
                client.evaluate_batch({"items": []})
            assert excinfo.value.status is None


def test_serve_client_is_the_only_http_client_in_src():
    """The next transport feature extends ``ServeClient``; it does not
    grow a second client somewhere else."""
    importers = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{alias.name}"
                          for alias in node.names]
            else:
                continue
            if any(name in ("http.client", "urllib.request")
                   or name.startswith(("http.client.", "urllib.request."))
                   for name in names):
                importers.add(path.relative_to(SRC).as_posix())
    assert importers == {"serve/client.py"}
