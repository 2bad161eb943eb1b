"""The serving daemon: a zero-dependency compile/evaluate HTTP service.

``repro serve`` runs a :class:`ThreadingHTTPServer` JSON API in front
of the bounded :class:`~repro.serve.jobs.JobQueue`:

==============================  =========================================
``GET  /v1/capabilities``       schema version + supported endpoints
``POST /v1/evaluate-batch``     synchronous batched fitness evaluation,
                                streamed as NDJSON (the fleet protocol)
``POST /v1/compile``            enqueue a MiniC compile (``202`` + job id)
``POST /v1/evaluate``           enqueue a benchmark simulation, baseline
                                or under a deployed artifact
``GET  /v1/jobs/<id>``          poll a job's state and result
``POST /v1/jobs/<id>/cancel``   cancel a queued or in-flight job
``GET  /v1/artifacts``          list the artifact store
``GET  /v1/artifacts/<id>``     one artifact document
``GET  /v1/artifacts/<id>/lineage``  ancestry chain via ``parent_id``
``GET  /v1/channels``           every (case, machine) deployment track
``GET  /v1/channels/<case>/<machine>``  one track's pointers + log
``POST /v1/channels/<case>/<machine>``  point stable/canary at an artifact
``POST /v1/channels/<case>/<machine>/promote``   canary → stable
``POST /v1/channels/<case>/<machine>/rollback``  discard the canary
``GET  /v1/autopilot/status``   the self-improvement loop's live state
``GET  /healthz``               liveness + queue depth (``ok``/``draining``)
``GET  /metrics``               server/queue counters + repro.obs snapshot
==============================  =========================================

Every error — 400/404/405/409/413/429/500/503 — is one structured JSON
shape, ``{"schema": 1, "ok": false, "error": "..."}``, and every
backpressure path (429 full queue, 429 saturated batch lanes, 503
draining) carries ``Retry-After``.  A known path hit with the wrong
method answers ``405`` with an ``Allow`` header.  Overload never blocks
or grows the queue: a full queue answers ``429``, an oversized body
``413``.  Connections are kept alive: a request's body is read before
it is routed, so no error reply leaves it in the socket, and a body
that will not be read closes the connection.  ``SIGTERM``/``SIGINT``
trigger a graceful drain — stop accepting, finish every in-flight and
queued job, flush a final metrics snapshot — before the process
exits.  Request handling rides
:mod:`repro.obs`: every request is a ``serve:request`` span and a
``serve.requests.*`` counter.

See ``docs/SERVING.md`` for the full API reference and curl examples,
and ``docs/FLEET.md`` for how ``/v1/evaluate-batch`` powers the
distributed evolution fleet.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import obs
from repro.serve.jobs import (
    HarnessPool,
    JobQueue,
    QueueFull,
    run_compile,
    run_evaluate,
    run_evaluate_batch,
)

#: Largest request body accepted (bytes) — beyond this is a 413.
MAX_BODY_BYTES = 1 << 20

#: How long the reply to a body the daemon refused to read (413, bad
#: ``Content-Length``) keeps discarding that body before it closes.
LINGER_SECONDS = 2.0

#: API version prefix of every resource route.
API_PREFIX = "/v1"

#: Version of the HTTP API schema advertised by ``/v1/capabilities``
#: and stamped on every response body.
API_SCHEMA = 1

#: Endpoints advertised by ``/v1/capabilities``.
ENDPOINTS = (
    "GET /v1/capabilities",
    "POST /v1/evaluate-batch",
    "POST /v1/evaluate",
    "POST /v1/compile",
    "GET /v1/jobs/<id>",
    "POST /v1/jobs/<id>/cancel",
    "GET /v1/artifacts",
    "GET /v1/artifacts/<id>",
    "GET /v1/artifacts/<id>/lineage",
    "GET /v1/channels",
    "GET /v1/channels/<case>/<machine>",
    "POST /v1/channels/<case>/<machine>",
    "POST /v1/channels/<case>/<machine>/promote",
    "POST /v1/channels/<case>/<machine>/rollback",
    "GET /v1/autopilot/status",
    "GET /healthz",
    "GET /metrics",
)


class _ApiError(Exception):
    """An error with a fixed HTTP status, rendered as the structured
    JSON error shape."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ReproServer:
    """The daemon: HTTP front, job queue, warm workers, drain logic."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        capacity: int = 16,
        job_timeout: float | None = None,
        registry=None,
        fitness_cache_dir: str | None = None,
        handler=None,
        batch_concurrency: int = 4,
        autopilot_config=None,
    ) -> None:
        if batch_concurrency < 1:
            raise ValueError("batch_concurrency must be >= 1")
        self.registry = registry
        self.harness_pool = HarnessPool(fitness_cache_dir=fitness_cache_dir)
        #: bounds concurrent ``/v1/evaluate-batch`` streams; a request
        #: that cannot get a lane immediately is shed with 429 rather
        #: than queued (the fleet coordinator retries with backoff)
        self.batch_concurrency = batch_concurrency
        self._batch_lanes = threading.Semaphore(batch_concurrency)
        self.queue = JobQueue(
            handler=handler if handler is not None else self._execute,
            workers=workers,
            capacity=capacity,
            job_timeout=job_timeout,
        )
        #: the self-improvement loop (docs/AUTOPILOT.md), or None
        self.autopilot = None
        if autopilot_config is not None:
            from repro.autopilot import Autopilot

            if registry is None:
                raise ValueError(
                    "the autopilot requires an artifact registry")
            self.autopilot = Autopilot(
                autopilot_config,
                registry=registry,
                harness_pool=self.harness_pool,
                submit=self.queue.submit,
                current_job=self.queue.current_job,
            )
            # re-enqueue campaigns a previous daemon left mid-evolution
            self.autopilot.recover()
        self.request_counters: dict[str, int] = {}
        self._counter_lock = threading.Lock()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._serve_thread: threading.Thread | None = None
        handler_cls = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler_cls)
        self.httpd.daemon_threads = True

    # -- addresses -------------------------------------------------------
    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- job execution ---------------------------------------------------
    def _execute(self, kind: str, params: dict) -> dict:
        with obs.span(f"serve:job:{kind}"):
            if kind == "evaluate":
                router = (self.autopilot.canary_router
                          if self.autopilot is not None else None)
                payload = run_evaluate(params, self.harness_pool,
                                       registry=self.registry,
                                       canary_router=router)
                if self.autopilot is not None:
                    try:
                        self.autopilot.observe_evaluation(params, payload)
                        self.autopilot.kick_stalled()
                    except Exception as exc:  # noqa: BLE001 — the
                        # evaluate result is good; a monitor hiccup
                        # must not fail the interactive job
                        obs.inc("autopilot.observe_errors")
                        print(f"autopilot: observation failed: {exc}",
                              file=sys.stderr)
                return payload
            if kind == "compile":
                return run_compile(params, registry=self.registry)
            if kind == "autopilot-step":
                if self.autopilot is None:
                    raise ValueError("the autopilot is not enabled")
                return self.autopilot.campaign_step(params)
            raise ValueError(f"unknown job kind {kind!r}")

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Serve in a background thread (tests, in-process embedding)."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http", daemon=True)
        self._serve_thread.start()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: refuse new jobs, finish in-flight ones,
        stop the HTTP listener.  Idempotent; returns True when every
        job finished within ``timeout``."""
        already = self._draining.is_set()
        self._draining.set()
        if already:
            self._drained.wait(timeout=timeout)
            return self._drained.is_set()
        if self.autopilot is not None:
            # stop re-enqueueing campaign steps *before* the queue
            # drain cancels the queued ones, or a running step would
            # immediately replace its cancelled successor
            self.autopilot.begin_drain()
        drained = self.queue.drain(timeout=timeout)
        if self.autopilot is not None:
            self.autopilot.finish_drain()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._drained.set()
        return drained

    def serve_forever(self, drain_timeout: float | None = None) -> int:
        """Blocking entry point of ``repro serve``: installs SIGTERM /
        SIGINT handlers that trigger a graceful drain."""
        stop = threading.Event()

        def request_drain(signum, frame):
            stop.set()

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, request_drain)
        self.start()
        try:
            stop.wait()
            print("serve: drain requested — finishing in-flight jobs",
                  file=sys.stderr)
            drained = self.drain(timeout=drain_timeout)
            snapshot = self.metrics_payload()
            print("serve: final metrics "
                  + json.dumps(snapshot["queue"], sort_keys=True),
                  file=sys.stderr)
            print("serve: drained" if drained
                  else "serve: drain timed out with jobs unfinished",
                  file=sys.stderr)
            return 0 if drained else 1
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)

    # -- introspection ---------------------------------------------------
    def count_request(self, key: str) -> None:
        with self._counter_lock:
            self.request_counters[key] = (
                self.request_counters.get(key, 0) + 1)
        obs.inc(f"serve.requests.{key}")

    def health_payload(self) -> dict:
        stats = self.queue.stats()
        return {
            "status": "draining" if self._draining.is_set() else "ok",
            "queue_depth": stats["depth"],
            "running": stats["running"],
            "capacity": stats["capacity"],
            "workers": stats["workers"],
        }

    def capabilities_payload(self) -> dict:
        from repro import __version__
        from repro.metaopt.fitness_cache import pipeline_fingerprint

        return {
            "schema": API_SCHEMA,
            "ok": True,
            "server": "repro-serve",
            "version": __version__,
            "endpoints": list(ENDPOINTS),
            "batch_concurrency": self.batch_concurrency,
            "pipeline_fingerprint": pipeline_fingerprint(),
            "max_body_bytes": MAX_BODY_BYTES,
        }

    def metrics_payload(self) -> dict:
        from repro.machine.sim import codegen_cache_stats

        registry = obs.metrics()
        return {
            "schema": 1,
            "queue": self.queue.stats(),
            "requests": dict(sorted(self.request_counters.items())),
            "codegen_cache": codegen_cache_stats(),
            "obs": registry.snapshot() if registry is not None else None,
        }


def _make_handler(server: ReproServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body leave in two writes; with Nagle on, the
        # second waits out the client's delayed ACK (44 ms a reply on
        # every kept connection).
        disable_nagle_algorithm = True
        # Quiet by default; errors still reach the error log.
        def log_message(self, format, *args):  # noqa: A002
            pass

        # -- plumbing ----------------------------------------------------
        def _send_json(self, status: int, payload: dict,
                       headers: dict | None = None) -> None:
            body = (json.dumps(payload, indent=2, sort_keys=True)
                    + "\n").encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
            server.count_request(str(status))

        def _receive_body(self) -> bytes:
            """Take the declared body off the socket before routing: an
            error reply (405, 404, a draining 503) that left it there
            would have it parsed as the next request of a kept
            connection.  A body that will not be read ends the
            connection instead."""
            declared = self.headers.get("Content-Length") or "0"
            if not declared.isdecimal():
                raise _ApiError(400, f"bad Content-Length {declared!r}",
                                headers={"Connection": "close"})
            length = int(declared)
            if length > MAX_BODY_BYTES:
                raise _ApiError(
                    413, f"request body {length} bytes exceeds the "
                         f"{MAX_BODY_BYTES}-byte limit",
                    headers={"Connection": "close"})
            return self.rfile.read(length)

        def _discard_refused_body(self) -> None:
            """A client reads the refusal only after sending its last
            byte, and closing on unread bytes resets the connection
            under it (``EPIPE`` instead of the reply): swallow what
            arrives until the client hangs up, goes quiet or the linger
            runs out."""
            self.connection.settimeout(LINGER_SECONDS)
            deadline = time.monotonic() + LINGER_SECONDS
            try:
                while (time.monotonic() < deadline
                       and self.rfile.read1(1 << 16)):
                    pass
            except OSError:
                pass

        def _read_body(self) -> dict:
            if not self._body:
                return {}
            try:
                data = json.loads(self._body)
            except ValueError as exc:
                raise _ApiError(400, f"request body is not JSON: {exc}")
            if not isinstance(data, dict):
                raise _ApiError(400, "request body must be a JSON object")
            return data

        def _submit(self, kind: str) -> None:
            params = self._read_body()
            try:
                job = server.queue.submit(kind, params)
            except QueueFull as exc:
                raise _ApiError(
                    429, str(exc),
                    headers={"Retry-After":
                             f"{max(1, round(exc.retry_after))}"})
            except RuntimeError as exc:
                raise _ApiError(503, str(exc),
                                headers={"Retry-After": "5"})
            self._send_json(202, {
                "job_id": job.id,
                "state": job.state,
                "href": f"{API_PREFIX}/jobs/{job.id}",
            })

        # -- routing -----------------------------------------------------
        def _dispatch(self, method: str, path: str) -> None:
            if path == "/healthz":
                self._allow(method, "GET")
                self._send_json(200, server.health_payload())
            elif path == "/metrics":
                self._allow(method, "GET")
                self._send_json(200, server.metrics_payload())
            elif path == f"{API_PREFIX}/capabilities":
                self._allow(method, "GET")
                self._send_json(200, server.capabilities_payload())
            elif path == f"{API_PREFIX}/evaluate-batch":
                self._allow(method, "POST")
                self._evaluate_batch()
            elif path == f"{API_PREFIX}/evaluate":
                self._allow(method, "POST")
                self._submit("evaluate")
            elif path == f"{API_PREFIX}/compile":
                self._allow(method, "POST")
                self._submit("compile")
            elif path == f"{API_PREFIX}/artifacts":
                self._allow(method, "GET")
                if server.registry is None:
                    raise _ApiError(404, "no artifact store configured")
                self._send_json(200, {"artifacts": server.registry.list()})
            elif (path.startswith(f"{API_PREFIX}/artifacts/")
                    and path.endswith("/lineage")):
                self._allow(method, "GET")
                ref = path[len(f"{API_PREFIX}/artifacts/"):
                           -len("/lineage")]
                self._get_lineage(ref)
            elif path.startswith(f"{API_PREFIX}/artifacts/"):
                self._allow(method, "GET")
                self._get_artifact(path[len(f"{API_PREFIX}/artifacts/"):])
            elif path == f"{API_PREFIX}/autopilot/status":
                self._allow(method, "GET")
                self._autopilot_status()
            elif path == f"{API_PREFIX}/channels":
                self._allow(method, "GET")
                if server.registry is None:
                    raise _ApiError(404, "no artifact store configured")
                self._send_json(200, {
                    "schema": API_SCHEMA, "ok": True,
                    "channels": server.registry.channels()})
            elif path.startswith(f"{API_PREFIX}/channels/"):
                self._channels(method,
                               path[len(f"{API_PREFIX}/channels/"):])
            elif (path.startswith(f"{API_PREFIX}/jobs/")
                    and path.endswith("/cancel")):
                self._allow(method, "POST")
                job_id = path[len(f"{API_PREFIX}/jobs/"):-len("/cancel")]
                self._cancel_job(job_id)
            elif path.startswith(f"{API_PREFIX}/jobs/"):
                self._allow(method, "GET")
                self._get_job(path[len(f"{API_PREFIX}/jobs/"):])
            else:
                raise _ApiError(404, f"no route {method} {path}")

        def _allow(self, method: str, allowed: str) -> None:
            """405 (with ``Allow``) for a known path, wrong method."""
            if method != allowed:
                raise _ApiError(
                    405, f"method {method} not allowed here",
                    headers={"Allow": allowed})

        def _route(self) -> None:
            path = self.path.split("?", 1)[0].rstrip("/")
            method = self.command
            with obs.span("serve:request", method=method, path=path):
                self._dispatch(method, path)

        # -- the fleet protocol ------------------------------------------
        def _evaluate_batch(self) -> None:
            """Synchronous batched evaluation, streamed as NDJSON.

            Validation happens *before* the 200 status line goes out,
            so protocol errors surface as clean 4xx responses; per-item
            evaluation failures after that are streamed in-band as
            ``{"ok": false}`` lines.
            """
            from repro.serve.jobs import parse_evaluate_batch

            if server._draining.is_set():
                raise _ApiError(503, "server is draining",
                                headers={"Retry-After": "5"})
            params = self._read_body()
            try:
                request = parse_evaluate_batch(params)
            except ValueError as exc:
                raise _ApiError(400, str(exc))
            if not server._batch_lanes.acquire(blocking=False):
                obs.inc("serve.batch_shed")
                raise _ApiError(
                    429,
                    f"all {server.batch_concurrency} batch lanes busy",
                    headers={"Retry-After": "1"})
            try:
                with obs.span("serve:batch", items=len(params["items"])):
                    self._stream_batch(params, request)
            finally:
                server._batch_lanes.release()

        def _stream_batch(self, params: dict, request: tuple) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            count = 0
            try:
                try:
                    for item in run_evaluate_batch(params, request,
                                                   server.harness_pool):
                        self._write_chunk(item)
                        count += 1
                except ValueError as exc:
                    # late validation (e.g. fingerprint mismatch): the
                    # status line is gone, so report in-band and end
                    self._write_chunk({"ok": False, "fatal": True,
                                       "error": str(exc)})
                self._write_chunk({"done": True, "count": count})
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                # The coordinator hung up mid-stream (it saw a fatal
                # record, or died).  Nobody is listening — just drop
                # the connection without a traceback.
                self.close_connection = True
                obs.inc("serve.batch_client_gone")
                return
            server.count_request("batch")

        def _write_chunk(self, payload: dict) -> None:
            line = (json.dumps(payload, sort_keys=True) + "\n").encode()
            self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
            self.wfile.flush()

        def _get_artifact(self, ref: str) -> None:
            from repro.serve.artifact import ArtifactError

            if server.registry is None:
                raise _ApiError(404, "no artifact store configured")
            try:
                artifact = server.registry.load(ref)
            except ArtifactError as exc:
                raise _ApiError(404, str(exc))
            self._send_json(200, artifact.to_json_dict())

        def _get_lineage(self, ref: str) -> None:
            from repro.serve.artifact import ArtifactError

            if server.registry is None:
                raise _ApiError(404, "no artifact store configured")
            try:
                chain = server.registry.lineage(ref)
            except ArtifactError as exc:
                raise _ApiError(404, str(exc))
            self._send_json(200, {
                "schema": API_SCHEMA, "ok": True, "lineage": chain})

        def _autopilot_status(self) -> None:
            if server.autopilot is None:
                self._send_json(200, {
                    "schema": API_SCHEMA, "ok": True, "enabled": False})
                return
            self._send_json(200, server.autopilot.status())

        def _channels(self, method: str, rest: str) -> None:
            """The channel-pointer API under /v1/channels/<case>/<machine>:
            GET a track, POST a pointer move, POST <track>/promote or
            <track>/rollback."""
            from repro.serve.artifact import ArtifactError

            if server.registry is None:
                raise _ApiError(404, "no artifact store configured")
            parts = rest.split("/")
            action = None
            if len(parts) == 3 and parts[2] in ("promote", "rollback"):
                case, machine, action = parts
            elif len(parts) == 2:
                case, machine = parts
            else:
                raise _ApiError(404, f"no channels route {rest!r}")
            try:
                if action is not None:
                    self._allow(method, "POST")
                    move = (server.registry.promote(case, machine)
                            if action == "promote"
                            else server.registry.rollback(case, machine))
                    self._send_json(200, {
                        "schema": API_SCHEMA, "ok": True,
                        "action": action, **move})
                elif method == "POST":
                    body = self._read_body()
                    if "channel" not in body:
                        raise _ApiError(400, "body requires 'channel'")
                    move = server.registry.set_channel(
                        case, machine, body["channel"],
                        body.get("artifact"))
                    self._send_json(200, {
                        "schema": API_SCHEMA, "ok": True,
                        "action": "set", **move})
                else:
                    self._allow(method, "GET")
                    track = server.registry.channels().get(
                        f"{case}/{machine}")
                    if track is None:
                        raise _ApiError(
                            404, f"no {case}/{machine} track")
                    self._send_json(200, {
                        "schema": API_SCHEMA, "ok": True, **track})
            except ArtifactError as exc:
                raise _ApiError(409, str(exc))

        def _get_job(self, job_id: str) -> None:
            job = server.queue.get(job_id)
            if job is None:
                raise _ApiError(404, f"unknown job {job_id!r}")
            self._send_json(200, job.to_json_dict())

        def _cancel_job(self, job_id: str) -> None:
            job = server.queue.get(job_id)
            if job is None:
                raise _ApiError(404, f"unknown job {job_id!r}")
            cancelled = server.queue.cancel(job_id)
            self._send_json(200, {
                "job_id": job_id,
                "cancelled": cancelled,
                "cancel_requested": job.cancel_requested,
                "state": job.state,
            })

        def _handle(self) -> None:
            try:
                self._body = self._receive_body()
                self._route()
            except _ApiError as exc:
                self._send_json(
                    exc.status,
                    {"schema": API_SCHEMA, "ok": False, "error": str(exc)},
                    headers=exc.headers)
                if exc.headers.get("Connection") == "close":
                    self._discard_refused_body()
            except Exception as exc:  # noqa: BLE001 — keep serving
                self._send_json(500, {
                    "schema": API_SCHEMA, "ok": False,
                    "error": f"{type(exc).__name__}: {exc}"})

        def do_GET(self) -> None:  # noqa: N802
            self._handle()

        def do_POST(self) -> None:  # noqa: N802
            self._handle()

    return Handler
