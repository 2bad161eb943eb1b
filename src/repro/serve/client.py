"""The one HTTP client of the serving daemon, stdlib only.

``repro submit``, the fleet coordinator (one client per worker, see
:mod:`repro.fleet.evaluator`) and the ``serve-mixed`` workload of
``bench/`` all speak to ``repro serve`` through :class:`ServeClient`.

**Transport.**  A client holds one ``http.client`` connection, opened
on the first request and kept alive (it saves the TCP handshake; the
daemon's warm state belongs to its process, not to the connection).
One lock spans a request and the whole of its response, so a client
shared between threads hands every caller its own reply.  The
connection is dropped (the next request re-opens it) after any
transport error and after a response that was not read to its end.

**What is a retry.**  Connection failures, ``429`` (queue or batch
lanes full) and ``503`` (draining) are retried ``retries`` times with
exponential backoff, honouring the server's ``Retry-After``; when they
run out the caller gets :class:`ServerBusy`, whose ``status`` is the
last HTTP status, or ``None`` when no reply arrived at all.  Any other
error reply raises :class:`ServeError` at once, carrying the server's
JSON error body.  A kept connection that the server closed while it
sat idle is not a failure of the request: it is re-opened once,
immediately, with no sleep and no count in ``retry_count``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time


class ServeError(RuntimeError):
    """A request the server definitively rejected (no retry)."""

    def __init__(self, message: str, status: int | None = None,
                 payload: dict | None = None,
                 retry_after: float | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}
        #: seconds from the reply's ``Retry-After`` header, if it had one
        self.retry_after = retry_after


class ServerBusy(ServeError):
    """Retries exhausted against 429/503/connection failures."""


class JobFailed(ServeError):
    """The job finished in a non-``done`` state."""


#: Statuses worth retrying: shed load (429) and draining (503).
_RETRYABLE = (429, 503)

#: How a kept connection the server closed while it idled fails the
#: next request (``RemoteDisconnected`` is a ``ConnectionResetError``).
_CLOSED_BY_PEER = (ConnectionResetError, ConnectionAbortedError,
                   BrokenPipeError)


def _read_json(response: http.client.HTTPResponse) -> dict:
    return json.loads(response.read() or b"{}")


def _read_batch(response: http.client.HTTPResponse) -> list[dict]:
    """The NDJSON stream of ``/v1/evaluate-batch`` up to its ``done``
    marker.  Reading on to the end of the body (the chunk terminator)
    is what leaves the connection fit for the next request."""
    records: list[dict] = []
    while True:
        line = response.readline()
        if not line:
            raise ConnectionError(
                "batch stream ended without its done marker")
        record = json.loads(line)
        if record.get("done"):
            response.read()
            return records
        if record.get("fatal"):
            # e.g. a fingerprint mismatch found after the 200 went out
            response.read()
            raise ServeError(str(record.get("error")), payload=record)
        records.append(record)


class ServeClient:
    """Thin, dependency-free client over the ``/v1`` JSON API.

    ``base_url`` is ``http://host:port`` or bare ``host:port``.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff: float = 0.1,
        max_backoff: float = 2.0,
        sleep=time.sleep,
    ) -> None:
        self.address = base_url.removeprefix("http://").rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._sleep = sleep
        self.retry_count = 0
        # Constructing the connection opens nothing; the first request
        # connects, and so does the first one after a close().
        self._conn = http.client.HTTPConnection(self.address,
                                                timeout=timeout)
        self._lock = threading.Lock()

    def close(self) -> None:
        """Drop the kept connection; the client stays usable."""
        with self._lock:
            self._conn.close()

    # -- transport -------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None,
                 read=_read_json):
        data = None if body is None else json.dumps(body).encode()
        delay = self.backoff
        for attempt in range(self.retries + 1):
            try:
                return self._exchange(method, path, data, read)
            except ServeError as exc:
                if exc.status not in _RETRYABLE:
                    raise
                failure = exc
                delay = max(delay, exc.retry_after or 0.0)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                failure = exc  # no reply, or one that is not the protocol
            if attempt < self.retries:
                with self._lock:
                    self.retry_count += 1
                self._sleep(min(delay, self.max_backoff))
                delay *= 2
        raise ServerBusy(
            f"{method} {path} failed after {self.retries + 1} attempts: "
            f"{failure}",
            status=getattr(failure, "status", None),
            retry_after=getattr(failure, "retry_after", None)) from failure

    def _exchange(self, method: str, path: str, data: bytes | None, read):
        """One request and the whole of its response, under the lock."""
        with self._lock:
            kept = self._conn.sock is not None
            try:
                response = self._send(method, path, data)
            except _CLOSED_BY_PEER:
                if not kept:
                    raise
                response = self._send(method, path, data)
            try:
                if response.status >= 400:
                    raise self._rejection(response)
                return read(response)
            finally:
                if not response.isclosed():
                    # unread bytes would be taken for the next reply
                    self._conn.close()

    def _send(self, method: str, path: str,
              data: bytes | None) -> http.client.HTTPResponse:
        headers = {"Accept": "application/json"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=data, headers=headers)
            return self._conn.getresponse()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            raise

    @staticmethod
    def _rejection(response: http.client.HTTPResponse) -> ServeError:
        try:
            payload = json.loads(response.read() or b"{}")
        except ValueError:
            payload = {}
        if not isinstance(payload, dict):
            payload = {}
        try:
            retry_after = float(response.headers.get("Retry-After"))
        except (TypeError, ValueError):
            retry_after = None
        return ServeError(
            payload.get("error", f"HTTP {response.status}"),
            status=response.status, payload=payload,
            retry_after=retry_after)

    # -- API surface -----------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def capabilities(self) -> dict:
        """``GET /v1/capabilities``: schema version, endpoint list,
        batch concurrency, pipeline fingerprint."""
        return self._request("GET", "/v1/capabilities")

    def evaluate_batch(self, payload: dict) -> list[dict]:
        """``POST /v1/evaluate-batch``: send one batch, read its NDJSON
        stream to the end, return the per-item records (a fleet shard
        is a slice of one generation, so buffering it is free).  An
        in-band ``fatal`` record raises a permanent
        :class:`ServeError`; a stream cut short is a transport failure.
        """
        return self._request("POST", "/v1/evaluate-batch", body=payload,
                             read=_read_batch)

    def artifacts(self) -> list[dict]:
        return self._request("GET", "/v1/artifacts")["artifacts"]

    def artifact(self, ref: str) -> dict:
        return self._request("GET", f"/v1/artifacts/{ref}")

    def lineage(self, ref: str) -> list[dict]:
        """``GET /v1/artifacts/<ref>/lineage``: ancestry chain,
        artifact first then parents."""
        return self._request(
            "GET", f"/v1/artifacts/{ref}/lineage")["lineage"]

    def channels(self) -> dict:
        """Every (case, machine) deployment track."""
        return self._request("GET", "/v1/channels")["channels"]

    def channel_track(self, case: str, machine: str) -> dict:
        return self._request("GET", f"/v1/channels/{case}/{machine}")

    def set_channel(self, case: str, machine: str, channel: str,
                    artifact: str | None) -> dict:
        """Point a track's ``stable``/``canary`` at an artifact (or
        clear it with ``artifact=None``)."""
        return self._request(
            "POST", f"/v1/channels/{case}/{machine}",
            body={"channel": channel, "artifact": artifact})

    def promote(self, case: str, machine: str) -> dict:
        """Atomically make the track's canary the new stable."""
        return self._request(
            "POST", f"/v1/channels/{case}/{machine}/promote")

    def rollback(self, case: str, machine: str) -> dict:
        """Atomically discard the track's canary."""
        return self._request(
            "POST", f"/v1/channels/{case}/{machine}/rollback")

    def autopilot_status(self) -> dict:
        return self._request("GET", "/v1/autopilot/status")

    def submit(self, kind: str, params: dict) -> dict:
        """Enqueue a job; returns ``{job_id, state, href}``."""
        return self._request("POST", f"/v1/{kind}", body=params)

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state (or raise
        :class:`TimeoutError`); returns the final job document.

        The pause doubles from ``poll / 16`` up to ``poll``: on a kept
        connection the first poll lands a fraction of a millisecond
        after the ``202``, before even a memoised job is done, and a
        flat 50 ms pause would then be the whole latency of a 5 ms job.
        """
        deadline = time.monotonic() + timeout
        pause = poll / 16
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled", "timeout"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s")
            self._sleep(pause)
            pause = min(2 * pause, poll)

    # -- conveniences ----------------------------------------------------
    def run(self, kind: str, params: dict, timeout: float = 60.0) -> dict:
        """Submit, wait, and return the job's ``result`` payload;
        raises :class:`JobFailed` on any non-``done`` outcome."""
        submitted = self.submit(kind, params)
        job = self.wait(submitted["job_id"], timeout=timeout)
        if job["state"] != "done":
            raise JobFailed(
                f"job {job['id']} ended {job['state']}: {job['error']}",
                payload=job)
        return job["result"]

    def evaluate(self, benchmark: str, case: str | None = None,
                 dataset: str = "train", artifact: str | None = None,
                 channel: str | None = None, noise: float = 0.0,
                 timeout: float = 60.0) -> dict:
        params: dict = {"benchmark": benchmark, "dataset": dataset}
        if case is not None:
            params["case"] = case
        if artifact is not None:
            params["artifact"] = artifact
        if channel is not None:
            params["channel"] = channel
        if noise:
            params["noise"] = noise
        return self.run("evaluate", params, timeout=timeout)

    def compile(self, source: str, machine: str = "epic",
                artifact: str | None = None, run: bool = False,
                inputs: dict | None = None,
                timeout: float = 60.0) -> dict:
        params: dict = {"source": source, "machine": machine}
        if artifact is not None:
            params["artifact"] = artifact
        if run:
            params["run"] = True
        if inputs:
            params["inputs"] = inputs
        return self.run("compile", params, timeout=timeout)
