"""Stdlib HTTP client for the serving daemon.

Used by ``repro submit`` and the ``serve-mixed`` workload of
``bench/``.  Transient failures — connection refused, ``429`` (queue
full), ``503`` (draining) — are retried with exponential backoff,
honouring the server's ``Retry-After`` hint when present; anything else
raises :class:`ServeError` carrying the server's JSON error body.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request


class ServeError(RuntimeError):
    """A request the server definitively rejected (no retry)."""

    def __init__(self, message: str, status: int | None = None,
                 payload: dict | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServerBusy(ServeError):
    """Retries exhausted against 429/503/connection failures."""


class JobFailed(ServeError):
    """The job finished in a non-``done`` state."""


#: Statuses worth retrying: shed load (429) and draining (503).
_RETRYABLE = (429, 503)


class ServeClient:
    """Thin, dependency-free client over the ``/v1`` JSON API."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 5,
        backoff: float = 0.1,
        max_backoff: float = 2.0,
        sleep=time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._sleep = sleep
        self.retry_count = 0

    # -- transport -------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        delay = self.backoff
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=headers,
                method=method)
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    return json.loads(response.read() or b"{}")
            except urllib.error.HTTPError as exc:
                payload = self._error_payload(exc)
                if exc.code not in _RETRYABLE:
                    raise ServeError(
                        payload.get("error", f"HTTP {exc.code}"),
                        status=exc.code, payload=payload)
                last_error = ServeError(
                    payload.get("error", f"HTTP {exc.code}"),
                    status=exc.code, payload=payload)
                retry_after = exc.headers.get("Retry-After")
                if retry_after is not None:
                    try:
                        delay = max(delay, float(retry_after))
                    except ValueError:
                        pass
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError) as exc:
                last_error = exc
            if attempt < self.retries:
                self.retry_count += 1
                self._sleep(min(delay, self.max_backoff))
                delay *= 2
        raise ServerBusy(
            f"{method} {path} failed after {self.retries + 1} attempts: "
            f"{last_error}",
            status=getattr(last_error, "status", None))

    @staticmethod
    def _error_payload(exc: urllib.error.HTTPError) -> dict:
        try:
            payload = json.loads(exc.read() or b"{}")
        except ValueError:
            payload = {}
        return payload if isinstance(payload, dict) else {}

    # -- API surface -----------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def capabilities(self) -> dict:
        """``GET /v1/capabilities``: schema version, endpoint list,
        batch concurrency, pipeline fingerprint."""
        return self._request("GET", "/v1/capabilities")

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
        :class:`TimeoutError`); returns the final job document."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled", "timeout"):
                return job
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s")
            self._sleep(poll)

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
