"""Fleet worker management: naming workers and spawning local ones.

A fleet is described by a *spec string*::

    local:4                      spawn four serve processes on this host
    10.0.0.5:8347,10.0.0.6:8347  two already-running remote workers
    local:2,bench-box:9000       mixtures compose

``local:N`` entries become child processes of the coordinator
(``python -m repro serve --port 0``, the OS picking a free port, the
announce line on stdout reporting it); ``host:port`` entries are
daemons whose lifecycle belongs to someone else.  Either way the
coordinator speaks to a worker through the daemon's one client,
:class:`repro.serve.client.ServeClient`, and reads failures off its
single taxonomy (:mod:`repro.fleet.evaluator`); nothing here opens a
socket.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
from dataclasses import dataclass


class FleetError(RuntimeError):
    """Any failure the fleet layer cannot recover from."""


@dataclass(frozen=True)
class FleetTarget:
    """One entry of a parsed fleet spec."""

    kind: str  # "local" | "remote"
    address: str | None = None  # "host:port" for remote targets


def parse_fleet_spec(spec: str) -> list[FleetTarget]:
    """Parse ``"local:N"`` / ``"host:port,..."`` into targets."""
    targets: list[FleetTarget] = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if entry == "local" or entry.startswith("local:"):
            _, _, count = entry.partition(":")
            if count and (not count.isdigit() or int(count) < 1):
                raise FleetError(
                    f"bad fleet entry {entry!r}: local takes a positive "
                    f"worker count, e.g. 'local:2'")
            targets.extend(FleetTarget("local")
                           for _ in range(int(count or 1)))
        else:
            host, sep, port = entry.rpartition(":")
            if not sep or not host or not port.isdigit():
                raise FleetError(
                    f"bad fleet entry {entry!r}: expected 'local:N' "
                    f"or 'host:port'")
            targets.append(FleetTarget("remote", entry))
    if not targets:
        raise FleetError(f"fleet spec {spec!r} names no workers")
    return targets


#: The serve daemon's startup announcement on stdout.
_ANNOUNCE = re.compile(r"serving on (http://\S+)")
#: Seconds a local worker has to announce its address.
_STARTUP_TIMEOUT = 30.0


class LocalWorkerProcess:
    """A ``repro serve`` child process owned by the coordinator.

    Spawned on ``--port 0`` so concurrent fleets never collide; the
    actual address comes from the daemon's announce line.  ``--workers
    1`` keeps the job queue minimal — fleet traffic flows through
    ``/v1/evaluate-batch`` handler threads, not the queue.
    """

    def __init__(self) -> None:
        command = [sys.executable, "-m", "repro", "serve",
                   "--host", "127.0.0.1", "--port", "0", "--workers", "1"]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        self.url = self._await_announce()

    def _await_announce(self) -> str:
        """Wait for the daemon's ``serving on <url>`` line (read on a
        helper thread so a wedged child cannot hang the coordinator)."""
        box: dict[str, str] = {}

        def read() -> None:
            box["line"] = self.process.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(_STARTUP_TIMEOUT)
        line = box.get("line", "")
        match = _ANNOUNCE.search(line)
        if match is None:
            self.kill()
            raise FleetError(
                f"local worker did not announce within {_STARTUP_TIMEOUT}s "
                f"(last output: {line!r})")
        return match.group(1)

    @property
    def address(self) -> str:
        return self.url.removeprefix("http://")

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def terminate(self, grace: float = 5.0) -> None:
        """SIGTERM (the daemon drains in-flight work), then SIGKILL."""
        if not self.alive():
            return
        self.process.terminate()
        try:
            self.process.wait(grace)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self) -> None:
        if self.alive():
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
