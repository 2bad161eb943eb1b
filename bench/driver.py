"""What every workload shares: where the checkout is, how a program
invocation is started and measured, the work directory, the slices.

The driver process never imports ``repro``: a child forked from a big
parent reports the parent's image in its ``ru_maxrss``, and the program
must run exactly as a user starts it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Slice

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

with open(BENCH / "config.json") as _handle:
    CONFIG = json.load(_handle)

#: Seconds the slice takes at reference speed; timings are reported as
#: if the box ran at this speed throughout.
REF_SLICE_S = CONFIG["ref_slice_s"]


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not: a result is wrong)."""


def require_checkout() -> None:
    """Fail fast where the program is absent (the driver also runs the
    command in a directory holding only the benchmark's own files)."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC}/repro/cli.py "
                         "is missing")


def child_env() -> dict:
    """Environment of every program child: the checkout's sources, a
    fixed hash seed, and none of the program's own REPRO_* defaults."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = ROOT / ".bench_work" / f"{label}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run is using it


@dataclass
class Completed:
    """One finished program invocation."""

    wall_s: float
    rss_kb: int
    returncode: int
    stdout: bytes
    stderr_path: Path

    def json(self) -> dict:
        return json.loads(self.stdout)

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-2000:]


def program_command(argv, trace_out: Path | None = None) -> list[str]:
    """``python -m repro ARGV``, or the same argv under the profiling
    child when ``trace_out`` names where the profile goes."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(BENCH / "trace_child.py"),
            str(trace_out), *argv]


def start(command, cwd: Path, stderr_path: Path) -> subprocess.Popen:
    with open(stderr_path, "wb") as stderr:
        return subprocess.Popen(command, cwd=cwd, env=child_env(),
                                stdout=subprocess.PIPE, stderr=stderr)


def finish(proc: subprocess.Popen, started: float,
           stderr_path: Path) -> Completed:
    """Read the child's output, reap it, and return what it cost.
    ``os.wait4`` because only it reports this one child's peak RSS."""
    stdout = proc.stdout.read()
    proc.stdout.close()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(wall, usage.ru_maxrss, proc.returncode, stdout,
                     stderr_path)


def run_child(command, cwd: Path, label: str) -> Completed:
    """One whole child process, timed from ``Popen`` to exit."""
    stderr_path = cwd / f"{label}.stderr"
    started = time.perf_counter()
    return finish(start(command, cwd, stderr_path), started, stderr_path)


def run_program(argv, cwd: Path, trace_out: Path | None = None,
                label: str = "op") -> Completed:
    """One whole invocation of the program."""
    return run_child(program_command(argv, trace_out), cwd, label)


def child_problems(done: Completed) -> list[str]:
    """What a checker child (``{"ok", "problems"}`` on stdout, exit 0
    when ok) found wrong."""
    if done.returncode == 0:
        return []
    try:
        return json.loads(done.stdout)["problems"]
    except (ValueError, KeyError):
        return [done.stderr_tail()]


def fresh(path: Path) -> None:
    """Remove what the last op left, so the next starts from nothing."""
    shutil.rmtree(path, ignore_errors=True)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


@dataclass
class Clock:
    """Slices taken in this process while no child runs.

    ``slice()`` times the kernel once and remembers it; ``adjust``
    turns a raw duration into one at reference speed, given the slices
    that bracket it.
    """

    kernel: Slice = field(default_factory=Slice)
    slices: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kernel.run()  # first run pays the interpreter's warm-up

    def slice(self) -> float:
        started = time.perf_counter()
        self.kernel.run()
        seconds = time.perf_counter() - started
        self.slices.append(seconds)
        return seconds

    @staticmethod
    def adjust(raw: float, before: float, after: float) -> float:
        return raw * REF_SLICE_S / ((before + after) / 2)


@dataclass
class Outcome:
    """What one run reports."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    #: printed beside the metrics, never gated: raw timings, counts
    detail: dict = field(default_factory=dict)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0
