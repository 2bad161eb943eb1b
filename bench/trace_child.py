"""Run ``repro.cli.main(argv)`` under cProfile, from outside the program.

    python bench/trace_child.py OUT.json <repro argv ...>

The program is not touched: this child enables a profiler, imports
``repro.cli`` (so import cost is on the ledger), calls ``main`` with the
argv it was given, and writes every profile entry to OUT.json for
``bench/ledger.py`` to sort into layers.  ``PYTHONPATH`` must already
name the checkout's ``src``.

cProfile profiles one thread, and the serving daemon does its work on
worker and handler threads, so ``threading.Thread.run`` is wrapped to
give every thread a profiler of its own; the profiles of the threads
that have ended are merged when ``main`` returns, which for the daemon
is after its SIGTERM drain.  ``wall_s`` is the time profilers were
enabled, summed over threads.  A campaign starts no thread, so for it
the wrapper adds no call.
"""

from __future__ import annotations

import cProfile
import json
import sys
import threading
import time


def _rows(profiles) -> list:
    """Merge profiles into rows keyed by code identity.

    A row is ``[file, line, qualname, callcount, inlinetime, totaltime,
    builtin_calls, builtin_inline]``: the last two are what this code
    spent in C functions it called directly, read from cProfile's
    caller edges, so the ledger can charge C time to the calling layer.
    A C function's own row has file ``"~"``.
    """
    merged: dict = {}
    for profile in profiles:
        for entry in profile.getstats():
            code = entry.code
            if isinstance(code, str):
                key = ("~", 0, code)
            else:
                key = (code.co_filename, code.co_firstlineno,
                       code.co_qualname)
            row = merged.setdefault(key, [0, 0.0, 0.0, 0, 0.0])
            row[0] += entry.callcount
            row[1] += entry.inlinetime
            row[2] += entry.totaltime
            if key[0] != "~":
                for sub in entry.calls or ():
                    if isinstance(sub.code, str):
                        row[3] += sub.callcount
                        row[4] += sub.inlinetime
    return [[*key, *row] for key, row in sorted(merged.items())]


def main(argv: list[str]) -> int:
    out_path, program_argv = argv[0], argv[1:]
    finished = []  # (profile, seconds it was enabled), ended threads only
    lock = threading.Lock()
    thread_run = threading.Thread.run

    def profiled_run(self):
        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        try:
            thread_run(self)
        finally:
            profile.disable()
            with lock:
                finished.append((profile, time.perf_counter() - started))

    threading.Thread.run = profiled_run
    profile = cProfile.Profile()
    started = time.perf_counter()
    profile.enable()
    try:
        from repro.cli import main as program_main

        code = program_main(program_argv)
    finally:
        profile.disable()
        wall = time.perf_counter() - started
        threading.Thread.run = thread_run
    with lock:
        ended = [(profile, wall), *finished]
    with open(out_path, "w") as handle:
        json.dump({"wall_s": sum(seconds for _, seconds in ended),
                   "threads": len(ended),
                   "rows": _rows(profile for profile, _ in ended)}, handle)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
