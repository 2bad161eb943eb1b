"""Hierarchical span tracer exporting Chrome ``trace_event`` JSON.

The tracer records *complete events* (``"ph": "X"``): each span carries
a start timestamp and a duration on a monotonic clock
(:func:`time.perf_counter_ns`), plus the recording process and thread
ids.  Chrome's trace viewer (``chrome://tracing``) and Perfetto nest
``X`` events on the same pid/tid by time containment, so the natural
``with span(...)`` nesting in the code is exactly the nesting the
viewer shows — no explicit parent ids are needed.

The file format is the JSON object form of the Trace Event spec::

    {"traceEvents": [
        {"name": "pipeline:backend", "cat": "repro", "ph": "X",
         "ts": 1234.5, "dur": 678.9, "pid": 4242, "tid": 1, "args": {}},
        ...
     ],
     "displayTimeUnit": "ms"}

``ts``/``dur`` are microseconds since the tracer was created.  Load a
written file straight into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

Spans are recorded on exit, under a lock, so tracing is thread-safe;
events from forked worker processes are not collected automatically
(workers ship metric snapshots instead — see
:mod:`repro.metaopt.parallel`), but every event is stamped with its
``os.getpid()`` so merged traces stay unambiguous.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans as Chrome ``trace_event`` dicts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch_ns = time.perf_counter_ns()
        self.events: list[dict] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, category: str = "repro",
             args: dict | None = None):
        """Record a complete event covering the ``with`` body."""
        start_ns = time.perf_counter_ns()
        try:
            yield self
        finally:
            end_ns = time.perf_counter_ns()
            event = {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": (start_ns - self._epoch_ns) / 1000.0,
                "dur": (end_ns - start_ns) / 1000.0,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
            if args:
                event["args"] = args
            with self._lock:
                self.events.append(event)

    # -- export ----------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The trace as a Chrome/Perfetto-loadable JSON object."""
        with self._lock:
            events = sorted(self.events, key=lambda e: e["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)
