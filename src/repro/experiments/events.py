"""Structured experiment telemetry.

Every experiment emits a stream of flat JSON-serializable event dicts
through one or more :class:`EventSink` instances.  The documented
schema (``docs/EXPERIMENTS_API.md``) is versioned via the ``schema``
field of the ``run_started`` event; the event types are:

``run_started``
    ``{event, schema, mode, case, resumed, start_generation, config}``
``generation``
    ``{event, generation, subset, best_fitness, mean_fitness,
    best_size, mean_size, unique_structures, baseline_rank,
    best_expression, evaluations_total, new_evaluations, counters,
    wall_s}`` — one per completed generation.  ``counters`` carries the
    evaluator/harness telemetry deltas for the generation (compiles,
    sims, simulated cycles, cache hits, pool jobs, ...), ``wall_s`` the
    wall-clock seconds the generation took.
``checkpoint_saved``
    ``{event, generation, path}``
``run_interrupted``
    ``{event, next_generation}`` — the run stopped early but its
    checkpoint is intact; resuming continues at ``next_generation``.
``run_finished``
    ``{event, result, wall_s}`` — ``result`` is the same payload
    written to ``result.json``.
``metrics`` (schema 2)
    ``{event, generation, metrics}`` — emitted right after each
    ``generation`` event when the runner collects observability
    metrics (:mod:`repro.obs`).  ``metrics`` is a snapshot delta
    (``diff_snapshots``): the counters, gauges, and histograms the
    generation moved.  Purely observational — never part of
    ``result.json``, so resumed runs stay byte-identical.
``artifact_published`` (schema 3)
    ``{event, artifact_id, store}`` — the campaign's best expression
    was packaged as a heuristic artifact (``publish_dir`` /
    ``--publish``; see ``docs/SERVING.md``).  Emitted just before
    ``run_finished``.  Like ``metrics``, a deployment side effect:
    never part of ``result.json``.
``surrogate`` (schema 4)
    ``{event, generation, sims_saved, rank_corr, refits,
    promotions}`` — per-generation learned-surrogate telemetry
    (docs/SURROGATE.md), emitted right after ``generation`` when the
    runner both runs with a surrogate and collects metrics.
    ``sims_saved`` counts jobs scored from the model instead of the
    simulator this generation, ``rank_corr`` is the latest Spearman
    rank correlation between predictions and exact values (``null``
    until enough exact trees accumulate in a batch), ``refits`` and
    ``promotions`` are this generation's drift-triggered refit and
    champion-promotion counts.  Purely observational — never part of
    ``result.json``, so resumed runs stay byte-identical.

Only ``wall_s``, ``counters``, ``metrics``, and ``surrogate`` are
timing- or switch-dependent; everything else is deterministic for a
given config, which is what the golden-schema tests pin down.
"""

from __future__ import annotations

import json
import os
import sys
from typing import IO

#: Version stamp of the event schema, carried by ``run_started``.
#: Version 2 added the optional per-generation ``metrics`` event;
#: version 3 the optional ``artifact_published`` event; version 4 the
#: optional per-generation ``surrogate`` event.  Every earlier event is
#: unchanged, so old consumers can read new streams by ignoring unknown
#: event types.
SCHEMA_VERSION = 4

#: Every event type the runner can emit.
EVENT_TYPES = (
    "run_started",
    "generation",
    "metrics",
    "surrogate",
    "checkpoint_saved",
    "run_interrupted",
    "artifact_published",
    "run_finished",
)


def trim_torn_tail(path) -> None:
    """Cut the append-only log ``path`` back to its last complete line.

    A process killed inside an append can leave a last line with no
    ``"\n"``; a record appended after it would be glued onto it, and
    neither line would parse.  Call this before reopening a log for
    append.  A missing file is left missing."""
    try:
        handle = open(path, "rb+")
    except FileNotFoundError:
        return
    with handle:
        end = keep = handle.seek(0, os.SEEK_END)
        while keep > 0:  # back to the last newline, a block at a time
            start = max(0, keep - 4096)
            handle.seek(start)
            newline = handle.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep != end:
            handle.truncate(keep)


class EventSink:
    """Receives experiment events; the base class ignores them."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        pass

    def close(self) -> None:
        pass


class MemorySink(EventSink):
    """Collects events in a list — the test harness's sink."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e["event"] == event_type]


class JsonlSink(EventSink):
    """Appends one JSON object per line to a file.

    Lines are flushed per event so a killed run leaves a readable
    stream; a resumed run appends to the same file, giving a single
    chronological log of all attempts.  A line a kill tore is cut off
    when the file is reopened (:func:`trim_torn_tail`).
    """

    def __init__(self, path) -> None:
        self.path = path
        trim_torn_tail(path)
        self._handle: IO[str] = open(path, "a", encoding="utf-8")

    def emit(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class PrettySink(EventSink):
    """Human-readable progress lines, the CLI's default narrator."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.stream = stream if stream is not None else sys.stdout

    def _print(self, text: str) -> None:
        print(text, file=self.stream)

    def emit(self, event: dict) -> None:
        kind = event["event"]
        if kind == "run_started":
            verb = "resuming" if event["resumed"] else "starting"
            self._print(f"{verb} {event['mode']} run ({event['case']}) "
                        f"at generation {event['start_generation']}")
        elif kind == "generation":
            subset = ",".join(event["subset"])
            self._print(
                f"  gen {event['generation']:3d}: "
                f"best {event['best_fitness']:.4f} "
                f"(size {event['best_size']}, {event['new_evaluations']} "
                f"new evals, {event['wall_s']:.2f}s) [{subset}]")
        elif kind == "run_interrupted":
            self._print(f"interrupted; resume will continue at "
                        f"generation {event['next_generation']}")
        elif kind == "run_finished":
            self._print(f"finished in {event['wall_s']:.2f}s")


class MultiSink(EventSink):
    """Fans one event stream out to several sinks."""

    def __init__(self, sinks) -> None:
        self.sinks = list(sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
