"""Live quality monitor: rolling speedup-vs-baseline per artifact.

Samples a configurable fraction of real ``/v1/evaluate`` traffic that
ran under a deployed artifact and re-runs the same (benchmark, dataset)
under the case's *baseline* heuristic.  The probe is nearly free: the
baseline result is memoized in the process's one warm harness for the
case, so after the first probe of a benchmark on any thread the
comparison costs a dictionary lookup.

Both the sampling decision and the window contents are deterministic
functions of the observed traffic:

* sampling hashes ``(case, benchmark, dataset, observation_count)``
  with CRC-32 — no RNG, so a daemon kill+restart replaying the same
  traffic makes identical decisions (counts are persisted);
* a window is keyed by ``(benchmark, dataset)`` — re-observing the
  same benchmark *replaces* its entry rather than appending, so window
  state is independent of traffic repetition and arrival order.

Windows are bounded (``window_size``): when full, the oldest-inserted
key is evicted, giving the "rolling" behavior over distinct
benchmarks.
"""

from __future__ import annotations

import json
import threading
import zlib
from pathlib import Path

from repro import obs
from repro.autopilot.config import AUTOPILOT_SCHEMA, AutopilotConfig
from repro.experiments.checkpoint import atomic_write

MONITOR_FILENAME = "monitor.json"


def traffic_hash(key: str) -> int:
    """Deterministic 0..9999 bucket for a traffic key (no RNG)."""
    return zlib.crc32(key.encode()) % 10_000


class QualityMonitor:
    """Per-artifact rolling windows of speedup vs the baseline heuristic.

    State lives in ``<state_dir>/monitor.json`` and is rewritten
    atomically after every accepted sample, so the monitor survives
    daemon restarts with its windows and sampling counters intact.
    """

    def __init__(self, config: AutopilotConfig) -> None:
        self.config = config
        self.path = Path(config.state_dir) / MONITOR_FILENAME
        self._lock = threading.Lock()
        self._windows: dict[str, dict[str, float]] = {}
        self._counts: dict[str, int] = {}
        self._load()

    # -- persistence -----------------------------------------------------
    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except OSError:
            return
        if data.get("schema") != AUTOPILOT_SCHEMA:
            raise ValueError(
                f"unsupported monitor state schema {data.get('schema')!r}")
        self._windows = {aid: dict(window)
                         for aid, window in data["windows"].items()}
        self._counts = dict(data["counts"])

    def _store_locked(self) -> None:
        payload = json.dumps({
            "schema": AUTOPILOT_SCHEMA,
            "windows": self._windows,
            "counts": self._counts,
        }, indent=2, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, payload.encode())

    # -- sampling --------------------------------------------------------
    def should_sample(self, case: str, benchmark: str, dataset: str) -> bool:
        """Decide (and count) whether this observation is probed.

        The count advances whether or not the observation is sampled,
        so the decision sequence for a traffic key is a pure function
        of how many times that key has been seen.
        """
        key = f"{case}|{benchmark}|{dataset}"
        with self._lock:
            count = self._counts.get(key, 0)
            self._counts[key] = count + 1
            sampled = (traffic_hash(f"{key}|{count}")
                       < self.config.sample_rate * 10_000)
            self._store_locked()
        return sampled

    # -- windows ---------------------------------------------------------
    def record(self, artifact_id: str, benchmark: str, dataset: str,
               speedup: float) -> dict:
        """Fold one probed speedup into the artifact's window; returns
        the window summary (see :meth:`summary_for`)."""
        key = f"{benchmark}|{dataset}"
        with self._lock:
            window = self._windows.setdefault(artifact_id, {})
            if key not in window and len(window) >= self.config.window_size:
                oldest = next(iter(window))
                del window[oldest]
            window[key] = speedup
            self._store_locked()
            summary = self._summary_locked(artifact_id)
        obs.inc("autopilot.samples")
        obs.set_gauge(f"autopilot.window_mean.{artifact_id[:12]}",
                      summary["mean_speedup"])
        return summary

    def _summary_locked(self, artifact_id: str) -> dict:
        window = self._windows.get(artifact_id, {})
        mean = (sum(window.values()) / len(window)) if window else 0.0
        return {
            "samples": len(window),
            "mean_speedup": mean,
            "threshold": self.config.threshold,
            "tripped": (len(window) >= self.config.window_min
                        and mean < self.config.threshold),
        }

    def summary_for(self, artifact_id: str) -> dict:
        with self._lock:
            return self._summary_locked(artifact_id)

    def worst_benchmark(self, artifact_id: str) -> tuple[str, str] | None:
        """The (benchmark, dataset) with the lowest observed speedup —
        where a re-optimization campaign will focus.  Ties break
        lexicographically so the choice is deterministic."""
        with self._lock:
            window = self._windows.get(artifact_id, {})
            if not window:
                return None
            key, _ = min(window.items(), key=lambda kv: (kv[1], kv[0]))
        benchmark, _, dataset = key.partition("|")
        return benchmark, dataset

    def reset_window(self, artifact_id: str) -> None:
        """Forget an artifact's window (after a campaign is triggered,
        so the same degraded window cannot re-trigger)."""
        with self._lock:
            self._windows.pop(artifact_id, None)
            self._store_locked()

    def status(self) -> dict:
        with self._lock:
            return {aid: self._summary_locked(aid)
                    for aid in sorted(self._windows)}
