"""Zero-dependency metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`): long-running subsystems — the compilation pipeline,
the cycle simulator, the GP engine, the parallel evaluator — feed named
instruments, and surfaces (``repro simulate --metrics``, the
experiments event stream, ``bench/run.py``) read consistent snapshots
back out.

Three instrument kinds, deliberately minimal:

``Counter``
    A running sum.  Increments may be negative (used for signed
    aggregates such as per-pass IR size deltas), so a counter is a
    *sum*, not a strictly monotonic Prometheus counter.
``Gauge``
    A last-write-wins scalar (population size, memo size, ...).
``Histogram``
    Fixed, immutable bucket boundaries chosen at creation; observing
    records into ``counts`` (one overflow bucket past the last
    boundary) plus ``sum``/``count`` so means survive aggregation.

Snapshots are plain JSON-serializable dicts.  Two snapshot algebra
helpers make the parallel-evaluation story work: workers ship
:func:`diff_snapshots` deltas back with their results, and the parent
folds them in with :meth:`MetricsRegistry.merge_snapshot` — counter
deltas add, histogram bucket counts add, gauges last-write-win.

Everything is guarded by one lock per registry; instrument handles
returned by :meth:`counter` / :meth:`gauge` / :meth:`histogram` can be
cached by hot paths to skip the name lookup.
"""

from __future__ import annotations

import bisect
import threading

#: Default boundaries for timing histograms, in seconds.  Spans four
#: orders of magnitude: sub-millisecond pass timings up to multi-second
#: generation evaluations.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A named running sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A named last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """A named histogram over fixed bucket boundaries.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final
    entry (``counts[len(buckets)]``) is the overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        boundaries = tuple(float(edge) for edge in buckets)
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(boundaries) != sorted(set(boundaries)):
            raise ValueError(
                f"bucket boundaries must be strictly increasing: {boundaries}")
        self.name = name
        self.buckets = boundaries
        self.counts = [0] * (len(boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """A set of named instruments with snapshot/merge support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- instrument accessors (get-or-create) ---------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.histograms.setdefault(
                    name, Histogram(name, buckets or DEFAULT_TIME_BUCKETS))
        return instrument

    # -- one-shot conveniences ------------------------------------------
    def inc(self, name: str, amount: int | float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: int | float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] | None = None) -> None:
        self.histogram(name, buckets).observe(value)

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-data copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {name: c.value
                             for name, c in self.counters.items()},
                "gauges": {name: g.value for name, g in self.gauges.items()},
                "histograms": {
                    name: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for name, h in self.histograms.items()
                },
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's snapshot (or a delta from
        :func:`diff_snapshots`) into this registry: counters and
        histogram bucket counts add, gauges last-write-win.

        This is how per-worker metrics from a process pool are folded
        into the parent's registry.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, tuple(data["buckets"]))
            if list(histogram.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge mismatched bucket "
                    f"boundaries {data['buckets']} into "
                    f"{list(histogram.buckets)}")
            for index, count in enumerate(data["counts"]):
                histogram.counts[index] += count
            histogram.sum += data["sum"]
            histogram.count += data["count"]


def diff_snapshots(before: dict, after: dict) -> dict:
    """The change from ``before`` to ``after``, as a mergeable snapshot.

    Counters and histograms subtract (entries with no activity are
    dropped, keeping per-generation deltas small); gauges carry the
    ``after`` value.  ``merge_snapshot(diff_snapshots(a, b))`` applied
    to a registry in state ``a`` reproduces state ``b`` for counters
    and histograms.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, data in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        if prior is None:
            if data["count"]:
                histograms[name] = {key: (list(value)
                                          if isinstance(value, list)
                                          else value)
                                    for key, value in data.items()}
            continue
        count_delta = data["count"] - prior["count"]
        if not count_delta:
            continue
        histograms[name] = {
            "buckets": list(data["buckets"]),
            "counts": [now - then for now, then
                       in zip(data["counts"], prior["counts"])],
            "sum": data["sum"] - prior["sum"],
            "count": count_delta,
        }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }
