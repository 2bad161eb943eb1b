"""Observability: span tracing + metrics, off by default.

The instrumented subsystems (:mod:`repro.passes.pipeline`,
:mod:`repro.machine.sim`, :mod:`repro.gp.engine`,
:mod:`repro.metaopt.parallel`) call the module-level helpers below.
With nothing enabled every helper is a cheap guard check — ``span``
returns a shared reusable null context and the metric helpers return
immediately — so the evaluation fast path is unaffected (the bench
gate in CI holds the regression under 2%).

Enabling is explicit and process-local::

    from repro import obs

    registry = obs.enable_metrics()        # start collecting metrics
    tracer = obs.enable_tracing()          # start collecting spans
    ...instrumented work...
    snapshot = registry.snapshot()
    tracer.write("trace.json")             # chrome://tracing / Perfetto
    obs.disable_metrics(); obs.disable_tracing()

Surfaces: ``--trace FILE`` / ``--metrics`` on
``evolve``/``generalize``/``simulate`` (``simulate --metrics`` prints
the per-pass, simulator and snapshot tables), per-generation
``metrics`` events in the experiments stream, and the ``--trace 1``
runs of ``bench/run.py``.  Span and metric names are catalogued in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.trace import Tracer

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "diff_snapshots",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "enabled",
    "inc",
    "metrics",
    "metrics_enabled",
    "observe",
    "set_gauge",
    "span",
    "tracer",
    "tracing_enabled",
]

_TRACER: Tracer | None = None
_METRICS: MetricsRegistry | None = None

#: Reusable no-op context manager handed out while tracing is disabled.
_NULL_CONTEXT = nullcontext()


# -- lifecycle -----------------------------------------------------------
def enable_tracing(instance: Tracer | None = None) -> Tracer:
    """Install (and return) the active tracer.  Idempotent: calling
    with no argument while tracing is already on keeps the current
    tracer and its collected spans."""
    global _TRACER
    if instance is not None:
        _TRACER = instance
    elif _TRACER is None:
        _TRACER = Tracer()
    return _TRACER


def disable_tracing() -> Tracer | None:
    """Stop tracing; returns the tracer that was active (so callers can
    still export what it collected)."""
    global _TRACER
    previous, _TRACER = _TRACER, None
    return previous


def enable_metrics(instance: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install (and return) the active metrics registry.  Idempotent,
    like :func:`enable_tracing`."""
    global _METRICS
    if instance is not None:
        _METRICS = instance
    elif _METRICS is None:
        _METRICS = MetricsRegistry()
    return _METRICS


def disable_metrics() -> MetricsRegistry | None:
    """Stop metrics collection; returns the registry that was active."""
    global _METRICS
    previous, _METRICS = _METRICS, None
    return previous


# -- state queries -------------------------------------------------------
def tracing_enabled() -> bool:
    return _TRACER is not None


def metrics_enabled() -> bool:
    return _METRICS is not None


def enabled() -> bool:
    """True when either tracing or metrics collection is on."""
    return _TRACER is not None or _METRICS is not None


def tracer() -> Tracer | None:
    return _TRACER


def metrics() -> MetricsRegistry | None:
    return _METRICS


# -- guarded instrumentation helpers -------------------------------------
def span(name: str, **args):
    """A tracer span when tracing is on, else a shared no-op context."""
    active = _TRACER
    if active is None:
        return _NULL_CONTEXT
    return active.span(name, args=args or None)


def inc(name: str, amount: int | float = 1) -> None:
    active = _METRICS
    if active is not None:
        active.counter(name).inc(amount)


def set_gauge(name: str, value: int | float) -> None:
    active = _METRICS
    if active is not None:
        active.gauge(name).set(value)


def observe(name: str, value: float,
            buckets: tuple[float, ...] | None = None) -> None:
    active = _METRICS
    if active is not None:
        active.histogram(name, buckets).observe(value)
