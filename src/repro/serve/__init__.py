"""Deployment and serving of evolved heuristics.

The paper's end product is an *artifact*: an evolved priority function
that a compiler then uses on every future compile.  This package is the
missing train-to-deploy layer of the reproduction:

* :mod:`repro.serve.artifact` — the versioned, content-addressed
  artifact document (s-expression + pass kind + training-config and
  pipeline fingerprints + fitness metadata);
* :mod:`repro.serve.registry` — the on-disk artifact store with
  ``save``/``load``/``list``/``verify`` APIs;
* :mod:`repro.serve.jobs` — the bounded job queue + warm worker pool
  the daemon runs compile/evaluate requests on;
* :mod:`repro.serve.server` — the zero-dependency HTTP daemon
  (``repro serve``): ``POST /v1/compile``, ``POST /v1/evaluate``,
  ``GET /v1/jobs/<id>``, ``GET /v1/artifacts``, ``GET /healthz``,
  ``GET /metrics``, with explicit backpressure and SIGTERM drain;
* :mod:`repro.serve.client` — the one stdlib HTTP client, kept-alive,
  with retry/backoff (``repro submit``, the fleet coordinator,
  ``bench/``'s ``serve-mixed``).

See ``docs/SERVING.md`` for the artifact lifecycle and API reference.
"""

from repro.serve.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    HeuristicArtifact,
    build_artifact,
)
from repro.serve.client import ServeClient, ServeError, ServerBusy
from repro.serve.jobs import Job, JobQueue, QueueFull
from repro.serve.registry import ArtifactRegistry, registry_from_env
from repro.serve.server import ReproServer

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "ArtifactRegistry",
    "HeuristicArtifact",
    "Job",
    "JobQueue",
    "QueueFull",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServerBusy",
    "build_artifact",
    "registry_from_env",
]
