"""Distributed fitness evaluation over ``repro serve`` workers.

The paper's evolution runs were distributed over 15–20 machines
(Section 3); this package is that tier of the reproduction.  A
:class:`FleetEvaluator` shards each generation's candidates across a
fleet of serve daemons — local child processes (``--fleet local:N``)
and/or remote hosts (``--fleet host:port,host:port``) — via the
batched ``POST /v1/evaluate-batch`` HTTP API, with one shared shard
queue, retry/redispatch on worker loss, and results byte-identical to
the serial path.  The wire is spoken by :class:`repro.serve.client.
ServeClient`, one per worker; this package has no HTTP code of its
own.  See docs/FLEET.md.
"""

from repro.fleet.evaluator import FleetEvaluator
from repro.fleet.workers import (
    FleetError,
    FleetTarget,
    LocalWorkerProcess,
    parse_fleet_spec,
)

__all__ = [
    "FleetEvaluator",
    "FleetError",
    "FleetTarget",
    "LocalWorkerProcess",
    "parse_fleet_spec",
]
