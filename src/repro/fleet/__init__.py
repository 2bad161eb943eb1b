"""Distributed fitness evaluation over ``repro serve`` workers.

The paper's evolution runs were distributed over 15–20 machines
(Section 3); this package is that tier of the reproduction.  A
:class:`FleetEvaluator` shards each generation's candidates across
already-running serve daemons (``--fleet host:port,host:port``) via
the batched ``POST /v1/evaluate-batch`` HTTP API, with one shared
shard queue, retry/redispatch on worker loss, and results
byte-identical to the serial path.  On one host, ``--processes N`` is
the parallel path.  The wire is spoken by :class:`repro.serve.client.
ServeClient`, one per worker; this package has no HTTP code of its
own.  See docs/FLEET.md.
"""

from repro.fleet.evaluator import FleetError, FleetEvaluator, parse_fleet_spec

__all__ = [
    "FleetEvaluator",
    "FleetError",
    "parse_fleet_spec",
]
