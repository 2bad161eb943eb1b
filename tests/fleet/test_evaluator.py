"""FleetEvaluator coordinator logic against scripted fake workers.

The fake worker is a minimal HTTP server whose ``/v1/evaluate-batch``
behavior is a per-request script — succeed, stream in reverse order,
shed with 503, fail one item, die mid-request — so retry, the shared
shard queue, order-independent reduction, worker loss, and the local
fallback are each exercised deterministically without subprocesses.
"""

import json
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.fleet import FleetError, FleetEvaluator
from repro.gp.parse import parse
from repro.gp.select import Individual
from repro.metaopt.baselines import BASELINE_TREES
from repro.metaopt.harness import (
    EvaluationHarness,
    case_study,
    make_evaluator,
)

BENCHMARK = "codrle4"


def fake_value(index: int) -> float:
    return 1.0 + index * 0.25


class FakeWorker:
    """Scripted stand-in for a ``repro serve`` daemon.

    ``script`` is consumed one entry per batch request; when empty,
    requests behave as ``"ok"``.  Behaviors: ``ok``, ``reverse``,
    ``slow-ok``, ``503``, ``400``, ``item-error``, ``fatal``,
    ``hiccup`` (drop this connection, stay healthy), ``die``
    (drop the connection and refuse everything afterwards — a dead
    process), and ``real`` (evaluate the items on a harness of the
    request's case, on the request's dataset).  ``first_items``
    records the first item index of each request, i.e. which shard
    it carried.
    """

    def __init__(self, script=(), healthy=True):
        worker = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):  # noqa: A002
                pass

            def _json(self, status, payload, headers=()):
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if not worker.healthy:
                    raise ConnectionError("scripted health failure")
                if self.path == "/healthz":
                    self._json(200, {"status": "ok"})
                elif self.path == "/v1/capabilities":
                    self._json(200, {
                        "schema": 1, "ok": True,
                        "endpoints": ["POST /v1/evaluate-batch"],
                    })
                else:
                    self._json(404, {"ok": False, "error": "no route"})

            def do_POST(self):
                if not worker.healthy:
                    raise ConnectionError("scripted health failure")
                length = int(self.headers.get("Content-Length") or 0)
                params = json.loads(self.rfile.read(length))
                behavior = (worker.script.pop(0)
                            if worker.script else "ok")
                worker.batches.append(behavior)
                worker.first_items.append(params["items"][0]["index"])
                if behavior == "hiccup":
                    raise ConnectionError("scripted hiccup")
                if behavior == "die":
                    worker.healthy = False
                    raise ConnectionError("scripted death")
                if behavior == "503":
                    self._json(503, {"ok": False, "error": "draining"},
                               headers=[("Retry-After", "0")])
                    return
                if behavior == "400":
                    self._json(400, {"ok": False, "error": "bad batch"})
                    return
                if behavior == "slow-ok":
                    time.sleep(0.5)
                items = params["items"]
                if behavior == "reverse":
                    items = list(reversed(items))
                lines = []
                for item in items:
                    if behavior == "item-error":
                        lines.append({"index": item["index"],
                                      "ok": False, "error": "boom"})
                    elif behavior == "real":
                        case = case_study(params["case"])
                        tree = parse(item["tree"],
                                     case.pset.bool_feature_set())
                        lines.append({
                            "index": item["index"], "ok": True,
                            "value": EvaluationHarness(case).speedup(
                                tree, item["benchmark"],
                                params["dataset"])})
                    else:
                        lines.append({"index": item["index"], "ok": True,
                                      "value": fake_value(item["index"])})
                if behavior == "fatal":
                    lines = [{"ok": False, "fatal": True,
                              "error": "scripted fatal"}]
                lines.append({"done": True, "count": len(lines)})
                body = "".join(json.dumps(line) + "\n"
                               for line in lines).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self.script = list(script)
        self.batches: list[str] = []
        self.first_items: list[int] = []
        self.healthy = healthy
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.handle_error = lambda *args: None  # scripted deaths
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()

    @property
    def target(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"{host}:{port}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5.0)


def make_jobs(count: int):
    """Distinct constant trees; the coordinator's pending index for
    job *i* is exactly *i*, so fake values are predictable."""
    return [(Individual(tree=parse(f"{float(i + 1)}")), BENCHMARK)
            for i in range(count)]


def make_fleet(workers):
    """A fleet over ``workers`` whose retry backoff does not sleep.
    Shards are cut for about four per worker: a batch of up to
    ``4 * len(workers)`` jobs goes out one job per shard, and twice
    that many goes out two jobs per shard."""
    harness = EvaluationHarness(case_study("hyperblock"))
    return FleetEvaluator(harness, ",".join(w.target for w in workers),
                          sleep=lambda seconds: None)


class TestHappyPath:
    def test_values_come_back_in_job_order(self):
        worker = FakeWorker()
        try:
            with make_fleet([worker]) as fleet:
                values = fleet.evaluate_batch(make_jobs(6))
            assert values == [fake_value(i) for i in range(6)]
        finally:
            worker.close()

    def test_reversed_streams_reduce_identically(self):
        """16 jobs on two workers are cut into 8 shards of 2 items, so
        each reversed stream really arrives out of index order."""
        workers = [FakeWorker(script=["reverse"] * 8) for _ in range(2)]
        try:
            with make_fleet(workers) as fleet:
                values = fleet.evaluate_batch(make_jobs(16))
            assert values == [fake_value(i) for i in range(16)]
            first_items = sorted(workers[0].first_items
                                 + workers[1].first_items)
            assert first_items == list(range(0, 16, 2))
            assert all(set(w.batches) <= {"reverse"} for w in workers)
        finally:
            for worker in workers:
                worker.close()


class TestTrainBinding:
    @pytest.mark.parametrize("backend", ["serial", "pool", "fleet"])
    def test_every_backend_scores_train(self, backend):
        """Every backend scores the ``train`` speedup: the fleet's wire
        payload names ``train``, which the ``real`` worker evaluates."""
        case = case_study("hyperblock")
        tree = parse("(mul 2.0000 num_ops)", case.pset.bool_feature_set())
        harness = EvaluationHarness(case)
        expected = harness.speedup(tree, BENCHMARK, "train")
        assert expected != harness.speedup(tree, BENCHMARK, "novel")
        worker = FakeWorker(script=["real"])
        try:
            backend_args = {
                "serial": {},
                "pool": {"processes": 2},
                "fleet": {"fleet": worker.target},
            }[backend]
            with closing(make_evaluator(EvaluationHarness(case),
                                        **backend_args)) as evaluator:
                values = evaluator.evaluate_batch(
                    [(Individual(tree=tree), BENCHMARK)])
            assert values == [expected]
        finally:
            worker.close()


class TestFaultTolerance:
    def test_backpressure_503_is_retried(self):
        worker = FakeWorker(script=["503", "ok"])
        try:
            with make_fleet([worker]) as fleet:
                values = fleet.evaluate_batch(make_jobs(3))
            assert values == [fake_value(i) for i in range(3)]
            assert fleet.shards_retried == 1
        finally:
            worker.close()

    def test_item_error_is_retried(self):
        worker = FakeWorker(script=["item-error", "ok"])
        try:
            with make_fleet([worker]) as fleet:
                values = fleet.evaluate_batch(make_jobs(2))
            assert values == [fake_value(i) for i in range(2)]
            assert fleet.shards_retried == 1
        finally:
            worker.close()

    def test_transient_death_of_healthy_worker_is_retried(self):
        worker = FakeWorker(script=["hiccup", "ok"])
        try:
            with make_fleet([worker]) as fleet:
                values = fleet.evaluate_batch(make_jobs(2))
            assert values == [fake_value(i) for i in range(2)]
        finally:
            worker.close()

    def test_permanent_rejection_raises(self):
        worker = FakeWorker(script=["400"])
        try:
            with make_fleet([worker]) as fleet:
                with pytest.raises(FleetError, match="bad batch"):
                    fleet.evaluate_batch(make_jobs(2))
        finally:
            worker.close()

    def test_retries_exhaust_to_permanent_failure(self):
        worker = FakeWorker(script=["item-error"] * 10)
        try:
            with make_fleet([worker]) as fleet:
                with pytest.raises(FleetError, match="exhausted"):
                    fleet.evaluate_batch(make_jobs(1))
        finally:
            worker.close()

    def test_dead_worker_shards_redispatch_to_survivor(self):
        dead = FakeWorker(script=["die"])
        alive = FakeWorker()
        try:
            with make_fleet([dead, alive]) as fleet:
                values = fleet.evaluate_batch(make_jobs(6))
            assert values == [fake_value(i) for i in range(6)]
            assert fleet.workers_lost == 1
        finally:
            dead.close()
            alive.close()

    def test_whole_fleet_death_falls_back_to_local(self):
        """All workers dead mid-batch: the coordinator evaluates the
        leftovers in-process, with real values."""
        worker = FakeWorker(script=["die"])
        try:
            tree = BASELINE_TREES["hyperblock"]()
            expected = EvaluationHarness(case_study("hyperblock")).speedup(
                tree, BENCHMARK, "train")
            with make_fleet([worker]) as fleet:
                values = fleet.evaluate_batch(
                    [(Individual(tree=tree), BENCHMARK)])
            assert values == [expected]
            assert fleet.workers_lost == 1
            assert fleet.local_fallback_jobs == 1
        finally:
            worker.close()


class TestOneQueue:
    def test_fast_worker_takes_more_shards(self):
        slow = FakeWorker(script=["slow-ok"] * 20)
        fast = FakeWorker()
        try:
            with make_fleet([slow, fast]) as fleet:
                values = fleet.evaluate_batch(make_jobs(8))
            assert values == [fake_value(i) for i in range(8)]
            assert len(fast.batches) > len(slow.batches)
        finally:
            slow.close()
            fast.close()

    def test_retried_shard_goes_before_untouched_ones(self):
        worker = FakeWorker(script=["503"])
        try:
            with make_fleet([worker]) as fleet:
                values = fleet.evaluate_batch(make_jobs(4))
            assert values == [fake_value(i) for i in range(4)]
            assert worker.first_items == [0, 0, 1, 2, 3]
        finally:
            worker.close()


class TestStats:
    def test_stats_shape(self):
        worker = FakeWorker()
        try:
            with make_fleet([worker]) as fleet:
                fleet.evaluate_batch(make_jobs(2))
                stats = fleet.stats()
            assert stats["workers"] == 1
            assert stats["jobs_dispatched"] == 2
            assert stats["batches_dispatched"] == 1
            assert stats["shards_dispatched"] >= 1
        finally:
            worker.close()

    def test_close_is_idempotent(self):
        worker = FakeWorker()
        try:
            fleet = make_fleet([worker])
            fleet.start()
            fleet.close()
            fleet.close()
        finally:
            worker.close()
