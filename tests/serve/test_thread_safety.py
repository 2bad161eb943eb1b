"""Thread-safety of the process-wide state the daemon's threads share.

The serving daemon runs compiles and simulations on many threads at
once; the module-level simulator codegen cache, the
:class:`FitnessCache` memory layer and the :class:`HarnessPool`'s one
:class:`EvaluationHarness` per (case, settings) are the shared mutable
state.  These tests hammer each from 8 threads and assert the counters
stay consistent and every thread observes correct results — under a
racy implementation they fail with KeyError/RuntimeError (dict mutation
during iteration), silently lost counts or duplicated compiles.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro import obs
from repro.gp.parse import parse, unparse
from repro.machine.sim import (
    Simulator,
    clear_codegen_cache,
    codegen_cache_stats,
)
from repro.metaopt import harness as harness_module
from repro.machine.descr import DEFAULT_EPIC
from repro.metaopt.fitness_cache import FitnessCache
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings
from repro.serve.client import ServeClient
from repro.serve.jobs import (
    MAX_WARM_HARNESSES,
    HarnessPool,
    run_compile,
    run_evaluate,
)
from repro.serve.server import ReproServer
from repro.suite.registry import get as get_benchmark

THREADS = 8
ROUNDS = 12


def run_threads(target):
    errors = []

    def wrapped(slot):
        try:
            target(slot)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(slot,))
               for slot in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert errors == [], errors


class TestCodegenCacheUnderThreads:
    def test_concurrent_simulations_agree_and_count(self):
        """8 threads simulate the same benchmark: every thread gets the
        same cycle count and hits + misses == lookups."""
        from repro.compiler import compile_program

        bench = get_benchmark("codrle4")
        program = compile_program(bench.source, name=bench.name)
        inputs = bench.inputs("train")
        clear_codegen_cache()

        cycles = [None] * THREADS
        barrier = threading.Barrier(THREADS)

        def worker(slot):
            barrier.wait()  # maximize overlap on the cold cache
            seen = set()
            for _ in range(ROUNDS):
                simulator = Simulator(program.scheduled,
                                      program.options.machine)
                for name, values in inputs.items():
                    simulator.set_global(name, values)
                seen.add(simulator.run().cycles)
            assert len(seen) == 1
            cycles[slot] = seen.pop()

        run_threads(worker)
        assert len(set(cycles)) == 1

        stats = codegen_cache_stats()
        functions = len(program.scheduled.functions)
        lookups = THREADS * ROUNDS * functions
        # No lost updates: every lookup is accounted a hit or a miss.
        assert stats["hits"] + stats["misses"] == lookups
        # The racy window allows benign duplicate translation, but
        # never more misses than one per thread per function.
        assert functions <= stats["misses"] <= THREADS * functions
        assert stats["entries"] >= functions

    def test_stats_and_clear_race_free(self):
        """Readers/clearers interleaving with simulations must never
        corrupt the cache dict."""
        from repro.compiler import compile_program

        bench = get_benchmark("codrle4")
        program = compile_program(bench.source, name=bench.name)
        inputs = bench.inputs("train")
        stop = threading.Event()

        def simulate(slot):
            while not stop.is_set():
                simulator = Simulator(program.scheduled,
                                      program.options.machine)
                for name, values in inputs.items():
                    simulator.set_global(name, values)
                simulator.run()

        def churn(slot):
            for _ in range(50):
                codegen_cache_stats()
                clear_codegen_cache()
            stop.set()

        def worker(slot):
            (churn if slot == 0 else simulate)(slot)

        run_threads(worker)
        stats = codegen_cache_stats()
        assert stats["hits"] >= 0 and stats["misses"] >= 0


class TestFitnessCacheUnderThreads:
    def _result(self, n):
        from repro.machine.sim import SimResult

        return SimResult(cycles=n, return_value=None, outputs=[],
                         dynamic_ops=n)

    def _cache(self, tmp_path):
        return FitnessCache(tmp_path / "cache", "hyperblock", DEFAULT_EPIC)

    @staticmethod
    def _at(key):
        return key, "codrle4", "train"

    def test_concurrent_put_get_consistent_counters(self, tmp_path):
        cache = self._cache(tmp_path)
        barrier = threading.Barrier(THREADS)

        def worker(slot):
            barrier.wait()
            for n in range(ROUNDS):
                address = self._at(f"{'k' * 62}{slot}{n}")  # unique keys
                assert cache.get(address) is None  # cold
                cache.put(address, self._result(n), "1.0")
                stored = cache.get(address)
                assert stored is not None and stored.cycles == n
                cache.get(self._at(f"{'m' * 62}{slot}{n}"))  # a miss

        run_threads(worker)
        fresh = FitnessCache(tmp_path / "cache")
        assert sorted(record.result.cycles for record in fresh.scan()) == \
            sorted(n for _ in range(THREADS) for n in range(ROUNDS))

    def test_shared_hot_key_all_threads_hit(self, tmp_path):
        cache = self._cache(tmp_path)
        address = self._at("a" * 64)
        cache.put(address, self._result(42), "1.0")
        barrier = threading.Barrier(THREADS)

        def worker(slot):
            barrier.wait()
            for _ in range(ROUNDS * 10):
                stored = cache.get(address)
                assert stored is not None and stored.cycles == 42

        run_threads(worker)

    def test_disk_layer_atomic_under_writers(self, tmp_path):
        """All 8 threads write the same key concurrently; the on-disk
        document is never torn (a fresh cache can always read it)."""
        cache = self._cache(tmp_path)
        address = self._at("b" * 64)
        barrier = threading.Barrier(THREADS)

        def worker(slot):
            barrier.wait()
            for n in range(ROUNDS):
                cache.put(address, self._result(slot * 1000 + n), "1.0")

        run_threads(worker)
        fresh = FitnessCache(tmp_path / "cache")
        stored = fresh.get(address)
        assert stored is not None  # readable, i.e. not torn


def hyperblock_candidates():
    """The baseline and three structurally distinct variants of it."""
    case = case_study("hyperblock")
    baseline = unparse(case.baseline_tree())
    texts = [baseline, f"(add 0.0000 {baseline})",
             f"(sub 0.0000 {baseline})", f"(mul 2.0000 {baseline})"]
    return [parse(text, case.pset.bool_feature_set()) for text in texts]


class TestSharedHarnessUnderThreads:
    def test_overlapping_keys_compile_once(self):
        """8 threads walk the same keys on ONE harness: every value is
        the serial harness's and every key was answered below the memo
        exactly once: compiled, or, when a compile already made its
        if-conversion verdicts, walked in the decision trie (to a
        result, or to the binary its leaf holds for a new dataset)."""
        case = case_study("hyperblock")
        benchmarks = ("codrle4", "diamond-join")
        keys = [(tree, benchmark, dataset)
                for tree in hyperblock_candidates()
                for benchmark in benchmarks
                for dataset in ("train", "novel")]
        serial = EvaluationHarness(case)
        expected = [serial.speedup(*key) for key in keys]
        # the candidates plus the baseline each speedup() divides by;
        # three of the four make the same verdicts, and each novel key
        # simulates the binary its train compile left
        once = serial.stats()
        assert (once["compiles"], once["decision_hits"],
                once["binary_hits"]) == (4, 8, 4)

        shared = EvaluationHarness(case)
        barrier = threading.Barrier(THREADS)

        def worker(slot):
            barrier.wait()  # every thread misses the cold keys together
            for _ in range(2):
                assert [shared.speedup(*key) for key in keys] == expected

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        stats = shared.stats()
        assert (stats["compiles"], stats["decision_hits"],
                stats["binary_hits"]) == (4, 8, 4)
        assert stats["memo_lookups"] - stats["memo_hits"] == len(keys)
        assert stats["sims"] == serial.stats()["sims"]
        assert len(shared._prepared) == len(benchmarks)


class TestWarmStateIsProcessWide:
    def batch(self):
        return {"schema": 1, "case": "hyperblock", "dataset": "train",
                "settings": {},
                "items": [{"index": index, "tree": unparse(tree),
                           "benchmark": "codrle4"}
                          for index, tree
                          in enumerate(hyperblock_candidates())]}

    def test_fresh_connection_and_queued_job_add_no_work(self, monkeypatch):
        """A memoised batch repeated on a fresh connection, then a
        queued ``/v1/evaluate`` of the same program on a worker thread,
        compile, simulate and prepare nothing: counts, not milliseconds.
        """
        prepares = []
        real_prepare = harness_module.prepare

        def counting_prepare(module, *args, **kwargs):
            prepares.append(module.name)
            return real_prepare(module, *args, **kwargs)

        monkeypatch.setattr(harness_module, "prepare", counting_prepare)
        obs.enable_metrics(obs.MetricsRegistry())  # counts from zero
        server = ReproServer(port=0, workers=2, capacity=4)
        server.start()
        try:
            def work(client):
                counters = client.metrics()["obs"]["counters"]
                return (counters["harness.compiles"],
                        counters["harness.decision_hits"],
                        counters["harness.sims"], len(prepares))

            first = ServeClient(server.url, timeout=60.0)
            records = first.evaluate_batch(self.batch())
            assert all(record["ok"] for record in records)
            cold = work(first)
            # two of the four candidates repeat the baseline's
            # if-conversion verdicts: the decision trie answers them
            assert cold[:2] == (2, 2) and cold[3] == 1

            fresh = ServeClient(server.url, timeout=60.0)
            assert fresh.evaluate_batch(self.batch()) == records
            assert work(fresh) == cold
            fresh.evaluate("codrle4", case="hyperblock")
            assert work(fresh) == cold
            first.close()
            fresh.close()
        finally:
            server.drain(timeout=30.0)
            obs.disable_metrics()

    def test_pool_is_bounded_against_distinct_noise(self):
        """Each distinct requester noise is a pool key; the pool keeps
        the most recent MAX_WARM_HARNESSES and values stay exact."""
        server = ReproServer(port=0, workers=1, capacity=4)
        server.start()
        try:
            client = ServeClient(server.url, timeout=60.0)
            noises = [0.001 * step
                      for step in range(1, MAX_WARM_HARNESSES + 4)]
            replies = [client.evaluate("codrle4", case="hyperblock",
                                       noise=noise) for noise in noises]
            client.close()
            harnesses = server.harness_pool._harnesses
            assert len(harnesses) == MAX_WARM_HARNESSES
            assert ([settings.noise_stddev for _, settings in harnesses]
                    == noises[-MAX_WARM_HARNESSES:])
        finally:
            server.drain(timeout=30.0)
        for noise, reply in list(zip(noises, replies))[::6]:
            direct = EvaluationHarness(case_study("hyperblock"),
                                       EvalSettings(noise_stddev=noise))
            assert reply["cycles"] == direct.baseline_result(
                "codrle4", "train").cycles


#: Run in a fresh interpreter: a daemon whose first three requests, two
#: evaluates and a compile, arrive at once on three worker threads, so
#: the modules a compile loads on first use are imported concurrently.
_FIRST_REQUESTS = """
import json, sys, threading
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer

requests = json.loads(sys.argv[1])
server = ReproServer(port=0, workers=len(requests), capacity=8)
server.start()
loaded = sorted(name for name in ("repro.frontend", "repro.ir.interp",
                                  "repro.machine.sim", "repro.passes.snapshot")
                if name in sys.modules)
barrier = threading.Barrier(len(requests))
replies = [None] * len(requests)

def send(slot):
    client = ServeClient(server.url, timeout=120.0)
    kind, params = requests[slot]
    barrier.wait()
    try:
        replies[slot] = client.run(kind, params, timeout=120.0)
    except Exception as exc:
        replies[slot] = repr(exc)
    client.close()

sys.setswitchinterval(1e-5)  # switch threads inside the imports
threads = [threading.Thread(target=send, args=(slot,))
           for slot in range(len(requests))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=240.0)
    assert not thread.is_alive(), "a first request hung"
server.drain(timeout=30.0)
print(json.dumps({"loaded_at_boot": loaded, "replies": replies}))
"""


class TestFirstRequestsImportConcurrently:
    def test_concurrent_first_requests_equal_serial(self):
        """The compiler and simulator are imported by the first compile,
        not at boot.  Two first ``evaluate`` requests and a first
        ``compile`` on a fresh daemon race those imports on three
        threads; all succeed and equal a serial harness's answers."""
        bench = get_benchmark("codrle4")
        requests = [
            ("evaluate", {"benchmark": "codrle4", "case": "hyperblock"}),
            ("evaluate", {"benchmark": "huff_dec", "case": "regalloc"}),
            ("compile", {"source": bench.source, "run": True,
                         "inputs": bench.inputs("train")}),
        ]
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", _FIRST_REQUESTS, json.dumps(requests)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["loaded_at_boot"] == []
        pool = HarnessPool()
        serial = [run_evaluate(params, pool) if kind == "evaluate"
                  else run_compile(params) for kind, params in requests]
        assert report["replies"] == json.loads(json.dumps(serial))
