"""The instrumented subsystems feed the observability layer.

These tests pin the span names and metric names that
``docs/OBSERVABILITY.md`` documents and the ``repro simulate --metrics``
tables read — renaming an instrument is a docs change, not a refactor.
"""

import pytest

from repro import obs
from repro.frontend import compile_source
from repro.machine.descr import DEFAULT_EPIC
from repro.machine.sim import Simulator
from repro.passes.pipeline import compile_backend, prepare
from repro.suite.registry import get as get_benchmark

PIPELINE_SPANS = {"pipeline:prepare", "pipeline:backend"}
PASS_SPANS = {"pass:inline", "pass:cleanup", "pass:unroll", "pass:profile",
              "pass:hyperblock", "pass:hyperblock_cleanup", "pass:regalloc",
              "pass:schedule"}


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable_tracing()
    obs.disable_metrics()
    yield
    obs.disable_tracing()
    obs.disable_metrics()


def compile_and_simulate(benchmark="codrle4"):
    bench = get_benchmark(benchmark)
    module = compile_source(bench.source, bench.name)
    prepared = prepare(module, bench.inputs("train"))
    scheduled, _ = compile_backend(prepared)
    simulator = Simulator(scheduled, DEFAULT_EPIC)
    for name, values in bench.inputs("train").items():
        simulator.set_global(name, values)
    return simulator.run()


def contained(child, parents):
    return any(p["ts"] <= child["ts"] and
               child["ts"] + child["dur"] <= p["ts"] + p["dur"]
               for p in parents)


class TestPipelineAndSimulator:
    def test_spans_cover_pipeline_passes_and_sim(self):
        tracer = obs.enable_tracing()
        compile_and_simulate()
        names = {event["name"] for event in tracer.events}
        assert PIPELINE_SPANS <= names
        assert PASS_SPANS <= names
        assert "sim:run" in names

    def test_pass_spans_nest_inside_pipeline_spans(self):
        tracer = obs.enable_tracing()
        compile_and_simulate()
        events = tracer.chrome_trace()["traceEvents"]
        pipeline = [e for e in events if e["name"] in PIPELINE_SPANS]
        passes = [e for e in events if e["name"].startswith("pass:")]
        assert passes
        for event in passes:
            assert contained(event, pipeline), event["name"]

    def test_pipeline_metrics(self):
        registry = obs.enable_metrics()
        compile_and_simulate()
        snapshot = registry.snapshot()
        for stage in ("inline", "cleanup", "unroll", "profile",
                      "hyperblock", "hyperblock_cleanup", "regalloc",
                      "schedule"):
            assert snapshot["counters"][f"pipeline.pass_runs.{stage}"] >= 1
            assert f"pipeline.ir_delta.{stage}" in snapshot["counters"]
            histogram = snapshot["histograms"][
                f"pipeline.pass_seconds.{stage}"]
            assert histogram["count"] >= 1
            assert histogram["sum"] > 0

    def test_simulator_metrics(self):
        registry = obs.enable_metrics()
        result = compile_and_simulate()
        counters = registry.snapshot()["counters"]
        assert counters["sim.runs"] == 1
        assert counters["sim.cycles"] == result.cycles
        assert counters["sim.dynamic_ops"] == result.dynamic_ops
        assert counters["sim.loads"] == result.load_count
        assert counters["sim.l1_hits"] + counters["sim.l1_misses"] > 0
        # the codegen cache is module-global and may already be warm
        # from earlier tests; either way every call was counted.
        codegen = counters.get("sim.codegen_hits", 0) + \
            counters.get("sim.codegen_misses", 0)
        assert codegen >= 1

    def test_disabled_observability_records_nothing(self):
        compile_and_simulate()
        assert obs.tracer() is None
        assert obs.metrics() is None


class TestEngineInstrumentation:
    def run_tiny_engine(self):
        from repro.gp.engine import GPEngine, GPParams
        from repro.metaopt.harness import EvaluationHarness, case_study

        case = case_study("hyperblock")
        harness = EvaluationHarness(case)
        engine = GPEngine(
            pset=case.pset,
            evaluator=harness.evaluator("train"),
            benchmarks=("codrle4",),
            params=GPParams(population_size=6, generations=2, seed=3),
            seed_trees=(case.baseline_tree(),),
        )
        return engine.run()

    def test_engine_spans_nest(self):
        tracer = obs.enable_tracing()
        self.run_tiny_engine()
        events = tracer.chrome_trace()["traceEvents"]
        generations = [e for e in events if e["name"] == "engine:generation"]
        evaluations = [e for e in events if e["name"] == "engine:evaluation"]
        breeds = [e for e in events if e["name"] == "engine:breed"]
        assert len(generations) == 2
        assert len(evaluations) == 2
        assert len(breeds) == 1  # final generation does not breed
        for child in evaluations + breeds:
            assert contained(child, generations)

    def test_engine_metrics(self):
        registry = obs.enable_metrics()
        result = self.run_tiny_engine()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["gp.evaluations"] == result.evaluations
        assert snapshot["counters"]["gp.crossovers"] >= 1
        assert snapshot["histograms"]["gp.eval_seconds"]["count"] == 2
        assert snapshot["histograms"]["gp.breed_seconds"]["count"] == 1
        gauges = snapshot["gauges"]
        assert gauges["gp.population_size"] == 6
        assert gauges["gp.best_fitness"] > 0
        assert gauges["gp.memo_size"] > 0


class TestParallelMerging:
    def test_worker_metrics_merge_without_double_counting(self):
        from repro.metaopt.baselines import BASELINE_TREES
        from repro.metaopt.harness import make_evaluator

        registry = obs.enable_metrics()
        tree = BASELINE_TREES["hyperblock"]()
        with make_evaluator("hyperblock", processes=2) as evaluator:
            evaluator.evaluate_batch(
                [(tree, "codrle4"), (tree, "rawcaudio")])
        counters = registry.snapshot()["counters"]
        # the parent runs baseline compile+sim once per benchmark before
        # forking; the workers' memoized lookups must not re-add them.
        assert counters["harness.compiles"] == 2
        assert counters["harness.sims"] == 2
        assert counters["sim.runs"] == 2
        assert counters["parallel.jobs"] == 2
        assert counters["parallel.batches"] == 1

    def test_worker_fresh_work_is_merged(self):
        from repro.gp.parse import parse
        from repro.metaopt.harness import make_evaluator
        from repro.metaopt.psets import PSETS

        registry = obs.enable_metrics()
        pset = PSETS["hyperblock"]
        candidate = parse("(mul 2.0000 num_ops)", pset.bool_feature_set())
        with make_evaluator("hyperblock", processes=2) as evaluator:
            evaluator.evaluate_batch([(candidate, "codrle4")])
        counters = registry.snapshot()["counters"]
        # baseline (parent, pre-fork) + candidate (worker) compiles both
        # land in the parent registry.
        assert counters["harness.compiles"] == 2
        assert counters["sim.runs"] == 2

    def test_serial_path_needs_no_merging(self):
        from repro.metaopt.baselines import BASELINE_TREES
        from repro.metaopt.harness import make_evaluator

        registry = obs.enable_metrics()
        tree = BASELINE_TREES["hyperblock"]()
        with make_evaluator("hyperblock", processes=1) as evaluator:
            evaluator.evaluate_batch([(tree, "codrle4")])
        counters = registry.snapshot()["counters"]
        assert counters["harness.compiles"] == 1
        assert counters["sim.runs"] == 1
