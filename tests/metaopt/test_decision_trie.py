"""The ``hyperblock`` decision trie answers what a full compile would.

A ``hyperblock`` candidate's phenotype is its sequence of if-conversion
verdicts.  The harness keeps, per benchmark, a trie of the sequences
its compiles made: a node holds the region the pass evaluates next (the
function, both paths' ``PathInfo`` and ``head_ops``), an edge is a
verdict and a leaf the simulations of that phenotype, by dataset.  A
candidate walks it calling only its priority and :func:`decide`, and a
walk that reaches a leaf holding its dataset is answered with no
compile; the trie is the case's only phenotype memo, so a campaign
digests no IR and never stops a compile early.

Every trie hit below is compiled in full and simulated again: the
result must be the leaf's.  ``decide`` must replay each verdict and
reason the pass recorded, for random trees and for priorities that
raise or return NaN.  The trie must stay off wherever the phenotype
memos are off, and must walk with the hook a compile would install (a
heuristic artifact's, when the case sets one).

The passes iterate sets of IR values, which follow the hash seed: CI
runs this file under two ``PYTHONHASHSEED`` values.
"""

import dataclasses
import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentConfig, MemorySink, run_experiment
from repro.gp.engine import GPParams
from repro.gp.generate import TreeGenerator
from repro.gp.genome import FlagsGenome, expression_text
from repro.ir.function import Module
from repro.machine.sim import Simulator
from repro.metaopt import harness as harness_module
from repro.metaopt.harness import EvaluationHarness, _as_hook, case_study
from repro.metaopt.psets import FLAGS_SPACE
from repro.metaopt.settings import EvalSettings
from repro.passes.hyperblock import DEFAULT_MAX_OPS, decide
from repro.passes.pipeline import compile_backend
from repro.serve.artifact import build_artifact
from repro.suite.registry import get as get_benchmark

PROGRAMS = ("codrle4", "huff_enc")


class CheckedHarness(EvaluationHarness):
    """A harness that keeps every trie hit: (priority, key, leaf,
    answer)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hits: list[tuple] = []
        self._leaf = None

    def _walk_decisions(self, benchmark, options):
        self._leaf = super()._walk_decisions(benchmark, options)
        return self._leaf

    def _simulate_miss(self, priority, key):
        self._leaf = None
        answer = super()._simulate_miss(priority, key)
        if answer.layer == "decisions":
            self.hits.append((priority, key, self._leaf, answer))
        return answer


def full_compile(harness, priority, benchmark: str, dataset: str):
    """The SimResult of the whole backend and a fresh simulation: no
    trie, no memo."""
    options = harness.case.options_for(_as_hook(priority))
    scheduled, _ = compile_backend(harness.prepared(benchmark), options)
    simulator = Simulator(scheduled, harness.case.machine)
    for name, values in get_benchmark(benchmark).inputs(dataset).items():
        simulator.set_global(name, values)
    return simulator.run()


def assert_hits_compile_to_their_leaves(harness) -> None:
    assert harness.hits, "expected the trie to answer something"
    for priority, (_, benchmark, dataset), leaf, answer in harness.hits:
        assert leaf[dataset] is answer.result
        assert full_compile(harness, priority, benchmark,
                            dataset) == answer.result
    stats = harness.stats()
    assert stats["decision_hits"] == len(harness.hits)
    assert stats["compiles"] == stats["digest_hits"] + stats["sims"]


# -- equivalence ---------------------------------------------------------


@pytest.mark.parametrize("program", PROGRAMS)
def test_campaign_trie_hits_equal_full_compiles(program):
    harness = CheckedHarness(case_study("hyperblock"))
    config = ExperimentConfig(
        mode="specialize", case="hyperblock", benchmark=program,
        params=GPParams(population_size=8, generations=3, seed=1))
    run_experiment(config, harness=harness)
    assert_hits_compile_to_their_leaves(harness)


def test_campaign_digests_no_ir_and_stops_no_compile(monkeypatch):
    digests, stops = [], []
    content_digest = Module.content_digest
    compile_backend_ = harness_module.compile_backend

    def counted_digest(module):
        digests.append(module.name)
        return content_digest(module)

    def recorded_compile(*args, stop_after=None, **kwargs):
        stops.append(stop_after)
        return compile_backend_(*args, stop_after=stop_after, **kwargs)

    monkeypatch.setattr(Module, "content_digest", counted_digest)
    monkeypatch.setattr(harness_module, "compile_backend", recorded_compile)
    harness = EvaluationHarness(case_study("hyperblock"))
    config = ExperimentConfig(
        mode="specialize", case="hyperblock", benchmark="codrle4",
        params=GPParams(population_size=8, generations=3, seed=1))
    run_experiment(config, harness=harness)
    stats = harness.stats()
    assert stats["decision_hits"] > 0
    assert len(stops) == stats["compiles"] == stats["sims"] > 0
    assert stops == [None] * len(stops)
    assert digests == []


@pytest.mark.parametrize("program", PROGRAMS)
def test_random_tree_replay_trie_hits_equal_full_compiles(program):
    """The random trees ``test_snapshot_identity.py`` replays, on the
    ``hyperblock`` case; each scored on both datasets."""
    case = case_study("hyperblock")
    harness = CheckedHarness(case)
    trees = [case.baseline_tree()] + TreeGenerator(
        case.pset, random.Random(7)).ramped_half_and_half(12)
    for dataset in ("train", "novel"):
        for tree in trees:
            harness.simulate(tree, program, dataset)
    assert_hits_compile_to_their_leaves(harness)
    stats = harness.stats()
    # the novel dataset's first score of each vector still compiles
    assert stats["decision_vectors"] * 2 == stats["compiles"]


# -- decide replays the pass ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _prepared(benchmark: str):
    case = case_study("hyperblock")
    return case, EvaluationHarness(case).prepared(benchmark)


def assert_decide_replays_the_pass(priority) -> None:
    for benchmark in PROGRAMS:
        case, prep = _prepared(benchmark)
        options = case.options_for(priority)
        _, report = compile_backend(prep, options,
                                    stop_after=("hyperblock",
                                                lambda ir: True))
        decisions = [decision for formation in report.hyperblock.values()
                     for decision in formation.decisions]
        assert decisions
        for decision in decisions:
            assert decide(
                decision.paths, options.hyperblock_priority,
                options.machine, options.hyperblock_threshold,
                DEFAULT_MAX_OPS, decision.head_ops) == (
                decision.priorities, decision.converted, decision.reason)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_decide_replays_the_pass_for_random_trees(seed):
    generator = TreeGenerator(case_study("hyperblock").pset,
                              random.Random(seed))
    tree = generator.ramped_half_and_half(1)[0]
    assert_decide_replays_the_pass(_as_hook(tree))


def _raises(env):
    return 1.0 / 0.0


def _nan(env):
    return float("nan")


def _raises_on_the_larger_path(env):
    return env["exec_ratio"] / (env["num_ops"] - env["num_ops_max"])


def _nan_on_the_larger_path(env):
    if env["num_ops"] == env["num_ops_max"]:
        return float("nan")
    return env["exec_ratio"]


@pytest.mark.parametrize("priority", (
    _raises, _nan, _raises_on_the_larger_path, _nan_on_the_larger_path))
def test_decide_replays_the_pass_for_raising_and_nan_priorities(priority):
    assert_decide_replays_the_pass(priority)


# -- when the trie is off ------------------------------------------------


@pytest.fixture
def trie_untouched(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decision trie was consulted")

    monkeypatch.setattr(EvaluationHarness, "_walk_decisions", refuse)
    monkeypatch.setattr(EvaluationHarness, "_record_decisions", refuse)


def score_twice(harness, candidates) -> dict:
    for _ in range(2):
        for candidate in candidates:
            harness.speedup(candidate, "codrle4")
    return harness.stats()


@pytest.mark.parametrize("switch", (
    {"noise_stddev": 0.01}, {"verify_outputs": True},
    {"use_snapshots": False}))
def test_trie_is_off_with_the_hyperblock_digest_memo(trie_untouched,
                                                     switch):
    case = case_study("hyperblock")
    harness = EvaluationHarness(case, EvalSettings(**switch))
    trees = [case.baseline_tree()] + TreeGenerator(
        case.pset, random.Random(7)).ramped_half_and_half(4)
    stats = score_twice(harness, trees)
    assert harness._memo_stage is None
    assert stats["decision_hits"] == 0
    assert "decision_vectors" not in stats
    assert stats["compiles"] == stats["sims"] > 0


@pytest.mark.parametrize("name", (
    "regalloc", "prefetch", "scheduling", "unroll", "flags"))
def test_trie_is_off_in_other_cases(trie_untouched, name):
    case = case_study(name)
    harness = EvaluationHarness(case)
    if case.tree_valued:
        candidates = [case.baseline_tree()] + TreeGenerator(
            case.pset, random.Random(7)).ramped_half_and_half(2)
    else:
        candidates = [FlagsGenome(values, FLAGS_SPACE) for values in (
            (True, 2, True, 0.1, False, "hyperblock-first"),
            (False, 1, True, 0.1, False, "hyperblock-first"))]
    stats = score_twice(harness, candidates)
    assert harness._memo_stage != "hyperblock"
    assert stats["decision_hits"] == 0
    assert "decision_vectors" not in stats
    assert stats["compiles"] > 0


def test_walk_uses_the_hook_a_heuristic_artifact_installs():
    """With ``heuristic_artifact`` set, every compile runs the
    artifact's priority, whatever the candidate: the walk must too.
    The candidates' own verdicts differ (each converts nothing or
    everything its budget allows), so a walk with the raw candidate
    would leave the trie and compile; with the artifact's priority the
    second candidate is a trie hit and the candidates are never
    called."""
    stock = case_study("hyperblock")
    artifact = build_artifact(
        case="hyperblock", expression=expression_text(stock.baseline_tree()),
        machine=stock.machine, created_at=0.0)
    case = dataclasses.replace(stock, options=dataclasses.replace(
        stock.options, heuristic_artifact=artifact))
    calls = []

    def counted(value):
        def priority(env):
            calls.append(value)
            return value
        return priority

    never, always = counted(-1.0), counted(1.0)
    # the raw candidates do walk to different leaves of a stock harness
    plain = EvaluationHarness(stock)
    for priority in (never, always):
        plain.simulate(priority, "codrle4")
    assert plain.stats()["decision_vectors"] == 2
    calls.clear()

    harness = CheckedHarness(case)
    for priority in (never, always):
        harness.simulate(priority, "codrle4")
    assert calls == []
    stats = harness.stats()
    assert (stats["compiles"], stats["decision_hits"],
            stats["decision_vectors"]) == (1, 1, 1)
    # the full compile installs the artifact in compile_backend
    assert_hits_compile_to_their_leaves(harness)
    assert calls == []


# -- counters -------------------------------------------------------------


def test_decision_counters_reach_generation_events_not_result_json():
    sink = MemorySink()
    config = ExperimentConfig(
        mode="specialize", case="hyperblock", benchmark="codrle4",
        params=GPParams(population_size=6, generations=2, seed=1))
    result = run_experiment(config, sinks=(sink,))
    counters = [event["counters"] for event in sink.of_type("generation")]
    assert sum(c["decision_hits"] for c in counters) > 0
    assert sum(c["decision_vectors"] for c in counters) > 0
    payload = json.dumps(result.payload)
    assert "decision_hits" not in payload
    assert "decision_vectors" not in payload

