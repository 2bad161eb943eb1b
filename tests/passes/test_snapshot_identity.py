"""Compilation-forking identity matrix (docs/FORKING.md).

The contract under test: a suffix replay from a
:class:`~repro.passes.snapshot.PipelineSnapshot` is **bit-identical**
to the full ``compile_backend`` — same scheduled module (content
digest), same :class:`BackendReport`, same simulated cycles, same
fitness-cache keys — for every case study, and the warm path
re-executes zero prefix stages (checked through obs counters).

``REPRO_SNAPSHOT_FULL_MATRIX=1`` widens the benchmark subset (used by
the local full-suite sweep; CI runs the representative subset).
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro import obs
from repro.gp.generate import TreeGenerator
from repro.machine.sim import Simulator
from repro.metaopt.harness import EvaluationHarness, _as_hook, case_study
from repro.metaopt.settings import EvalSettings
from repro.passes.pipeline import STAGE_BY_HOOK, compile_backend
from repro.passes.snapshot import build_snapshot
from repro.suite.registry import get as get_benchmark

CASES = ("hyperblock", "regalloc", "prefetch", "scheduling")

BENCHMARKS = ("codrle4", "huff_enc")
if os.environ.get("REPRO_SNAPSHOT_FULL_MATRIX"):
    from repro.suite import all_benchmarks

    BENCHMARKS = tuple(all_benchmarks())


def _report_data(report) -> tuple:
    """BackendReport as comparable plain data."""
    return tuple(
        sorted((name, dataclasses.asdict(entry))
               for name, entry in getattr(report, section).items())
        for section in ("hyperblock", "prefetch", "regalloc")
    )


def _simulate(scheduled, case, benchmark: str) -> tuple:
    bench = get_benchmark(benchmark)
    simulator = Simulator(scheduled, case.machine)
    for name, values in bench.inputs("train").items():
        simulator.set_global(name, values)
    result = simulator.run()
    return result.cycles, result.outputs, result.return_value


@pytest.mark.parametrize("case_name", CASES)
@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_replay_matches_full_backend(case_name: str, bench_name: str):
    case = case_study(case_name)
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    prep = harness.prepared(bench_name)
    options = case.options_for(_as_hook(case.baseline_tree()))
    stage = STAGE_BY_HOOK[case.hook]

    full_sched, full_report = compile_backend(prep, options)
    snapshot = build_snapshot(prep, options, stage)
    replay_sched, replay_report = compile_backend(prep, options,
                                                  snapshot=snapshot)

    assert replay_sched.content_digest() == full_sched.content_digest()
    assert _report_data(replay_report) == _report_data(full_report)
    # A snapshot must be restorable any number of times.
    again_sched, _ = compile_backend(prep, options, snapshot=snapshot)
    assert again_sched.content_digest() == full_sched.content_digest()


@pytest.mark.parametrize("case_name", CASES)
def test_replay_cycles_match(case_name: str):
    case = case_study(case_name)
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    prep = harness.prepared("codrle4")
    options = case.options_for(_as_hook(case.baseline_tree()))
    stage = STAGE_BY_HOOK[case.hook]

    full_sched, _ = compile_backend(prep, options)
    snapshot = build_snapshot(prep, options, stage)
    replay_sched, _ = compile_backend(prep, options, snapshot=snapshot)
    assert _simulate(replay_sched, case, "codrle4") == \
        _simulate(full_sched, case, "codrle4")


def test_regalloc_snapshot_replays_random_spill_priorities():
    """A ``regalloc`` snapshot carries the allocator's round-one
    analysis, shared by every replay: a dozen random spill priorities
    replayed from one snapshot each match their own full compile
    (``huff_enc`` spills differently under nearly every one)."""
    case = case_study("regalloc")
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    prep = harness.prepared("huff_enc")
    trees = TreeGenerator(case.pset, random.Random(7)) \
        .ramped_half_and_half(12)
    snapshot = build_snapshot(prep, case.options_for(_as_hook(trees[0])),
                              "regalloc")
    assert set(snapshot.allocation_seeds) == set(prep.module.functions)
    digests = set()
    for tree in trees:
        options = case.options_for(_as_hook(tree))
        full_sched, full_report = compile_backend(prep, options)
        replay_sched, replay_report = compile_backend(prep, options,
                                                      snapshot=snapshot)
        assert replay_sched.content_digest() == full_sched.content_digest()
        assert _report_data(replay_report) == _report_data(full_report)
        digests.add(full_sched.content_digest())
    assert len(digests) > 6


def test_verify_ir_checkpoints_fire_on_both_paths():
    case = case_study("regalloc")
    options = dataclasses.replace(
        case.options_for(_as_hook(case.baseline_tree())), verify_ir=True)
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    prep = harness.prepared("codrle4")
    full_sched, _ = compile_backend(prep, options)
    snapshot = build_snapshot(prep, options, "regalloc")
    replay_sched, _ = compile_backend(prep, options, snapshot=snapshot)
    assert replay_sched.content_digest() == full_sched.content_digest()


@pytest.mark.parametrize("case_name", ("regalloc", "scheduling"))
def test_harness_fitness_and_cache_keys_identical(case_name, tmp_path):
    """Snapshots on vs off: same speedups, same persisted cache keys."""
    case = case_study(case_name)
    generator = TreeGenerator(case.pset, random.Random(11))
    trees = [case.baseline_tree()] + generator.ramped_half_and_half(6)
    warm_dir, cold_dir = tmp_path / "snap", tmp_path / "full"
    forked = EvaluationHarness(case, EvalSettings(
        use_snapshots=True, fitness_cache_dir=warm_dir))
    full = EvaluationHarness(case, EvalSettings(
        use_snapshots=False, fitness_cache_dir=cold_dir))
    for tree in trees:
        assert forked.speedup(tree, "codrle4") == \
            full.speedup(tree, "codrle4")
    keys = sorted(p.name for p in warm_dir.rglob("*.json"))
    assert keys == sorted(p.name for p in cold_dir.rglob("*.json"))
    assert keys, "expected persisted fitness entries"


def test_warm_path_runs_zero_prefix_stages():
    """After the snapshot is built (cold), further candidates replay
    only the suffix: the prefix pass counters must not move."""
    case = case_study("regalloc")  # prefix: hyperblock
    generator = TreeGenerator(case.pset, random.Random(5))
    trees = [case.baseline_tree()] + generator.ramped_half_and_half(4)
    registry = obs.enable_metrics()
    try:
        before = registry.snapshot()["counters"]
        harness = EvaluationHarness(case)
        for tree in trees:
            harness.simulate(tree, "codrle4")
        after = registry.snapshot()["counters"]
    finally:
        obs.disable_metrics()

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    compiles = harness.stats()["compiles"]
    assert compiles == len(trees)
    # One prefix execution total (the snapshot build) — zero on the
    # warm path — while the suffix ran once per candidate.
    assert delta("pipeline.pass_runs.hyperblock") == 1
    assert delta("pipeline.pass_runs.regalloc") == compiles
    assert delta("pipeline.pass_runs.schedule") == compiles
    assert delta("pipeline.snapshot.builds") == 1
    assert delta("pipeline.snapshot.restores") == compiles
    # Every replayed allocation started from the snapshot's seed.
    functions = len(harness.prepared("codrle4").module.functions)
    assert delta("pipeline.snapshot.seeded_allocations") == \
        compiles * functions
    assert harness.stats()["snapshot_builds"] == 1
    assert harness.stats()["snapshot_hits"] == compiles - 1


def test_first_stage_hook_takes_the_plain_path():
    """The hyperblock hook is the first backend stage: there is no
    prefix to share, so no snapshot is built, looked up or restored
    and every compile runs the hook's own stage."""
    case = case_study("hyperblock")
    generator = TreeGenerator(case.pset, random.Random(5))
    trees = [case.baseline_tree()] + generator.ramped_half_and_half(4)
    registry = obs.enable_metrics()
    try:
        before = registry.snapshot()["counters"]
        harness = EvaluationHarness(case)
        for tree in trees:
            harness.simulate(tree, "codrle4")
        after = registry.snapshot()["counters"]
    finally:
        obs.disable_metrics()

    def delta(name: str) -> int:
        return after.get(name, 0) - before.get(name, 0)

    compiles = harness.stats()["compiles"]
    assert compiles == len(trees)
    assert delta("pipeline.pass_runs.hyperblock") == compiles
    assert delta("pipeline.snapshot.builds") == 0
    assert delta("pipeline.snapshot.restores") == 0
    assert delta("pipeline.snapshot.seeded_allocations") == 0
    assert harness.stats()["snapshot_builds"] == 0
    assert harness.stats()["snapshot_hits"] == 0
