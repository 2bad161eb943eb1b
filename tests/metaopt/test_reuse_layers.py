"""Every reuse layer under one campaign, counted.

ROADMAP's design aim is "one cache layer per distinct reuse
opportunity, each justified by a measured hit rate".  This runs one
small seeded serial campaign (``regalloc`` on ``codrle4``, population 8,
3 generations) against a fresh fitness-cache directory, cold then warm,
and pins the exact traffic of each layer in ``harness.py``'s list, so a
layer that stops answering — or a new one that answers nothing — shows
up as a changed number here and not in a profile months later.  A
second campaign of the same size on ``hyperblock``, whose hook is the
first backend stage (no snapshot), pins the decision trie that stands
in for the content-digest memo there: a candidate whose if-conversion
verdicts a compile already made is answered with no compile at all, and
every other candidate compiles the whole backend and simulates.

The counts must not depend on set iteration order: CI runs this file
under two ``PYTHONHASHSEED`` values.
"""

import pytest

from repro import obs
from repro.experiments import ExperimentConfig, run_experiment
from repro.gp.engine import GPParams
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.settings import EvalSettings

POPULATION, GENERATIONS = 8, 3


def run_campaign(cache_dir, use_snapshots=True, case="regalloc"):
    config = ExperimentConfig(
        mode="specialize", case=case, benchmark="codrle4",
        params=GPParams(population_size=POPULATION,
                        generations=GENERATIONS, seed=1),
        fitness_cache_dir=cache_dir)
    harness = EvaluationHarness(case_study(config.case), EvalSettings(
        fitness_cache_dir=cache_dir, use_snapshots=use_snapshots))
    payload = run_experiment(config, harness=harness).payload
    outcome = {key: value for key, value in payload.items()
               if key != "config"}
    return harness, outcome


@pytest.fixture(scope="module")
def cold_and_warm(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("fitness-cache"))
    return run_campaign(cache_dir), run_campaign(cache_dir)


def test_cold_campaign_layer_by_layer(cold_and_warm):
    (harness, outcome), _ = cold_and_warm
    stats = harness.stats()
    # engine memo: 24 (tree, benchmark) scorings, 12 distinct dispatched
    assert outcome["evaluations"] == 12
    # cycles memo: candidate + baseline per dispatch, then the final
    # re-scores; every baseline read after the first is a hit
    assert (stats["memo_lookups"], stats["memo_hits"]) == (30, 16)
    # fitness cache: asked once per memo miss, empty, filled
    assert stats["persistent_cache_hits"] == 0
    assert (stats["fitness_cache_misses"],
            stats["fitness_cache_stores"]) == (14, 14)
    # one program, one prefix; every later compile replays it: 12
    # compiles run; the 2 binary answers below run none, as each
    # candidate's train compile linked it to its phenotype record
    assert (stats["snapshot_builds"], stats["snapshot_hits"]) == (1, 11)
    assert len(harness._prepared) == 1
    # content-digest memo: asked once per compile, after regalloc; the
    # final novel scores of 2 phenotypes simulate the binary their
    # train compile left, and count as no compile
    assert (stats["compiles"], stats["digest_hits"],
            stats["binary_hits"]) == (12, 3, 2)
    assert stats["sims"] == 11
    assert stats["compiles"] + stats["binary_hits"] == (
        stats["digest_hits"] + stats["sims"])


def test_warm_campaign_is_answered_by_the_disk_store(cold_and_warm):
    (_, cold_outcome), (harness, outcome) = cold_and_warm
    assert outcome == cold_outcome
    stats = harness.stats()
    assert (stats["memo_lookups"], stats["memo_hits"]) == (30, 16)
    assert (stats["persistent_cache_hits"], stats["fitness_cache_misses"],
            stats["fitness_cache_stores"]) == (14, 0, 0)
    assert (stats["compiles"], stats["sims"]) == (0, 0)
    assert (stats["snapshot_builds"], stats["snapshot_hits"]) == (0, 0)
    assert stats["digest_hits"] == 0
    assert len(harness._prepared) == 0


def test_no_snapshot_switches_forking_and_the_digest_memo_off(
        cold_and_warm):
    (_, cold_outcome), _ = cold_and_warm
    harness, outcome = run_campaign(None, use_snapshots=False)
    assert outcome == cold_outcome
    stats = harness.stats()
    assert not harness._snapshots and "snapshot_builds" not in stats
    assert stats["digest_hits"] == 0
    assert stats["compiles"] == stats["sims"] == 14


def test_first_stage_hook_hits_end_before_regalloc():
    registry = obs.enable_metrics()
    try:
        before = registry.snapshot()["counters"]
        harness, outcome = run_campaign(None, case="hyperblock")
        after = registry.snapshot()["counters"]
    finally:
        obs.disable_metrics()

    def runs(stage: str) -> int:
        name = f"pipeline.pass_runs.{stage}"
        return after.get(name, 0) - before.get(name, 0)

    stats = harness.stats()
    assert outcome["evaluations"] == 12
    assert (stats["snapshot_builds"], stats["snapshot_hits"]) == (0, 0)
    assert (stats["compiles"], stats["digest_hits"], stats["sims"],
            stats["binary_hits"]) == (3, 0, 4, 1)
    # 3 verdict vectors; their 10 repeats are answered by the trie, and
    # the champion's first novel-dataset score simulates the binary its
    # leaf holds, with no compile
    assert (stats["decision_hits"], stats["decision_vectors"]) == (10, 3)
    # every compile runs the whole backend
    assert runs("hyperblock") == runs("regalloc") == runs(
        "schedule") == stats["compiles"]
