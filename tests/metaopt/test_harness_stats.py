"""``harness.stats()``, pinned key for key.

Each case drives one harness through a fixed list of evaluations and
pins the whole ``stats()`` dict, so every counter that generation
events, the pool's worker deltas and the daemon's ``/metrics`` read
keeps its meaning.  Every evaluation is answered by exactly one layer
(the cycles memo, the fitness cache, the ``hyperblock`` decision trie,
the content-digest memo, a simulation of a held binary or a compile
and a fresh simulation), so ``memo_lookups == memo_hits +
persistent_cache_hits + digest_hits + decision_hits + sims`` and, as a
held binary's simulation is no compile, ``compiles + binary_hits ==
digest_hits + sims`` in every case.

The digest-hit and decision-hit counts depend on IR digests: CI runs
this file under two ``PYTHONHASHSEED`` values.
"""

import pytest

from repro.gp.genome import FlagsGenome
from repro.gp.parse import parse
from repro.machine import sim as sim_mod
from repro.machine.sim import SimError
from repro.metaopt.harness import EvaluationHarness, case_study
from repro.metaopt.psets import FLAGS_SPACE
from repro.metaopt.settings import EvalSettings
from tests.metaopt.test_verify_guard import corrupted_simulator  # noqa: F401

BENCHMARK = "codrle4"

REGALLOC_TEXTS = (
    "(mul w (add (mul ld_save uses) (mul st_save defs)))",  # the baseline
    "(mul w uses)",
    "(add ld_save st_save)",
    "(sub 0.0 w)",
    "(mul w defs)",
    # the same spill order as two above: answered by the digest memo
    "(mul (add (mul ld_save uses) (mul st_save defs)) w)",
    "(mul 2.0 (mul w uses))",
)

HYPERBLOCK_TEXTS = (
    "exec_ratio",
    "(sub 1.0 exec_ratio)",
    "num_ops",
    "(mul exec_ratio num_ops)",
)

FLAGS_VALUES = (
    (True, 2, True, 0.1, False, "hyperblock-first"),  # the baseline
    (False, 1, True, 0.1, False, "hyperblock-first"),
    (True, 2, False, 0.1, False, "hyperblock-first"),
    (True, 2, True, 0.4, False, "prefetch-first"),
)


def harness_for(case: str, **settings) -> EvaluationHarness:
    return EvaluationHarness(case_study(case), EvalSettings(**settings))


def trees(harness, texts):
    features = harness.case.pset.bool_feature_set()
    return [parse(text, features) for text in texts]


def evaluate(harness, candidates, rounds: int = 2) -> dict:
    """Score every candidate ``rounds`` times; the later rounds are
    answered by the cycles memo."""
    for _ in range(rounds):
        for candidate in candidates:
            harness.speedup(candidate, BENCHMARK)
    stats = harness.stats()
    assert stats["memo_lookups"] == (
        stats["memo_hits"] + stats["persistent_cache_hits"]
        + stats["digest_hits"] + stats["decision_hits"] + stats["sims"])
    assert stats["compiles"] + stats["binary_hits"] == (
        stats["digest_hits"] + stats["sims"])
    return stats


def test_regalloc_forks_cold_then_answers_warm(tmp_path):
    cold = harness_for("regalloc", fitness_cache_dir=tmp_path)
    assert evaluate(cold, trees(cold, REGALLOC_TEXTS)) == {
        "compiles": 7, "sims": 5, "sim_cycles": 143360,
        "memo_lookups": 28, "memo_hits": 21, "persistent_cache_hits": 0,
        "digest_hits": 2, "decision_hits": 0, "binary_hits": 0,
        "snapshot_hits": 6, "snapshot_builds": 1,
        "fitness_cache_misses": 7,
        "fitness_cache_stores": 7}
    warm = harness_for("regalloc", fitness_cache_dir=tmp_path)
    assert evaluate(warm, trees(warm, REGALLOC_TEXTS)) == {
        "compiles": 0, "sims": 0, "sim_cycles": 0,
        "memo_lookups": 28, "memo_hits": 21, "persistent_cache_hits": 7,
        "digest_hits": 0, "decision_hits": 0, "binary_hits": 0,
        "snapshot_hits": 0, "snapshot_builds": 0,
        "fitness_cache_misses": 0,
        "fitness_cache_stores": 0}


def test_hyperblock_first_stage_hook_never_forks():
    """Three verdict vectors among the five trees (baseline included):
    the two repeats are answered by the decision trie, not compiled."""
    harness = harness_for("hyperblock")
    assert evaluate(harness, trees(harness, HYPERBLOCK_TEXTS)) == {
        "compiles": 3, "sims": 3, "sim_cycles": 86260,
        "memo_lookups": 16, "memo_hits": 11, "persistent_cache_hits": 0,
        "digest_hits": 0, "decision_hits": 2, "binary_hits": 0,
        "decision_vectors": 3,
        "snapshot_hits": 0, "snapshot_builds": 0}


def test_flags_genomes_never_touch_the_cache(tmp_path):
    harness = harness_for("flags", fitness_cache_dir=tmp_path)
    genomes = [FlagsGenome(values, FLAGS_SPACE) for values in FLAGS_VALUES]
    assert evaluate(harness, genomes) == {
        "compiles": 4, "sims": 2, "sim_cycles": 57586,
        "memo_lookups": 16, "memo_hits": 12, "persistent_cache_hits": 0,
        "digest_hits": 2, "decision_hits": 0, "binary_hits": 0,
        "snapshot_hits": 0, "snapshot_builds": 0,
        "fitness_cache_misses": 0,
        "fitness_cache_stores": 0}


def test_native_priority_never_probes_the_cache(tmp_path):
    harness = harness_for("hyperblock", fitness_cache_dir=tmp_path)
    # only the baseline half of the speedup is a tree, hence persisted
    assert evaluate(harness, [lambda env: 1.0]) == {
        "compiles": 2, "sims": 2, "sim_cycles": 57346,
        "memo_lookups": 4, "memo_hits": 2, "persistent_cache_hits": 0,
        "digest_hits": 0, "decision_hits": 0, "binary_hits": 0,
        "decision_vectors": 2,
        "snapshot_hits": 0, "snapshot_builds": 0,
        "fitness_cache_misses": 1, "fitness_cache_stores": 1}


def test_diverged_fresh_result_is_not_stored(corrupted_simulator,  # noqa: F811
                                             tmp_path):
    harness = harness_for("hyperblock", verify_outputs=True,
                          fitness_cache_dir=tmp_path)
    assert evaluate(harness, trees(harness, HYPERBLOCK_TEXTS[:2])) == {
        "compiles": 3, "sims": 3, "sim_cycles": 86016,
        "memo_lookups": 8, "memo_hits": 5, "persistent_cache_hits": 0,
        "digest_hits": 0, "decision_hits": 0, "binary_hits": 0,
        "divergences": 3,
        "snapshot_hits": 0, "snapshot_builds": 0,
        "fitness_cache_misses": 3, "fitness_cache_stores": 0}


def test_a_simulation_that_raises_records_nothing(monkeypatch, tmp_path):
    """A raising evaluation answers nothing, so no layer counts it: not
    the lookup, not the compile that ran, not the cache miss.  Only the
    snapshot the compile built is kept (and counted)."""
    def fault(self, entry="main"):
        raise SimError("injected fault")

    monkeypatch.setattr(sim_mod.Simulator, "run", fault)
    harness = harness_for("regalloc", fitness_cache_dir=tmp_path)
    with pytest.raises(SimError, match="injected fault"):
        harness.simulate(harness.baseline_tree(), BENCHMARK)
    assert harness.stats() == {
        "compiles": 0, "sims": 0, "sim_cycles": 0,
        "memo_lookups": 0, "memo_hits": 0, "persistent_cache_hits": 0,
        "digest_hits": 0, "decision_hits": 0, "binary_hits": 0,
        "snapshot_hits": 0, "snapshot_builds": 1,
        "fitness_cache_misses": 0,
        "fitness_cache_stores": 0}
