"""The content-digest memo returns what a full compile would.

The memo keys a phenotype record on the IR right after the hook's stage
(the scheduled binary for cases with no backend hook) and the
benchmark.  On a hit it skips the rest of the backend and the simulator
when the record holds the dataset's result, and the rest of the backend
when it holds the scheduled binary (a case whose probe follows
``schedule`` holds none).  For seeded random candidates of the four
backend cases and ``unroll``, every result of a harness with the memo
on must equal that of a ``use_snapshots=False`` harness (the seed
path), and every hit must be a candidate whose full ``compile_backend``
+ ``Simulator.run`` gives the same scheduled binary and the same cycles
as the candidate that filled the entry.  The backend cases run on two
cheap programs; ``unroll`` on ``huff_enc``, as neither of those asks
its hook.  On ``hyperblock`` the decision trie walks to the memo's key
without compiling, so its hits count here too.

On ``regalloc`` every simulation of a held binary (a ``novel`` score
after the ``train`` one) must equal a full compile and a fresh
simulation on that dataset, a candidate's ``novel`` score must be
recalled through the record its ``train`` compile linked it to with no
compile at all, the LRU of held binaries must stay within its capacity,
and an evicted binary must be compiled again.  Under
noise and under the differential guard no binary is held.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import random

import pytest

from repro.gp.generate import TreeGenerator
from repro.machine.sim import Simulator, _Executor
from repro.metaopt import harness as harness_module
from repro.metaopt.harness import EvaluationHarness, _as_hook, case_study
from repro.metaopt.settings import EvalSettings
from repro.passes.pipeline import compile_backend
from repro.suite.registry import get as get_benchmark

CASES = ("hyperblock", "prefetch", "regalloc", "scheduling", "unroll")
PROGRAMS = ("codrle4", "decodrle4")
#: the unroll hook is asked on no loop of either program above
CASE_PROGRAMS = {"unroll": ("huff_enc",)}
TREES = 8

#: Functions the simulator has translated, while ``count_translations``
#: is on.
TRANSLATED = [0]


@pytest.fixture
def count_translations(monkeypatch):
    real = _Executor._translate_function

    def counted(executor, function):
        TRANSLATED[0] += 1
        return real(executor, function)

    monkeypatch.setattr(_Executor, "_translate_function", counted)


def candidates(case, seed: int) -> list:
    generator = TreeGenerator(case.pset, random.Random(seed))
    return [case.baseline_tree()] + generator.ramped_half_and_half(TREES)


def full_compile(harness, tree, benchmark: str,
                 dataset: str = "train") -> tuple[str, str, object]:
    """(IR digest after the memo stage, scheduled digest, SimResult) of
    the whole backend and a fresh simulation: no snapshot, no memo."""
    case = harness.case
    options = case.options_for(_as_hook(tree))
    prep = (harness._prepare(benchmark, options) if case.steers_prepare
            else harness.prepared(benchmark))
    seen = []
    scheduled, _ = compile_backend(
        prep, options,
        stop_after=(harness._phenotypes.stage,
                    lambda ir: seen.append(ir.content_digest())))
    simulator = Simulator(scheduled, case.machine)
    for name, values in get_benchmark(benchmark).inputs(dataset).items():
        simulator.set_global(name, values)
    return seen[0], scheduled.content_digest(), simulator.run()


def hits_of(harness) -> int:
    """Answers the memo gave: probed after a compile, or reached by a
    ``hyperblock`` decision-trie walk with no compile."""
    stats = harness.stats()
    return stats["digest_hits"] + stats["decision_hits"]


@pytest.mark.parametrize("name", CASES)
def test_memo_hits_return_what_a_full_compile_would(name, hook_calls):
    case = case_study(name)
    memo = EvaluationHarness(case)
    plain = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    assert memo._phenotypes.stage == (case.stage or "schedule")
    assert plain._phenotypes.stage is None

    by_ir: dict[tuple, tuple[str, int]] = {}
    hits = 0
    for benchmark in CASE_PROGRAMS.get(name, PROGRAMS):
        for tree in candidates(case, seed=CASES.index(name)):
            before = hits_of(memo)
            result = memo.simulate(tree, benchmark)
            assert result == plain.simulate(tree, benchmark)
            ir_digest, binary, full = full_compile(memo, tree, benchmark)
            assert result.cycles == full.cycles
            key = (ir_digest, benchmark)
            if hits_of(memo) > before:
                hits += 1
                assert key in by_ir, "a hit on an IR nobody produced"
            # equal post-stage IR, equal binary and cycles: no conflict
            assert by_ir.setdefault(key, (binary, full.cycles)) == (
                binary, full.cycles)

    assert hook_calls, f"no candidate was asked by the {case.hook} hook"
    stats = memo.stats()
    assert hits == hits_of(memo) > 0
    assert stats["compiles"] - stats["digest_hits"] == stats["sims"]
    assert plain.stats()["digest_hits"] == 0
    assert plain.stats()["compiles"] == plain.stats()["sims"]


class CheckedHarness(EvaluationHarness):
    """A harness that keeps every simulation of a held binary:
    (priority, key, answer), and the functions each one translated
    (under ``count_translations``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.binary_answers: list[tuple] = []
        self.binary_translations: list[int] = []

    def _simulate_miss(self, priority, key):
        before = TRANSLATED[0]
        answer = super()._simulate_miss(priority, key)
        if answer.layer == "binary":
            self.binary_answers.append((priority, key, answer))
            self.binary_translations.append(TRANSLATED[0] - before)
        return answer


def test_held_binary_answers_equal_full_compiles(count_translations):
    """Every ``novel`` score after the ``train`` scores of the same
    candidates: a phenotype the train scores compiled is answered by
    its held binary, and that answer is a full compile's.  The binary
    keeps the code its first simulation compiled, so the answer
    translates nothing."""
    case = case_study("regalloc")
    harness = CheckedHarness(case)
    trees = candidates(case, seed=2)
    for dataset in ("train", "novel"):
        for benchmark in PROGRAMS:
            for tree in trees:
                harness.simulate(tree, benchmark, dataset)
    stats = harness.stats()
    assert stats["binary_hits"] == len(harness.binary_answers) > 0
    assert harness.binary_translations == [0] * stats["binary_hits"]
    for tree, (_, benchmark, dataset), answer in harness.binary_answers:
        assert dataset == "novel"
        assert full_compile(harness, tree, benchmark,
                            dataset)[2] == answer.result
    assert stats["compiles"] + stats["binary_hits"] == (
        stats["digest_hits"] + stats["sims"])
    # fewer phenotypes than the LRU's capacity: each one's binary is
    # still held and simulated once, by its first novel score (a later
    # one is a digest hit on that result)
    records = harness._phenotypes.digests.values()
    assert all(record.binary is not None for record in records)
    assert len(records) == stats["binary_hits"]


def test_linked_answers_compile_nothing_and_equal_full_compiles(
        monkeypatch):
    """A candidate's ``train`` compile links it to its phenotype record,
    so its ``novel`` score is recalled from that record (the held
    binary, or the result a twin phenotype's score left) with no call
    of ``compile_backend`` at all, and equals a full compile's."""
    case = case_study("regalloc")
    harness = EvaluationHarness(case)
    trees = candidates(case, seed=2)
    for benchmark in PROGRAMS:
        for tree in trees:
            harness.simulate(tree, benchmark)
    before = harness.stats()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compile_backend(*args, **kwargs)

    monkeypatch.setattr(harness_module, "compile_backend", counted)
    for benchmark in PROGRAMS:
        for tree in trees:
            result = harness.simulate(tree, benchmark, "novel")
            assert result == full_compile(harness, tree, benchmark,
                                          "novel")[2]
    after = harness.stats()
    assert calls == []
    assert after["snapshot_hits"] == before["snapshot_hits"]
    # each record simulates its binary once; its twins read that result
    records = len(harness._phenotypes.digests)
    linked = len(harness._phenotypes.links)
    delta = {name: after[name] - before[name]
             for name in ("binary_hits", "digest_hits", "compiles", "sims")}
    assert records < linked
    assert (delta["binary_hits"], delta["digest_hits"]) == (
        records, linked - records)
    # a digest answer counts in ``compiles`` however its record was
    # found, so both identities hold
    assert (delta["compiles"], delta["sims"]) == (
        linked - records, records)


def test_held_binaries_stay_within_capacity_and_evicted_ones_recompile(
        monkeypatch):
    monkeypatch.setattr(harness_module, "_HELD_BINARY_CAPACITY", 2)
    case = case_study("regalloc")
    harness = EvaluationHarness(case)
    by_record = {}  # one tree per phenotype
    for tree in candidates(case, seed=2):
        harness.simulate(tree, "codrle4")
        assert len(harness._phenotypes.held) <= 2
        ir_digest = full_compile(harness, tree, "codrle4")[0]
        by_record.setdefault(
            harness._phenotypes.digests[ir_digest, "codrle4"], tree)
    held = list(harness._phenotypes.held)
    evicted = [record for record in by_record if record not in held]
    assert len(held) == 2 and evicted
    assert all(record.binary is None for record in evicted)
    for record in held + evicted:
        before = harness.stats()
        result = harness.simulate(by_record[record], "codrle4", "novel")
        after = harness.stats()
        assert len(harness._phenotypes.held) <= 2
        recompiled = record in evicted
        assert after["compiles"] - before["compiles"] == recompiled
        assert after["binary_hits"] - before["binary_hits"] == (
            not recompiled)
        assert record.binary is not None  # held again after a recompile
        assert result == full_compile(harness, by_record[record],
                                      "codrle4", "novel")[2]


def score_train_then_novel(harness, trees) -> dict:
    for dataset in ("train", "novel"):
        for tree in trees:
            harness.simulate(tree, "codrle4", dataset)
    return harness.stats()


@pytest.mark.parametrize("switch", (
    {"noise_stddev": 0.01}, {"verify_outputs": True}))
def test_no_binary_is_held_with_the_memo_off(switch):
    case = case_study("regalloc")
    harness = EvaluationHarness(case, EvalSettings(**switch))
    stats = score_train_then_novel(harness, candidates(case, seed=2))
    assert harness._phenotypes.stage is None
    assert not harness._phenotypes.held and not harness._phenotypes.digests
    assert stats["binary_hits"] == stats["digest_hits"] == 0
    assert stats["compiles"] == stats["sims"] > 0


@pytest.mark.parametrize("name", ("scheduling", "unroll"))
def test_no_binary_is_held_where_the_probe_follows_schedule(name):
    """The probe of these cases sees the scheduled binary itself, so a
    held copy would save no compile."""
    case = case_study(name)
    harness = EvaluationHarness(case)
    stats = score_train_then_novel(harness, candidates(case, seed=2)[:3])
    assert harness._phenotypes.stage == "schedule"
    assert harness._phenotypes.digests and not harness._phenotypes.held
    assert all(record.binary is None
               for record in harness._phenotypes.digests.values())
    assert stats["binary_hits"] == 0
