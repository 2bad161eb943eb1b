"""The content-digest memo returns what a full compile would.

The memo keys a simulation on the IR right after the hook's stage (the
scheduled binary for cases with no backend hook) and, on a hit, skips
the rest of the backend and the simulator.  For seeded random
candidates of the four backend cases and ``unroll``, on two cheap
programs, every result of a harness with the memo on must equal that
of a ``use_snapshots=False`` harness (the seed path), and every hit
must be a candidate whose full ``compile_backend`` + ``Simulator.run``
gives the same scheduled binary and the same cycles as the candidate
that filled the entry.  On ``hyperblock`` the decision trie walks to
the memo's key without compiling, so its hits count here too.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import random

import pytest

from repro.gp.generate import TreeGenerator
from repro.machine.sim import Simulator
from repro.metaopt.harness import EvaluationHarness, _as_hook, case_study
from repro.metaopt.settings import EvalSettings
from repro.passes.pipeline import compile_backend
from repro.suite.registry import get as get_benchmark

CASES = ("hyperblock", "prefetch", "regalloc", "scheduling", "unroll")
PROGRAMS = ("codrle4", "decodrle4")
TREES = 8


def candidates(case, seed: int) -> list:
    generator = TreeGenerator(case.pset, random.Random(seed))
    return [case.baseline_tree()] + generator.ramped_half_and_half(TREES)


def full_compile(harness, tree, benchmark: str) -> tuple[str, str, int]:
    """(IR digest after the memo stage, scheduled digest, cycles) of
    the whole backend and a fresh simulation: no snapshot, no memo."""
    case = harness.case
    options = case.options_for(_as_hook(tree))
    prep = (harness._prepare(benchmark, options) if case.steers_prepare
            else harness.prepared(benchmark))
    seen = []
    scheduled, _ = compile_backend(
        prep, options,
        stop_after=(harness._memo_stage,
                    lambda ir: seen.append(ir.content_digest())))
    simulator = Simulator(scheduled, case.machine)
    for name, values in get_benchmark(benchmark).inputs("train").items():
        simulator.set_global(name, values)
    return seen[0], scheduled.content_digest(), simulator.run().cycles


def hits_of(harness) -> int:
    """Answers the memo gave: probed after a compile, or reached by a
    ``hyperblock`` decision-trie walk with no compile."""
    stats = harness.stats()
    return stats["digest_hits"] + stats["decision_hits"]


@pytest.mark.parametrize("name", CASES)
def test_memo_hits_return_what_a_full_compile_would(name):
    case = case_study(name)
    memo = EvaluationHarness(case)
    plain = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    assert memo._memo_stage == (case.stage or "schedule")
    assert plain._memo_stage is None

    by_ir: dict[tuple, tuple[str, int]] = {}
    hits = 0
    for benchmark in PROGRAMS:
        for tree in candidates(case, seed=CASES.index(name)):
            before = hits_of(memo)
            result = memo.simulate(tree, benchmark)
            assert result == plain.simulate(tree, benchmark)
            ir_digest, binary, cycles = full_compile(memo, tree, benchmark)
            assert result.cycles == cycles
            key = (ir_digest, benchmark)
            if hits_of(memo) > before:
                hits += 1
                assert key in by_ir, "a hit on an IR nobody produced"
            # equal post-stage IR, equal binary and cycles: no conflict
            assert by_ir.setdefault(key, (binary, cycles)) == (
                binary, cycles)

    stats = memo.stats()
    assert hits == hits_of(memo) > 0
    assert stats["compiles"] - stats["digest_hits"] == stats["sims"]
    assert plain.stats()["digest_hits"] == 0
    assert plain.stats()["compiles"] == plain.stats()["sims"]
