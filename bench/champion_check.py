"""Check a campaign's champion against paths the campaign did not use.

    python bench/champion_check.py RESULT.json

A process of its own, so nothing the campaign cached can answer for it:

* the champion is re-scored through a fresh harness with pipeline
  snapshots and the fitness cache off, and must reproduce the cycles
  (specialised) or per-program speedups (general-purpose) that
  ``result.json`` records;
* ``run_differential`` compiles each training program under the
  champion and runs it on the reference interpreter and on the
  simulator, on both datasets.  The reference is the interpreter, never
  the path under test.

Prints ``{"ok": bool, "problems": [...]}``; exits 0 when ok.
"""

from __future__ import annotations

import json
import sys


def check(result: dict) -> list[str]:
    from repro.metaopt.harness import EvaluationHarness, case_study
    from repro.metaopt.priority import PriorityFunction
    from repro.metaopt.settings import EvalSettings
    from repro.suite.registry import get as get_benchmark
    from repro.verify.differential import run_differential

    problems = []
    case = case_study(result["case"])
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    tree = PriorityFunction.from_text(result["best_expression"],
                                      case.pset).tree
    if result["mode"] == "specialize":
        programs = [result["benchmark"]]
        cycles = harness.simulate(tree, result["benchmark"], "train").cycles
        if cycles != result["best_cycles_train"]:
            problems.append(
                f"{result['benchmark']}: champion re-scores to {cycles} "
                f"cycles, result.json says {result['best_cycles_train']}")
    else:
        programs = [score["benchmark"] for score in result["training"]]
        for score in result["training"]:
            speedup = harness.speedup(tree, score["benchmark"], "train")
            if speedup != score["train_speedup"]:
                problems.append(
                    f"{score['benchmark']}: champion re-scores to "
                    f"{speedup!r}, result.json says "
                    f"{score['train_speedup']!r}")
    priority = PriorityFunction(tree)

    def champion(env):  # run_differential reports hooks by __name__
        return priority(env)

    options = case.options_for(champion)
    for name in programs:
        program = get_benchmark(name)
        for dataset in ("train", "novel"):
            outcome = run_differential(program.source,
                                       program.inputs(dataset),
                                       options=options, name=name)
            if not outcome.equivalent:
                problems.append(
                    f"{name}/{dataset}: interpreter and simulator "
                    f"disagree: {outcome.divergences[0]}")
    return problems


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        result = json.load(handle)
    problems = check(result)
    print(json.dumps({"ok": not problems, "problems": problems}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
