"""References for the serve workload, from outside the daemon.

    python bench/serve_check.py sources NAME...
        the suite programs the ``compile`` requests send: source, training
        inputs, and what the reference interpreter outputs for them.

    python bench/serve_check.py verify FILE
        FILE holds sampled batch items ``{"case", "items": [{"tree",
        "benchmark", "value"}]}``; each is scored again through a fresh
        harness with snapshots and the fitness cache off, and must give
        the value the daemon streamed.

A process of its own: the load generator stays a plain HTTP client and
the daemon's caches cannot answer for themselves.
"""

from __future__ import annotations

import json
import sys


def sources(names: list[str]) -> dict:
    from repro.compiler import interpret
    from repro.suite.registry import get as get_benchmark

    found = {}
    for name in names:
        program = get_benchmark(name)
        inputs = program.inputs("train")
        reference = interpret(program.source, inputs)
        found[name] = {
            "source": program.source,
            "inputs": inputs,
            "outputs": reference.outputs,
            "return_value": reference.return_value,
        }
    return found


def verify(sample: dict) -> list[str]:
    from repro.metaopt.harness import EvaluationHarness, case_study
    from repro.metaopt.priority import PriorityFunction
    from repro.metaopt.settings import EvalSettings

    case = case_study(sample["case"])
    harness = EvaluationHarness(case, EvalSettings(use_snapshots=False))
    problems = []
    for item in sample["items"]:
        tree = PriorityFunction.from_text(item["tree"], case.pset).tree
        value = harness.speedup(tree, item["benchmark"], "train")
        if value != item["value"]:
            problems.append(
                f"{item['benchmark']} under {item['tree']}: daemon said "
                f"{item['value']!r}, a fresh harness says {value!r}")
    return problems


def main(argv: list[str]) -> int:
    if argv[0] == "sources":
        print(json.dumps(sources(argv[1:])))
        return 0
    with open(argv[1]) as handle:
        problems = verify(json.load(handle))
    print(json.dumps({"ok": not problems, "problems": problems}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
