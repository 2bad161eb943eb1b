"""Golden-file regression tests for the baseline heuristic decisions.

The paper's three case studies each replace one hand-written priority
function; everything downstream (which regions convert, which ranges
get colours, which loads get prefetches) hangs off those numbers.
These tests pin, for every benchmark in the suite, the decisions each
baseline heuristic makes:

* **hyperblock** — Equation 1 path priorities (rounded) and the
  convert/reject verdict for every region the pass considered;
* **regalloc**  — Equation 2 savings (rounded) for every constrained
  live range, plus which ranges spilled;
* **prefetch**  — the Boolean verdict for every candidate load;
* **inline**    — the size-threshold priority (rounded) and the
  inline/reject verdict for every legal call site;
* **unroll**    — the per-candidate-factor scores (rounded) and the
  chosen factor for every analyzable loop.

Beside the decisions, each entry pins what they produce and what they
are judged against:

* **binary_digest** — ``content_digest()`` of the scheduled binary each
  of the three backend cases compiles, so a representation change in
  the IR or a pass cannot move a schedule unnoticed;
* **reference** — the reference interpreter's observables on the
  prepared module (``train``: the profiling run ``prepare`` already
  made, so only what :class:`~repro.ir.interp.RunResult` carries;
  ``novel``: one run, with fault text and final globals) and a
  uid-free digest of the training profile.  The interpreter is the
  differential oracle's reference side: *what* it computes must not
  move when *how* it computes changes;
* **timing** — what the simulator charges each of those three binaries
  on its own case's machine, on ``train`` and ``novel``: cycles, the
  two stall totals, operation and access counts, and the L1 and
  predictor tallies as integers.  Digests pin the code and the
  reference pins the values; this pins the one thing left, the cycle
  model, against a change in how it is computed.

A diff here means the *heuristic input features, the decision logic,
the emitted code or the reference semantics changed*, which silently
shifts every published number in the repro.
When the change is intentional, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens

and review the JSON diff like any other code change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.frontend import compile_source
from repro.ir.interp import Interpreter, InterpError
from repro.machine.sim import SimError, Simulator
from repro.metaopt.harness import case_study
from repro.passes.pipeline import compile_backend, prepare
from repro.suite.registry import all_benchmarks, get as get_benchmark

GOLDEN_PATH = Path(__file__).parent / "baseline_decisions.json"

#: Decision values are rounded before pinning so the goldens survive
#: harmless float-formatting churn but still catch real changes.
DIGITS = 6

BENCHMARKS = sorted(all_benchmarks())


def _hyperblock_entry(report):
    return [
        {
            "head": decision.head,
            "join": decision.join,
            "priorities": [round(p, DIGITS) for p in decision.priorities],
            "converted": decision.converted,
        }
        for decision in report.decisions
    ]


def _regalloc_entry(report):
    return {
        "constrained": report.constrained,
        "spilled": sorted(report.spilled),
        "priorities": {
            reg: round(priority, DIGITS)
            for reg, priority in sorted(report.priorities.items())
        },
    }


def _prefetch_entry(report):
    return [[label, verdict] for label, verdict in report.decisions]


def _inline_entry(report):
    return [
        {
            "caller": decision.caller,
            "callee": decision.callee,
            "priority": round(decision.priority, DIGITS),
            "inlined": decision.inlined,
        }
        for decision in report.decisions
    ]


def _unroll_entry(report):
    return [
        {
            "function": decision.function,
            "header": decision.header,
            "trip_count": decision.trip_count,
            "priorities": {
                str(factor): round(priority, DIGITS)
                for factor, priority in sorted(decision.priorities.items())
            },
            "factor": decision.factor,
        }
        for decision in report.decisions
    ]


def _sha256(payload) -> str:
    """Digest of a plain value (ints, floats, strings, lists, tuples):
    ``repr`` of those is exact and the same in every process."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _train_reference(prepared) -> str:
    """The profiling run's observables; ``None`` when it faulted (the
    profiler keeps no fault text and no interpreter to read back)."""
    run = prepared.profile.run_result
    if run is None:
        return _sha256(None)
    return _sha256((run.return_value, run.outputs, run.steps,
                    run.blocks_executed))


def _novel_reference(prepared, inputs) -> str:
    """One reference run on the novel dataset: return value, ``out``
    stream, step and block counts, fault text and final globals."""
    interp = Interpreter(prepared.module)
    for name, values in inputs.items():
        interp.set_global(name, values)
    return_value, fault = None, None
    try:
        return_value = interp.run().return_value
    except InterpError as exc:
        fault = str(exc)
    final_globals = [(name, interp.read_global(name))
                     for name in prepared.module.globals]
    return _sha256((return_value, interp.outputs, interp.steps,
                    interp.blocks_executed, fault, final_globals))


def _profile_digest(prepared) -> str:
    """The training profile without instruction uids (process-local
    counters): per function, edge and block counts, loop trips, and
    each profiled branch's taken ratio and predictor accuracy in
    instruction order."""
    functions = []
    for name in sorted(prepared.module.functions):
        profile = prepared.profile.functions.get(name)
        if profile is None:
            functions.append((name, None))
            continue
        branches = [
            (profile.branch_taken_ratio.get(instr.uid),
             profile.branch_accuracy.get(instr.uid))
            for instr in prepared.module.functions[name].instructions()
            if instr.uid in profile.branch_taken_ratio
            or instr.uid in profile.branch_accuracy
        ]
        functions.append((
            name,
            sorted(profile.edge_counts.items()),
            sorted(profile.block_counts.items()),
            sorted(profile.loop_trips.items()),
            branches,
        ))
    return _sha256((prepared.profile.total_steps, functions))


#: ``SimResult`` fields pinned as they are (all integers).
_TIMING_FIELDS = ("cycles", "memory_stall_cycles", "branch_stall_cycles",
                  "dynamic_ops", "squashed_ops", "load_count",
                  "prefetch_count")

#: Integer tallies behind ``SimResult``'s two float rates, read off the
#: ``sim.*`` obs counters of a registry that saw this one run.
_TIMING_COUNTERS = {
    "l1_hits": "sim.l1_hits",
    "branch_predictions": "sim.branch_predictions",
    "branch_mispredictions": "sim.branch_mispredicts",
}


def _timing(scheduled, machine, inputs) -> dict:
    """One simulation's timing observables, integers only."""
    simulator = Simulator(scheduled, machine)
    for name, values in inputs.items():
        simulator.set_global(name, values)
    outer = obs.disable_metrics()
    registry = obs.enable_metrics()
    try:
        result = simulator.run()
    except SimError as exc:
        return {"fault": str(exc)}
    finally:
        obs.disable_metrics()
        if outer is not None:
            obs.enable_metrics(outer)
    counters = registry.snapshot()["counters"]
    timing = {name: getattr(result, name) for name in _TIMING_FIELDS}
    timing.update((name, counters[counter])
                  for name, counter in _TIMING_COUNTERS.items())
    return timing


def baseline_decisions(benchmark: str) -> dict:
    """All five baseline heuristics' decisions on one benchmark, the
    digests of the three binaries they lead to, what the simulator
    charges those binaries, and the reference interpreter's
    observables.

    The prepare-stage passes (inline, unroll) read their reports off
    :class:`~repro.passes.pipeline.PreparedProgram`; the backend cases
    read theirs off the compile report.
    """
    bench = get_benchmark(benchmark)
    entry = {"binary_digest": {}, "timing": {}}
    for case_name in ("hyperblock", "regalloc", "prefetch"):
        case = case_study(case_name)
        module = compile_source(bench.source, bench.name)
        prepared = prepare(module, bench.inputs("train"), case.options)
        scheduled, report = compile_backend(prepared)
        entry["binary_digest"][case_name] = scheduled.content_digest()
        entry["timing"][case_name] = {
            dataset: _timing(scheduled, case.machine, bench.inputs(dataset))
            for dataset in ("train", "novel")
        }
        if case_name == "hyperblock":
            entry["hyperblock"] = {
                name: _hyperblock_entry(rep)
                for name, rep in sorted(report.hyperblock.items())
                if rep.decisions
            }
            # prepare-stage decisions are candidate-independent of the
            # backend case, so one prepared program pins both
            entry["inline"] = _inline_entry(prepared.inline_report)
            entry["unroll"] = _unroll_entry(prepared.unroll_report)
            # ...and so is the prepared module the reference runs on
            entry["reference"] = {
                "train": _train_reference(prepared),
                "novel": _novel_reference(prepared, bench.inputs("novel")),
                "profile": _profile_digest(prepared),
            }
        elif case_name == "regalloc":
            entry["regalloc"] = {
                name: _regalloc_entry(rep)
                for name, rep in sorted(report.regalloc.items())
                if rep.constrained or rep.spilled
            }
        else:
            entry["prefetch"] = {
                name: _prefetch_entry(rep)
                for name, rep in sorted(report.prefetch.items())
                if rep.decisions
            }
    return entry


def load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def store_golden(benchmark: str, entry: dict) -> None:
    goldens = load_goldens()
    goldens[benchmark] = entry
    GOLDEN_PATH.write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n")


# the parameter is named bench_name (not "benchmark") to stay clear
# of the pytest-benchmark plugin's fixture of that name
@pytest.mark.parametrize("bench_name", BENCHMARKS)
def test_baseline_decisions(bench_name, update_goldens):
    entry = baseline_decisions(bench_name)
    if update_goldens:
        store_golden(bench_name, entry)
        return
    goldens = load_goldens()
    assert bench_name in goldens, (
        f"no golden entry for {bench_name!r}; run pytest tests/golden "
        "--update-goldens")
    assert entry == goldens[bench_name], (
        f"baseline heuristic decisions changed on {bench_name!r}; if "
        "intentional, regenerate with --update-goldens and review the "
        "JSON diff")


def test_goldens_cover_exactly_the_suite():
    """The golden file tracks the benchmark registry 1:1 — a new
    benchmark must get an entry, a removed one must drop its stale
    entry."""
    assert sorted(load_goldens()) == BENCHMARKS


def test_goldens_have_decisions_somewhere():
    """Sanity: the pinned file is not vacuously empty."""
    goldens = load_goldens()
    assert any(entry["hyperblock"] for entry in goldens.values())
    assert any(entry["regalloc"] for entry in goldens.values())
    assert any(entry["prefetch"] for entry in goldens.values())
    assert any(entry["inline"] for entry in goldens.values())
    assert any(entry["unroll"] for entry in goldens.values())
    for entry in goldens.values():
        assert sorted(entry["binary_digest"]) == [
            "hyperblock", "prefetch", "regalloc"]
        assert sorted(entry["reference"]) == ["novel", "profile", "train"]
        assert sorted(entry["timing"]) == [
            "hyperblock", "prefetch", "regalloc"]
