"""One branch-count record in every executor.

The timing simulator, the profiling form and the interpreter each keep,
per function, its number of calls and, per ``BR``, the record ``[2-bit
state, mispredictions, taken, not taken]``.  Run on the same module in
:func:`~repro.machine.sim.program_order` (the timing form too, so its
blocks are the interpreter's), the three must count the same: over
every suite program on both datasets and every regression-corpus
program, each function's calls and each branch's record, in the same
order, up to a fault too."""

import json
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.ir.instr import Opcode
from repro.ir.interp import Interpreter, InterpError
from repro.machine.descr import DEFAULT_EPIC
from repro.machine.sim import ProfilingRun, SimError, Simulator, program_order
from repro.passes.pipeline import prepare
from repro.suite.registry import all_benchmarks, get as get_benchmark

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def branch_records(executor) -> list:
    """Per function entered, in that order: its calls and, per ``BR`` in
    block order, the branch's uid and record."""
    return [(name, calls, [(instr.uid, counter)
                           for _label, instr, counter in rows
                           if instr.op is Opcode.BR])
            for name, (calls, rows) in executor.control_counts().items()]


def assert_one_record(module, inputs):
    executors = (Interpreter(module), ProfilingRun(module),
                 Simulator(program_order(module), DEFAULT_EPIC))
    for executor in executors:
        for name, values in inputs.items():
            executor.set_global(name, values)
        try:
            executor.run()
        except (InterpError, SimError):
            pass  # the counts up to the fault are compared too
    reference, profiled, timed = map(branch_records, executors)
    assert reference  # main was entered
    assert profiled == reference
    assert timed == reference
    return reference


@pytest.mark.parametrize("bench_name", sorted(all_benchmarks()))
def test_suite_branch_records_agree(bench_name):
    bench = get_benchmark(bench_name)
    train = bench.inputs("train")
    module = prepare(compile_source(bench.source, bench.name), train).module
    for inputs in (train, bench.inputs("novel")):
        records = assert_one_record(module, inputs)
        assert any(rows for _name, _calls, rows in records)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.mc")),
                         ids=lambda path: path.stem)
def test_corpus_branch_records_agree(path):
    inputs = json.loads(path.with_suffix(".inputs.json").read_text())
    module = prepare(compile_source(path.read_text(), path.stem),
                     inputs).module
    assert_one_record(module, inputs)
