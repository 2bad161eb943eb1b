"""Pipeline driver: prepare/backend split, option plumbing, and
end-to-end equivalence."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.frontend import compile_source
from repro.ir.interp import Interpreter
from repro.machine.descr import CASE_NAMES, DEFAULT_EPIC, ITANIUM_MACHINE
from repro.machine.sim import Simulator
from repro.passes.hyperblock import impact_priority
from repro.passes.pipeline import (
    CompilerOptions,
    compile_backend,
    compile_module,
    prepare,
)
from repro.passes.prefetch import orc_confidence
from repro.passes.regalloc import chow_hennessy_savings

SOURCE = """
int data[256];
int n;
int weight(int x) { return x * 3 - 1; }
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 6) { acc = acc + weight(data[i]); } else { acc = acc - 1; }
  }
  out(acc);
}
"""

INPUTS = {"data": [(i * 37) % 13 for i in range(256)], "n": [200]}


def reference(source=SOURCE, inputs=INPUTS):
    module = compile_source(source)
    interp = Interpreter(module)
    for name, values in inputs.items():
        interp.set_global(name, values)
    return interp.run()


def simulate(scheduled, machine, inputs=INPUTS):
    simulator = Simulator(scheduled, machine)
    for name, values in inputs.items():
        simulator.set_global(name, values)
    return simulator.run()


class TestOptions:
    def test_defaults(self):
        options = CompilerOptions()
        assert options.machine is DEFAULT_EPIC
        assert options.hyperblock is True
        assert options.prefetch is False
        assert options.hyperblock_priority is None
        assert options.spill_priority is None
        assert options.prefetch_priority is None

    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_none_is_the_stock_heuristic(self, case):
        """A ``None`` hook and the named stock callable compile a suite
        program to the same binary on every case's machine and
        options (prefetching on for the prefetch case)."""
        from repro.metaopt.harness import case_study
        from repro.suite.registry import get as get_benchmark

        bench = get_benchmark("huff_enc")
        stock = case_study(case).options
        named = dataclasses.replace(
            stock, hyperblock_priority=impact_priority,
            spill_priority=chow_hennessy_savings,
            prefetch_priority=orc_confidence)
        digests = {
            compile_module(compile_source(bench.source, bench.name),
                           bench.inputs("train"), options)[0]
            .content_digest()
            for options in (stock, named)}
        assert len(digests) == 1


class TestPrepare:
    def test_input_module_not_mutated(self):
        module = compile_source(SOURCE)
        count = module.functions["main"].instruction_count()
        prepare(module, INPUTS)
        assert module.functions["main"].instruction_count() == count

    def test_profile_collected(self):
        module = compile_source(SOURCE)
        prepared = prepare(module, INPUTS)
        profile = prepared.profile.function("main")
        assert profile.block_counts
        assert profile.branch_accuracy

    def test_inlining_happened(self):
        from repro.ir.instr import Opcode

        module = compile_source(SOURCE)
        prepared = prepare(module, INPUTS)
        main = prepared.module.functions["main"]
        assert not any(i.op is Opcode.CALL for i in main.instructions())

    def test_inline_disabled(self):
        from repro.ir.instr import Opcode

        module = compile_source(SOURCE)
        options = CompilerOptions(inline=False)
        prepared = prepare(module, INPUTS, options)
        main = prepared.module.functions["main"]
        assert any(i.op is Opcode.CALL for i in main.instructions())


class TestBackend:
    def test_prepared_module_unchanged_by_backend(self):
        module = compile_source(SOURCE)
        prepared = prepare(module, INPUTS)
        snapshot = prepared.module.functions["main"].instruction_count()
        compile_backend(prepared)
        compile_backend(
            prepared,
            dataclasses.replace(prepared.options,
                                hyperblock_priority=lambda env: 1.0),
        )
        assert prepared.module.functions["main"].instruction_count() \
            == snapshot

    def test_reports_populated(self):
        module = compile_source(SOURCE)
        prepared = prepare(module, INPUTS)
        _scheduled, report = compile_backend(prepared)
        assert "main" in report.hyperblock
        assert "main" in report.regalloc

    def test_equivalence_across_priorities(self):
        ref = reference()
        module = compile_source(SOURCE)
        prepared = prepare(module, INPUTS)
        priorities = [
            impact_priority,
            lambda env: 1.0,
            lambda env: -1.0,
            lambda env: env["exec_ratio"],
        ]
        for priority in priorities:
            scheduled, _report = compile_backend(
                prepared,
                dataclasses.replace(prepared.options,
                                    hyperblock_priority=priority),
            )
            result = simulate(scheduled, DEFAULT_EPIC)
            assert result.output_signature() == ref.output_signature()

    def test_novel_dataset_on_train_profile(self):
        """The paper's methodology: profile on train data, evaluate the
        same binary on novel data."""
        novel = {"data": [(i * 11) % 17 for i in range(256)], "n": [220]}
        module = compile_source(SOURCE)
        prepared = prepare(module, INPUTS)
        scheduled, _report = compile_backend(prepared)
        ref = reference(inputs=novel)
        result = simulate(scheduled, DEFAULT_EPIC, inputs=novel)
        assert result.output_signature() == ref.output_signature()

    def test_hyperblock_disabled(self):
        module = compile_source(SOURCE)
        options = CompilerOptions(hyperblock=False)
        prepared = prepare(module, INPUTS, options)
        _scheduled, report = compile_backend(prepared)
        assert report.hyperblock == {}

    def test_prefetch_enabled_on_itanium(self):
        source = """
        float stream[2048];
        void main() {
          float acc = 0.0;
          int i;
          for (i = 0; i < 2048; i = i + 1) { acc = acc + stream[i]; }
          out(acc);
        }
        """
        inputs = {"stream": [0.5] * 2048}
        module = compile_source(source)
        options = CompilerOptions(machine=ITANIUM_MACHINE, prefetch=True)
        prepared = prepare(module, inputs, options)
        scheduled, report = compile_backend(prepared)
        assert sum(r.inserted for r in report.prefetch.values()) > 0
        result = simulate(scheduled, ITANIUM_MACHINE, inputs=inputs)
        assert result.prefetch_count > 0


class TestOneShot:
    def test_compile_module(self):
        module = compile_source(SOURCE)
        scheduled, report = compile_module(module, INPUTS)
        ref = reference()
        result = simulate(scheduled, DEFAULT_EPIC)
        assert result.output_signature() == ref.output_signature()


def test_importing_the_pipeline_leaves_the_verifier_out():
    """Only ``verify_ir`` runs the IR verifier, so the pipeline imports
    it on use and a campaign does not pay for the import."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = ("import sys, repro.passes.pipeline; "
            "print('repro.verify.ir_verifier' in sys.modules)")
    output = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    assert output.stdout.strip() == "False"
