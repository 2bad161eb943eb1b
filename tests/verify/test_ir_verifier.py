"""Structural IR verifier: clean pipelines pass, broken IR is caught."""

import pytest

from repro.frontend import compile_source
from repro.ir.instr import Instr, Opcode, call, ret
from repro.ir.values import INT, VReg
from repro.machine.descr import DEFAULT_EPIC, REGALLOC_MACHINE
from repro.passes.pipeline import CompilerOptions, compile_backend, prepare
from repro.verify.ir_verifier import (
    IRVerifyError,
    verify_function,
    verify_module,
    verify_scheduled,
)

SOURCE = """
int data[16];
int n;
void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > 4) { acc = acc + data[i]; }
    else { acc = acc - 1; }
  }
  out(acc);
}
"""

INPUTS = {"data": list(range(16)), "n": [12]}


def fresh_module():
    return compile_source(SOURCE, "verifier-test")


class TestCleanPipeline:
    def test_verify_ir_flag_runs_every_stage(self):
        options = CompilerOptions(verify_ir=True)
        prepared = prepare(fresh_module(), INPUTS, options)
        scheduled, _report = compile_backend(prepared)
        assert scheduled.functions  # compiled without raising

    def test_verify_ir_with_prefetch_and_small_regfile(self):
        options = CompilerOptions(machine=REGALLOC_MACHINE, verify_ir=True)
        prepared = prepare(fresh_module(), INPUTS, options)
        compile_backend(prepared)

    def test_fresh_frontend_module_is_clean(self):
        module = fresh_module()
        for function in module.functions.values():
            assert verify_function(function, module) == []


class TestBrokenIR:
    def test_missing_terminator(self):
        module = fresh_module()
        function = module.functions["main"]
        entry = function.blocks[function.block_order[0]]
        entry.instrs.pop()  # drop the terminator
        issues = verify_function(function, module)
        assert any("terminat" in issue.message for issue in issues)

    def test_branch_to_unknown_block(self):
        module = fresh_module()
        function = module.functions["main"]
        for label in function.block_order:
            terminator = function.blocks[label].instrs[-1]
            if terminator.targets:
                terminator.targets = ("nowhere",) + terminator.targets[1:]
                break
        issues = verify_function(function, module)
        assert any("nowhere" in issue.message for issue in issues)

    def test_terminator_mid_block(self):
        module = fresh_module()
        function = module.functions["main"]
        entry = function.blocks[function.block_order[0]]
        entry.instrs.insert(0, ret())
        issues = verify_function(function, module)
        assert any("terminator mid-block" in issue.message
                   for issue in issues)

    def test_call_to_unknown_function(self):
        module = fresh_module()
        function = module.functions["main"]
        entry = function.blocks[function.block_order[0]]
        entry.instrs.insert(0, call(None, "ghost", ()))
        issues = verify_function(function, module)
        assert any("unknown function 'ghost'" in issue.message
                   for issue in issues)

    def test_use_of_undefined_register(self):
        module = fresh_module()
        function = module.functions["main"]
        entry = function.blocks[function.block_order[0]]
        ghost = VReg(uid=987654, vtype=INT, name="ghost")
        defined = next(
            instr.dest for instr in entry.instrs
            if instr.dest is not None and instr.dest.vtype is INT
        )
        entry.instrs.insert(
            len(entry.instrs) - 1,
            Instr(Opcode.MOV, dest=defined, srcs=(ghost,)),
        )
        issues = verify_function(function, module)
        assert any("ghost" in issue.message or "defin" in issue.message
                   for issue in issues)

    def test_verify_module_raises_with_stage(self):
        module = fresh_module()
        function = module.functions["main"]
        function.blocks[function.block_order[0]].instrs.pop()
        with pytest.raises(IRVerifyError) as excinfo:
            verify_module(module, stage="cleanup")
        assert excinfo.value.stage == "cleanup"
        assert excinfo.value.issues

    def test_pipeline_flag_surfaces_corruption(self, monkeypatch):
        """A pass that corrupts the IR is caught at the next checkpoint.
        (``prepare`` imports each pass where it runs it, so the pass's
        own module is patched.)"""
        from repro.passes import cleanup as cleanup_mod

        def corrupting_cleanup(module):
            for function in module.functions.values():
                function.blocks[function.block_order[0]].instrs.pop()

        monkeypatch.setattr(cleanup_mod, "cleanup_module",
                            corrupting_cleanup)
        options = CompilerOptions(verify_ir=True, unroll_factor=1)
        with pytest.raises(IRVerifyError) as excinfo:
            prepare(fresh_module(), INPUTS, options)
        assert excinfo.value.stage == "cleanup"


class TestAllocatedChecks:
    def _scheduled(self, machine=DEFAULT_EPIC):
        options = CompilerOptions(machine=machine)
        prepared = prepare(fresh_module(), INPUTS, options)
        return compile_backend(prepared)

    def test_surviving_vreg_after_regalloc_flagged(self):
        options = CompilerOptions()
        prepared = prepare(fresh_module(), INPUTS, options)
        module = prepared.module.clone()
        # pretend regalloc ran but left the module unallocated
        issues = []
        for function in module.functions.values():
            issues.extend(verify_function(function, module, allocated=True,
                                          machine=DEFAULT_EPIC))
        assert any("VReg" in issue.message or "virtual" in issue.message
                   for issue in issues)

    def test_scheduled_module_passes(self):
        scheduled, _report = self._scheduled()
        verify_scheduled(scheduled, DEFAULT_EPIC)  # must not raise

    def test_overfull_bundle_flagged(self):
        scheduled, _report = self._scheduled()
        function = next(iter(scheduled.functions.values()))
        block = function.blocks[function.block_order[0]]
        writer = next(
            instr
            for bundle in block.bundles for instr in bundle
            if instr.dest is not None
        )
        block.bundles[0].instrs[:0] = [
            Instr(Opcode.ADD, dest=writer.dest,
                  srcs=(writer.dest, writer.dest))
            for _ in range(DEFAULT_EPIC.issue_width + 1)
        ]
        with pytest.raises(IRVerifyError):
            verify_scheduled(scheduled, DEFAULT_EPIC)


class TestVregUids:
    """A uid names one virtual register per function — what
    ``Function.new_vreg`` hands out and what the reference interpreter
    keys its register file by."""

    def _clashing_module(self):
        module = fresh_module()
        function = module.functions["main"]
        entry = function.blocks[function.block_order[0]]
        victim = next(instr.dest for instr in entry.instrs
                      if instr.dest is not None and instr.dest.vtype is INT)
        twin = VReg(uid=victim.uid, vtype=INT, name="twin")
        entry.instrs.insert(len(entry.instrs) - 1,
                            Instr(Opcode.MOV, dest=twin, srcs=(victim,)))
        entry.instrs.insert(len(entry.instrs) - 1,
                            Instr(Opcode.MOV, dest=twin, srcs=(twin,)))
        return module, victim, twin

    def test_shared_uid_is_a_structural_issue_reported_once(self):
        module, victim, twin = self._clashing_module()
        issues = verify_function(module.functions["main"], module)
        clashes = [issue for issue in issues if "share uid" in issue.message]
        assert len(clashes) == 1
        assert clashes[0].message == (
            f"virtual registers {victim} and {twin} share uid {victim.uid}")
        assert clashes[0].block == module.functions["main"].block_order[0]

    def test_the_interpreter_refuses_what_the_verifier_reports(self):
        from repro.ir.interp import Interpreter

        module, victim, _twin = self._clashing_module()
        with pytest.raises(ValueError, match=f"share uid {victim.uid}"):
            Interpreter(module).run()
