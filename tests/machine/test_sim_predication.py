"""Predication corner cases in the timing simulator: guarded calls,
stores, outputs and cmpp — squashed operations must have no
architectural effect, in both execution engines."""

import pytest

from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instr import (
    Opcode,
    Rel,
    binop,
    call,
    cmpp,
    jmp,
    lea,
    mov,
    out,
    ret,
    store,
)
from repro.ir.interp import Interpreter
from repro.ir.values import INT, PRED, Imm, SymRef, VReg
from repro.machine.descr import DEFAULT_EPIC
from repro.machine.sim import Simulator
from repro.passes.schedule import schedule_module
from repro.verify.ir_verifier import verify_module


def predicated_module(cond_value: int) -> Module:
    """main: pt,pf = (cond != 0); guarded call/store/out on each arm."""
    module = Module()
    module.add_global(GlobalArray("cell", 2))

    callee = Function("bump", [VReg(0, INT, "x")])
    body = callee.new_block("entry")
    result = callee.new_vreg(INT, "r")
    body.append(binop(Opcode.ADD, result, callee.params[0], Imm(100)))
    body.append(ret(result))
    callee.return_type = INT
    module.add_function(callee)

    func = Function("main", [])
    cond = func.new_vreg(INT, "c")
    pt = func.new_vreg(PRED, "pt")
    pf = func.new_vreg(PRED, "pf")
    called = func.new_vreg(INT, "cl")
    addr = func.new_vreg(INT, "ad")
    val_t = func.new_vreg(INT, "vt")
    val_f = func.new_vreg(INT, "vf")
    entry = func.new_block("entry")
    entry.append(mov(cond, Imm(cond_value)))
    entry.append(mov(called, Imm(-1)))
    entry.append(cmpp(pt, pf, Rel.NE, cond, Imm(0)))
    # Guarded call: only executes on the taken arm.
    entry.append(call(called, "bump", (Imm(5),)))
    entry.instrs[-1].guard = pt
    # Guarded stores to the same cell from both arms.
    entry.append(lea(addr, SymRef("cell")))
    entry.append(mov(val_t, Imm(111)))
    entry.append(mov(val_f, Imm(222)))
    entry.append(store(addr, val_t, guard=pt))
    entry.append(store(addr, val_f, guard=pf))
    # Guarded outs.
    entry.append(out(val_t))
    entry.instrs[-1].guard = pt
    entry.append(out(val_f))
    entry.instrs[-1].guard = pf
    entry.append(out(called))
    entry.append(ret())
    module.add_function(func)
    verify_module(module)
    return module


def run_both(cond_value: int):
    module = predicated_module(cond_value)
    interp_result = Interpreter(module).run()
    scheduled = schedule_module(module.clone(), DEFAULT_EPIC)
    sim_result = Simulator(scheduled, DEFAULT_EPIC).run()
    return interp_result, sim_result


class TestGuardedEffects:
    def test_taken_arm(self):
        interp_result, sim_result = run_both(1)
        assert interp_result.outputs == [111, 105]
        assert sim_result.output_signature() \
            == interp_result.output_signature()

    def test_fall_arm(self):
        interp_result, sim_result = run_both(0)
        # call squashed: `called` keeps its initial -1
        assert interp_result.outputs == [222, -1]
        assert sim_result.output_signature() \
            == interp_result.output_signature()

    def test_squash_counted_only_in_sim(self):
        module = predicated_module(0)
        scheduled = schedule_module(module.clone(), DEFAULT_EPIC)
        result = Simulator(scheduled, DEFAULT_EPIC).run()
        assert result.squashed_ops >= 3  # call + store + out of taken arm

    def test_memory_state_matches(self):
        for cond_value, expected in ((1, 111), (0, 222)):
            module = predicated_module(cond_value)
            interp = Interpreter(module)
            interp.run()
            assert interp.read_global("cell", 1) == [expected]
            scheduled = schedule_module(module.clone(), DEFAULT_EPIC)
            simulator = Simulator(scheduled, DEFAULT_EPIC)
            simulator.run()
            base = scheduled.module.layout()["cell"]
            assert simulator.memory.get(base) == expected
