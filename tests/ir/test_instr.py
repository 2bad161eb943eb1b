"""Instruction-level tests: operand views, constructors, typing."""

import pytest

from repro.ir.instr import (
    TERMINATORS,
    FUClass,
    Instr,
    Opcode,
    Rel,
    binop,
    br,
    call,
    cmp,
    cmpp,
    jmp,
    lea,
    load,
    mov,
    out,
    prefetch,
    ret,
    store,
)
from repro.ir.values import FLOAT, INT, PRED, Imm, StackSlot, SymRef, VReg


def vreg(uid, vtype=INT, name=""):
    return VReg(uid, vtype, name)


class TestReadsWrites:
    def test_binop_reads_both_sources(self):
        a, b, c = vreg(0), vreg(1), vreg(2)
        instr = binop(Opcode.ADD, c, a, b)
        assert set(instr.reads()) == {a, b}
        assert instr.writes() == [c]

    def test_immediates_not_read(self):
        a, c = vreg(0), vreg(2)
        instr = binop(Opcode.ADD, c, a, Imm(5))
        assert instr.reads() == [a]

    def test_guard_is_read(self):
        a, c = vreg(0), vreg(2)
        guard = vreg(9, PRED)
        instr = mov(c, a, guard=guard)
        assert guard in instr.reads()

    def test_cmpp_writes_two(self):
        pt, pf = vreg(1, PRED), vreg(2, PRED)
        instr = cmpp(pt, pf, Rel.LT, vreg(0), Imm(3))
        assert set(instr.writes()) == {pt, pf}

    def test_cmpp_requires_predicate_dests(self):
        with pytest.raises(TypeError):
            cmpp(vreg(1), vreg(2), Rel.LT, vreg(0), Imm(3))

    def test_store_writes_nothing(self):
        instr = store(vreg(0), vreg(1))
        assert instr.writes() == []
        assert set(instr.reads()) == {vreg(0), vreg(1)}


class TestClassification:
    def test_fu_classes(self):
        assert binop(Opcode.ADD, vreg(0), vreg(1), vreg(2)).fu_class \
            is FUClass.INT
        assert binop(Opcode.FADD, vreg(0, FLOAT), vreg(1, FLOAT),
                     vreg(2, FLOAT)).fu_class is FUClass.FP
        assert load(vreg(0), vreg(1)).fu_class is FUClass.MEM
        assert jmp("x").fu_class is FUClass.BRANCH
        assert call(None, "f", ()).fu_class is FUClass.BRANCH

    def test_terminators(self):
        assert jmp("a").op in TERMINATORS
        assert br(vreg(0), "a", "b").op in TERMINATORS
        assert ret().op in TERMINATORS
        assert call(None, "f", ()).op not in TERMINATORS

    def test_side_effects(self):
        assert store(vreg(0), vreg(1)).has_side_effects
        assert out(vreg(0)).has_side_effects
        assert prefetch(vreg(0)).has_side_effects
        assert call(None, "f", ()).has_side_effects
        assert not mov(vreg(0), Imm(1)).has_side_effects
        assert not load(vreg(0), vreg(1)).has_side_effects

    def test_memory_ops(self):
        assert load(vreg(0), vreg(1)).is_memory
        assert store(vreg(0), vreg(1)).is_memory
        assert prefetch(vreg(0)).is_memory
        assert not mov(vreg(0), Imm(1)).is_memory

    def test_calls_are_hazards(self):
        assert call(vreg(0), "f", (vreg(1),)).hazard


class TestCopy:
    def test_copy_gets_fresh_uid(self):
        instr = mov(vreg(0), Imm(1))
        clone = instr.copy()
        assert clone.uid != instr.uid
        assert clone.op is instr.op
        assert clone.srcs == instr.srcs

    def test_uids_unique(self):
        instrs = [mov(vreg(i), Imm(i)) for i in range(100)]
        assert len({i.uid for i in instrs}) == 100


class TestPrinting:
    def test_str_forms(self):
        text = str(binop(Opcode.ADD, vreg(2, INT, "acc"), vreg(0), Imm(1)))
        assert "add" in text and "%r2.acc" in text

    def test_branch_targets_shown(self):
        assert "-> a, b" in str(br(vreg(0), "a", "b"))

    def test_guard_shown(self):
        instr = mov(vreg(0), Imm(1), guard=vreg(5, PRED, "pt"))
        assert str(instr).startswith("(%p5.pt)")

    def test_operand_strs(self):
        assert str(Imm(7)) == "7"
        assert str(SymRef("data")) == "@data"
        assert str(StackSlot(4, "sp")) == "stack[4].sp"
        assert str(vreg(3, FLOAT, "f")) == "%f3.f"
