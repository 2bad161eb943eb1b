"""Function/module structure and CFG utility tests."""

import pytest

from repro.ir.block import Block
from repro.ir.cfg import (
    merge_straightline,
    predecessors,
    reachable,
    remove_unreachable,
    reverse_postorder,
    successors,
)
from repro.ir.function import Function, GlobalArray, Module, GLOBAL_BASE
from repro.ir.instr import Opcode, binop, br, jmp, mov, ret
from repro.ir.values import INT, Imm, VReg
from repro.verify.ir_verifier import verify_function


def diamond_function():
    """entry -> (then | else) -> join -> exit(ret)."""
    func = Function("f", [])
    cond = func.new_vreg(INT, "c")
    entry = func.new_block("entry")
    then_blk = func.new_block("then")
    else_blk = func.new_block("else")
    join = func.new_block("join")
    entry.append(mov(cond, Imm(1)))
    entry.append(br(cond, then_blk.label, else_blk.label))
    then_blk.append(jmp(join.label))
    else_blk.append(jmp(join.label))
    join.append(ret())
    return func, entry, then_blk, else_blk, join


class TestBlock:
    def test_append_after_terminator_rejected(self):
        block = Block("b")
        block.append(ret())
        with pytest.raises(ValueError):
            block.append(ret())

    def test_terminator_accessor(self):
        block = Block("b")
        with pytest.raises(ValueError):
            block.terminator
        block.append(jmp("x"))
        assert block.terminator.op is Opcode.JMP

    def test_successors(self):
        block = Block("b", [br(VReg(0, INT), "t", "f")])
        assert block.successors() == ("t", "f")
        block2 = Block("c", [ret()])
        assert block2.successors() == ()

    def test_copy_independent(self):
        block = Block("b", [jmp("x")])
        clone = block.copy()
        clone.instrs.clear()
        assert block.is_closed()


class TestFunction:
    def test_vreg_numbering_continues_after_params(self):
        param = VReg(0, INT, "p")
        func = Function("f", [param])
        assert func.new_vreg(INT).uid == 1

    def test_stack_allocation(self):
        func = Function("f", [])
        first = func.alloc_stack(4, "arr")
        second = func.alloc_stack(2)
        assert (first, second) == (0, 4)
        assert func.frame_words == 6
        assert func.local_arrays["arr"] == (0, 4)
        with pytest.raises(ValueError):
            func.alloc_stack(0)

    def test_clone_is_deep(self):
        func, entry, *_ = diamond_function()
        clone = func.clone()
        clone.blocks[entry.label].instrs.clear()
        assert func.blocks[entry.label].instrs

    def test_clone_preserves_structure(self):
        func, *_ = diamond_function()
        clone = func.clone()
        assert verify_function(clone) == []
        assert clone.block_order == func.block_order
        assert clone.instruction_count() == func.instruction_count()


class TestModule:
    def test_layout_assigns_disjoint_ranges(self):
        module = Module()
        module.add_global(GlobalArray("a", 10))
        module.add_global(GlobalArray("b", 5))
        layout = module.layout()
        assert layout["a"] == GLOBAL_BASE
        assert layout["b"] == GLOBAL_BASE + 10

    def test_duplicate_global_rejected(self):
        module = Module()
        module.add_global(GlobalArray("a", 1))
        with pytest.raises(ValueError):
            module.add_global(GlobalArray("a", 2))

    def test_bad_global_sizes(self):
        with pytest.raises(ValueError):
            GlobalArray("a", 0)
        with pytest.raises(ValueError):
            GlobalArray("a", 2, init=(1, 2, 3))


class TestCFG:
    def test_successors_predecessors(self):
        func, entry, then_blk, else_blk, join = diamond_function()
        succs = successors(func)
        preds = predecessors(func)
        assert set(succs[entry.label]) == {then_blk.label, else_blk.label}
        assert set(preds[join.label]) == {then_blk.label, else_blk.label}
        assert preds[entry.label] == []

    def test_reverse_postorder_entry_first(self):
        func, entry, then_blk, else_blk, join = diamond_function()
        order = reverse_postorder(func)
        assert order[0] == entry.label
        assert order.index(join.label) > order.index(then_blk.label)
        assert order.index(join.label) > order.index(else_blk.label)

    def test_reachable_and_removal(self):
        func, *_ = diamond_function()
        dead = func.new_block("dead")
        dead.append(ret())
        assert dead.label not in reachable(func)
        removed = remove_unreachable(func)
        assert removed == 1
        assert dead.label not in func.blocks

    def test_merge_straightline(self):
        func = Function("f", [])
        a = func.new_block("a")
        b = func.new_block("b")
        reg = func.new_vreg(INT)
        a.append(mov(reg, Imm(1)))
        a.append(jmp(b.label))
        b.append(binop(Opcode.ADD, reg, reg, Imm(2)))
        b.append(ret(reg))
        merged = merge_straightline(func)
        assert merged == 1
        assert list(func.blocks) == [a.label]
        assert verify_function(func) == []

    def test_merge_skips_multi_pred_targets(self):
        func, *_ = diamond_function()
        before = set(func.blocks)
        merge_straightline(func)
        # join has two predecessors: nothing merged into it.
        assert set(func.blocks) == before
