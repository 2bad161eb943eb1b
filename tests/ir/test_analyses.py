"""Dominators, natural loops, and liveness analyses."""

import pytest

from repro.frontend import compile_source
from repro.ir.dominators import dominates, dominator_sets, immediate_dominators
from repro.ir.function import Function
from repro.ir.instr import Opcode, Rel, binop, br, cmp, jmp, mov, out, ret
from repro.ir.liveness import (
    analyze,
    block_use_def,
    dead_definitions,
)
from repro.ir.loops import find_loops, loop_depth_of_blocks
from repro.ir.values import INT, PRED, Imm
from repro.passes.regalloc import allocation_seed
from repro.verify.ir_verifier import verify_function


def loop_function():
    """entry -> head -> body -> head ; head -> done(ret)."""
    func = Function("f", [])
    i = func.new_vreg(INT, "i")
    c = func.new_vreg(INT, "c")
    entry = func.new_block("entry")
    head = func.new_block("head")
    body = func.new_block("body")
    done = func.new_block("done")
    entry.append(mov(i, Imm(0)))
    entry.append(jmp(head.label))
    head.append(cmp(c, Rel.LT, i, Imm(10)))
    head.append(br(c, body.label, done.label))
    body.append(binop(Opcode.ADD, i, i, Imm(1)))
    body.append(jmp(head.label))
    done.append(out(i))
    done.append(ret())
    assert verify_function(func) == []
    return func, i, entry, head, body, done


def nested_loop_source():
    return """
    void main() {
      int i;
      int j;
      int acc = 0;
      for (i = 0; i < 4; i = i + 1) {
        for (j = 0; j < 4; j = j + 1) {
          acc = acc + i * j;
        }
      }
      out(acc);
    }
    """


class TestDominators:
    def test_entry_has_no_idom(self):
        func, *_ = loop_function()
        idom = immediate_dominators(func)
        assert idom[func.block_order[0]] is None

    def test_linear_chain(self):
        func, _i, entry, head, body, done = loop_function()
        idom = immediate_dominators(func)
        assert idom[head.label] == entry.label
        assert idom[body.label] == head.label
        assert idom[done.label] == head.label

    def test_diamond_join_dominated_by_head(self):
        source = """
        int x;
        void main() {
          int a = 0;
          if (x > 0) { a = 1; } else { a = 2; }
          out(a);
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        dom_sets = dominator_sets(func)
        entry = func.block_order[0]
        for label in dom_sets:
            assert dominates(dom_sets, entry, label)

    def test_dominator_sets_include_self(self):
        func, *_ = loop_function()
        dom_sets = dominator_sets(func)
        for label, doms in dom_sets.items():
            assert label in doms


class TestLoops:
    def test_single_loop_found(self):
        func, _i, _entry, head, body, _done = loop_function()
        loops = find_loops(func)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == head.label
        assert loop.body == {head.label, body.label}
        assert loop.depth == 1

    def test_back_edges_recorded(self):
        func, _i, _entry, head, body, _done = loop_function()
        loop = find_loops(func)[0]
        assert (body.label, head.label) in loop.back_edges

    def test_exits(self):
        func, _i, _entry, head, _body, done = loop_function()
        loop = find_loops(func)[0]
        assert (head.label, done.label) in loop.exits(func)

    def test_nested_loops(self):
        module = compile_source(nested_loop_source())
        func = module.functions["main"]
        loops = find_loops(func)
        assert len(loops) == 2
        inner = max(loops, key=lambda lp: lp.depth)
        outer = min(loops, key=lambda lp: lp.depth)
        assert inner.depth == 2
        assert outer.depth == 1
        assert inner.parent is outer
        assert inner in outer.children
        assert inner.body < outer.body

    def test_loop_depth_of_blocks(self):
        module = compile_source(nested_loop_source())
        func = module.functions["main"]
        depths = loop_depth_of_blocks(func)
        assert max(depths.values()) == 2
        assert depths[func.block_order[0]] == 0

    def test_no_loops_in_straightline(self):
        module = compile_source("void main() { out(1); }")
        assert find_loops(module.functions["main"]) == []


class TestLiveness:
    def test_loop_carried_value_live_around_loop(self):
        func, i, _entry, head, body, done = loop_function()
        liveness = analyze(func)
        assert i in liveness[head.label].live_in
        assert i in liveness[body.label].live_in
        assert i in liveness[body.label].live_out
        assert i in liveness[done.label].live_in

    def test_dead_after_last_use(self):
        func, i, _entry, _head, _body, done = loop_function()
        liveness = analyze(func)
        assert i not in liveness[done.label].live_out

    def test_use_def_upward_exposure(self):
        func, i, _entry, head, body, _done = loop_function()
        use, defs = block_use_def(func)[body.label]
        assert i in use  # read before (re)definition
        assert i in defs

    def test_guarded_def_counts_as_use(self):
        func = Function("f", [])
        x = func.new_vreg(INT, "x")
        guard = func.new_vreg(PRED, "g")
        entry = func.new_block("entry")
        entry.append(mov(x, Imm(5), guard=guard))
        entry.append(ret(x))
        use, _defs = block_use_def(func)[entry.label]
        assert x in use  # squashed write preserves the old value

    def test_register_live_across_a_write_interferes(self):
        """``i`` is live after the head's compare, which writes ``c``:
        the allocator's walk makes them interfere, both ways."""
        func, i, _entry, head, _body, _done = loop_function()
        compare = func.blocks[head.label].instrs[0]
        c = compare.dest
        interference = allocation_seed(func).interference
        assert i.uid in interference[c.uid]
        assert c.uid in interference[i.uid]

    def test_dead_definitions_runs_one_fixed_point(self, monkeypatch):
        """The walk starts from the fixed point's ``live_out``; it does
        not run a second one."""
        from repro.ir import liveness

        fixed_points = []

        def counting_analyze(function):
            fixed_points.append(function.name)
            return analyze(function)

        monkeypatch.setattr(liveness, "analyze", counting_analyze)
        func, *_rest = loop_function()
        assert dead_definitions(func) == []
        assert fixed_points == [func.name]

    def test_dead_definitions_found(self):
        func = Function("f", [])
        x = func.new_vreg(INT, "x")
        y = func.new_vreg(INT, "y")
        entry = func.new_block("entry")
        entry.append(mov(x, Imm(1)))  # dead
        entry.append(mov(y, Imm(2)))
        entry.append(ret(y))
        dead = dead_definitions(func)
        assert (entry.label, 0) in dead
        assert (entry.label, 1) not in dead

    def test_side_effects_never_dead(self):
        func = Function("f", [])
        x = func.new_vreg(INT, "x")
        entry = func.new_block("entry")
        entry.append(mov(x, Imm(1)))
        entry.append(out(x))
        entry.append(ret())
        labels = [d for d in dead_definitions(func)]
        assert labels == []
