"""Functional interpreter tests: scalar semantics, memory, control,
calls, predication, and error conditions."""

import pytest

from repro.frontend import compile_source
from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instr import (
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
    ret,
    store,
)
from repro.ir.interp import (
    Interpreter,
    InterpError,
    apply_scalar_op,
    int_div,
    int_rem,
    wrap_int,
)
from repro.ir.values import (
    FLOAT,
    INT,
    PRED,
    Imm,
    PReg,
    StackSlot,
    SymRef,
    VReg,
)


def run_source(source, inputs=None, **kwargs):
    module = compile_source(source)
    interp = Interpreter(module, **kwargs)
    for name, values in (inputs or {}).items():
        interp.set_global(name, values)
    return interp.run()


class TestScalarHelpers:
    def test_wrap_int_positive_overflow(self):
        assert wrap_int(1 << 63) == -(1 << 63)

    def test_wrap_int_negative_overflow(self):
        assert wrap_int(-(1 << 63) - 1) == (1 << 63) - 1

    def test_wrap_int_identity_in_range(self):
        assert wrap_int(12345) == 12345
        assert wrap_int(-12345) == -12345

    def test_int_div_truncates_toward_zero(self):
        assert int_div(7, 2) == 3
        assert int_div(-7, 2) == -3
        assert int_div(7, -2) == -3
        assert int_div(-7, -2) == 3

    def test_int_rem_sign_follows_dividend(self):
        assert int_rem(7, 3) == 1
        assert int_rem(-7, 3) == -1
        assert int_rem(7, -3) == 1

    def test_apply_scalar_op_div_by_zero(self):
        with pytest.raises(InterpError):
            apply_scalar_op(Opcode.DIV, None, (1, 0))
        with pytest.raises(InterpError):
            apply_scalar_op(Opcode.FDIV, None, (1.0, 0.0))

    def test_apply_scalar_op_cmpp_pair(self):
        truth, complement = apply_scalar_op(Opcode.CMPP, Rel.LT, (1, 2))
        assert truth is True and complement is False

    def test_apply_scalar_op_shifts_are_arithmetic(self):
        assert apply_scalar_op(Opcode.SHR, None, (-8, 1)) == -4
        assert apply_scalar_op(Opcode.SHL, None, (1, 62)) == 1 << 62

    def test_apply_scalar_op_fsqrt_protected(self):
        assert apply_scalar_op(Opcode.FSQRT, None, (-9.0,)) == 3.0

    def test_apply_scalar_op_conversions(self):
        assert apply_scalar_op(Opcode.ITOF, None, (3,)) == 3.0
        assert apply_scalar_op(Opcode.FTOI, None, (3.9,)) == 3
        assert apply_scalar_op(Opcode.FTOI, None, (-3.9,)) == -3

    def test_apply_scalar_op_rejects_control(self):
        with pytest.raises(InterpError):
            apply_scalar_op(Opcode.JMP, None, ())


class TestExecution:
    def test_arith_program(self):
        result = run_source("""
        void main() {
          int a = 10;
          int b = 3;
          out(a / b);
          out(a % b);
          out(a * b - 1);
          out(a << 2);
          out(a >> 1);
          out(a & b);
          out(a | b);
          out(a ^ b);
        }
        """)
        assert result.outputs == [3, 1, 29, 40, 5, 2, 11, 9]

    def test_float_program(self):
        result = run_source("""
        void main() {
          float x = 2.5;
          out(x * 4.0);
          out(x / 2.0);
          out(sqrt(x * x));
          out(x + 1);
        }
        """)
        assert result.outputs == [10.0, 1.25, 2.5, 3.5]

    def test_globals_and_memory(self):
        result = run_source("""
        int data[4] = {10, 20, 30};
        void main() {
          data[3] = data[0] + data[1];
          out(data[3]);
          out(data[2]);
        }
        """)
        assert result.outputs == [30, 30]

    def test_set_and_read_global(self):
        module = compile_source("""
        int buf[4];
        void main() { buf[1] = 42; out(buf[0]); }
        """)
        interp = Interpreter(module)
        interp.set_global("buf", [7, 0, 0, 0])
        result = interp.run()
        assert result.outputs == [7]
        assert interp.read_global("buf")[:2] == [7, 42]

    def test_set_global_bounds_checked(self):
        module = compile_source("int a[2]; void main() { out(a[0]); }")
        interp = Interpreter(module)
        with pytest.raises(ValueError):
            interp.set_global("a", [1, 2, 3])
        with pytest.raises(KeyError):
            interp.set_global("zzz", [1])

    def test_recursion(self):
        result = run_source("""
        int fib(int n) {
          if (n < 2) { return n; }
          return fib(n - 1) + fib(n - 2);
        }
        void main() { out(fib(10)); }
        """)
        assert result.outputs == [55]

    def test_local_arrays_are_per_frame(self):
        result = run_source("""
        int leaf(int x) {
          int tmp[4];
          tmp[0] = x * 2;
          return tmp[0];
        }
        void main() {
          int tmp[4];
          tmp[0] = 5;
          out(leaf(7));
          out(tmp[0]);
        }
        """)
        assert result.outputs == [14, 5]

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpError):
            run_source("void main() { int z = 0; out(1 / z); }")

    def test_step_budget(self):
        with pytest.raises(InterpError):
            run_source("""
            void main() {
              int i = 0;
              while (i < 1000000) { i = i + 1; }
              out(i);
            }
            """, max_steps=1000)

    def test_return_value(self):
        result = run_source("int main() { return 17; }")
        assert result.return_value == 17


class TestPredication:
    def _predicated_module(self, cond_value):
        module = Module()
        func = Function("main", [])
        x = func.new_vreg(INT, "x")
        c = func.new_vreg(INT, "c")
        pt = func.new_vreg(PRED, "pt")
        pf = func.new_vreg(PRED, "pf")
        entry = func.new_block("entry")
        entry.append(mov(x, Imm(0)))
        entry.append(mov(c, Imm(cond_value)))
        entry.append(cmpp(pt, pf, Rel.NE, c, Imm(0)))
        entry.append(mov(x, Imm(111), guard=pt))
        entry.append(mov(x, Imm(222), guard=pf))
        entry.append(out(x))
        entry.append(ret())
        module.add_function(func)
        module.validate()
        return module

    def test_taken_guard_executes(self):
        result = Interpreter(self._predicated_module(1)).run()
        assert result.outputs == [111]

    def test_false_guard_squashes(self):
        result = Interpreter(self._predicated_module(0)).run()
        assert result.outputs == [222]

    def test_branch_and_edge_callbacks(self):
        edges = []
        branches = []
        module = compile_source("""
        void main() {
          int i;
          for (i = 0; i < 3; i = i + 1) { out(i); }
        }
        """)
        interp = Interpreter(module, on_edge=lambda f, a, b: edges.append((a, b)),
                             on_branch=lambda f, uid, t: branches.append(t))
        interp.run()
        assert branches.count(True) == 3
        assert branches.count(False) == 1
        assert len(edges) >= 7

    def test_undefined_register_read_raises(self):
        module = Module()
        func = Function("main", [])
        x = func.new_vreg(INT, "x")
        entry = func.new_block("entry")
        entry.append(out(x))
        entry.append(ret())
        module.add_function(func)
        with pytest.raises(InterpError):
            Interpreter(module).run()


class TestOperandResolution:
    def test_symref_and_stackslot(self):
        module = Module()
        module.add_global(GlobalArray("g", 4, init=(9,)))
        func = Function("main", [])
        func.alloc_stack(2)
        addr = func.new_vreg(INT)
        value = func.new_vreg(INT)
        entry = func.new_block("entry")
        entry.append(lea(addr, SymRef("g")))
        entry.append(load(value, addr))
        entry.append(out(value))
        entry.append(store(StackSlot(0), value))
        entry.append(load(value, StackSlot(0)))
        entry.append(out(value))
        entry.append(ret())
        module.add_function(func)
        result = Interpreter(module).run()
        assert result.outputs == [9, 9]


class TestDecode:
    """The interpreter decodes a function once per instance and keys
    its register file by uid."""

    def _counter_module(self):
        module = Module()
        func = Function("main", [])
        x = func.new_vreg(INT, "x")
        entry = func.new_block("entry")
        entry.append(mov(x, Imm(1)))
        entry.append(out(x))
        entry.append(ret())
        module.add_function(func)
        return module, func, x

    def test_two_registers_sharing_a_uid_are_refused(self):
        module, func, x = self._counter_module()
        twin = VReg(x.uid, INT, "not_x")
        func.entry.instrs.insert(1, mov(twin, Imm(2)))
        with pytest.raises(ValueError, match=r"%r0\.x and %r0\.not_x "
                                             r"share uid 0"):
            Interpreter(module).run()

    def test_parameter_and_body_register_sharing_a_uid_are_refused(self):
        module = Module()
        func = Function("main", [VReg(0, INT, "arg")])
        entry = func.new_block("entry")
        entry.append(mov(VReg(0, FLOAT, "arg"), Imm(2.0)))
        entry.append(ret())
        module.add_function(func)
        with pytest.raises(ValueError, match="share uid 0"):
            Interpreter(module).run(args=(1,))

    def test_decode_is_per_instance(self):
        """An instruction appended between two interpreters is run by
        the second: no decode outlives its instance."""
        module, func, x = self._counter_module()
        assert Interpreter(module).run().outputs == [1]
        func.entry.instrs.insert(2, out(Imm(7)))
        assert Interpreter(module).run().outputs == [1, 7]

    def test_recursion_reuses_one_decode(self):
        module = compile_source("""
        int down(int n) { if (n < 1) { return 0; } return down(n - 1) + 1; }
        void main() { out(down(20)); }
        """)
        interp = Interpreter(module)
        assert interp.run().outputs == [20]
        assert sorted(interp._decoded) == ["down", "main"]


class TestFaultsAndCounters:
    """What the rewrite of the execution core had to leave alone."""

    def _module(self, *instrs, frame_words=0):
        module = Module()
        func = Function("main", [])
        if frame_words:
            func.alloc_stack(frame_words)
        entry = func.new_block("entry")
        for instr in instrs:
            entry.append(instr)
        module.add_function(func)
        return module

    def test_undefined_register_message(self):
        with pytest.raises(InterpError,
                           match=r"^read of undefined register %r5\.x$"):
            Interpreter(self._module(out(VReg(5, INT, "x")), ret())).run()

    def test_store_reads_its_value_before_its_address(self):
        module = self._module(
            store(VReg(1, INT, "addr"), VReg(2, INT, "value")), ret())
        with pytest.raises(InterpError, match=r"%r2\.value"):
            Interpreter(module).run()

    def test_unknown_callee_faults_before_its_arguments(self):
        module = self._module(call(None, "ghost", (VReg(1, INT),)), ret())
        with pytest.raises(InterpError,
                           match="^call to unknown function ghost$"):
            Interpreter(module).run()

    def test_unreadable_operand_faults_when_reached_not_at_decode(self):
        module = self._module(out(Imm(1)), out(PReg(0, INT)), ret())
        interp = Interpreter(module)
        with pytest.raises(InterpError, match="^cannot evaluate operand "):
            interp.run()
        assert interp.outputs == [1]

    def test_guarded_terminator_message(self):
        guard = VReg(0, PRED, "p")
        jump = jmp("entry0")
        jump.guard = guard
        module = self._module(mov(guard, Imm(0)), jump)
        with pytest.raises(InterpError,
                           match="^guarded terminator reached false$"):
            Interpreter(module).run()

    def test_squashed_instructions_count_as_steps(self):
        guard, x = VReg(0, PRED, "p"), VReg(1, INT, "x")
        module = self._module(
            mov(guard, Imm(0)), mov(x, Imm(1)),
            mov(x, Imm(2), guard=guard), out(x), ret())
        result = Interpreter(module).run()
        assert (result.outputs, result.steps, result.blocks_executed) == \
            ([1], 5, 1)

    def test_unset_guard_squashes_rather_than_faults(self):
        x = VReg(1, INT, "x")
        module = self._module(
            mov(x, Imm(1)), mov(x, Imm(2), guard=VReg(0, PRED, "p")),
            out(x), ret())
        assert Interpreter(module).run().outputs == [1]

    def test_step_budget_message_names_the_function(self):
        module = self._module(out(Imm(1)), out(Imm(2)), ret())
        interp = Interpreter(module, max_steps=2)
        with pytest.raises(InterpError,
                           match="^step budget exceeded in main$"):
            interp.run()
        assert interp.outputs == [1, 2] and interp.steps == 3

    def test_stack_pointer_restored_after_a_fault(self):
        module = compile_source("""
        int leaf(int x) { int tmp[8]; tmp[0] = 1 / x; return tmp[0]; }
        void main() { int pad[4]; pad[0] = 0; out(leaf(pad[0])); }
        """)
        interp = Interpreter(module)
        before = interp._sp
        with pytest.raises(InterpError, match="division by zero"):
            interp.run()
        assert interp._sp == before

    def test_callbacks_fire_in_execution_order(self):
        events = []
        module = compile_source("""
        void main() {
          int i;
          for (i = 0; i < 2; i = i + 1) { out(i); }
        }
        """)
        func = module.functions["main"]
        branch_uids = {instr.uid for instr in func.instructions()
                       if instr.op is Opcode.BR}
        interp = Interpreter(
            module,
            on_edge=lambda f, a, b: events.append(("edge", f, a, b)),
            on_branch=lambda f, uid, t: events.append(("branch", f, uid, t)))
        result = interp.run()
        branches = [e for e in events if e[0] == "branch"]
        assert [e[3] for e in branches] == [True, True, False]
        assert all(e[1] == "main" and e[2] in branch_uids
                   and type(e[3]) is bool for e in branches)
        # a branch is reported before the edge it takes, and the edge
        # leads to one of the branch's own targets
        for index, event in enumerate(events):
            if event[0] == "branch":
                _kind, name, source, target = events[index + 1]
                assert name == "main" and source in func.blocks
                assert target in func.blocks[source].terminator.targets
        edges = [e for e in events if e[0] == "edge"]
        assert result.blocks_executed == len(edges) + 1
