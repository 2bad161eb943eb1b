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
from repro.profile.profiler import FunctionProfile, collect_profile
from repro.verify.ir_verifier import verify_module


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
        verify_module(module)
        return module

    def test_taken_guard_executes(self):
        result = Interpreter(self._predicated_module(1)).run()
        assert result.outputs == [111]

    def test_false_guard_squashes(self):
        result = Interpreter(self._predicated_module(0)).run()
        assert result.outputs == [222]

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


def _uid_at(function, label: str, index: int) -> int:
    return function.blocks[label].instrs[index].uid


class TestControlCounts:
    """The counters a run leaves in the decode.  Every expected count
    below was recorded from the ``on_edge``/``on_branch`` callbacks the
    interpreter had before the counters replaced them, and each
    expected ``BR`` state and misprediction count from a
    ``TwoBitPredictor`` fed the outcomes those callbacks reported.  The
    ``collect_profile`` cases run the generated code's profiling form,
    with the interpreter barred, to the same expectations."""

    @pytest.fixture
    def no_interpreter(self, monkeypatch):
        def barred(*_args, **_kwargs):
            raise AssertionError("collect_profile ran the interpreter")

        monkeypatch.setattr(Interpreter, "_call", barred)

    LOOP = """
    void main() {
      int i;
      for (i = 0; i < %d; i = i + 1) { out(i); }
    }
    """

    @pytest.mark.parametrize("trips, taken, steps, blocks", [
        pytest.param(3, [1, 3, 3], 27, 12, id="three_trips"),
        pytest.param(2, [1, 2, 2], 20, 9, id="two_trips"),
    ])
    def test_loop(self, trips, taken, steps, blocks):
        module = compile_source(self.LOOP % trips)
        interp = Interpreter(module)
        result = interp.run()
        entry, body, step = taken
        # TwoBitPredictor fed trips x taken, then not taken: from weakly
        # taken to strongly taken, one miss at the exit, back to weak.
        calls, rows = interp.control_counts()["main"]
        assert calls == 1
        assert [(label, instr.op, counter)
                for label, instr, counter in rows] == [
            ("entry0", Opcode.JMP, [entry]),
            ("for_head1", Opcode.BR, [2, 1, trips, 1]),
            ("for_body2", Opcode.JMP, [body]),
            ("for_step3", Opcode.JMP, [step]),
        ]
        assert (result.steps, result.blocks_executed) == (steps, blocks)
        # a block is entered once per edge into it, the entry once
        assert blocks == entry + trips + 1 + body + step + 1

    def test_counter_is_the_terminator_and_shared_per_uid(self):
        module = compile_source(self.LOOP % 2)
        function = module.functions["main"]
        interp = Interpreter(module)
        interp.run()
        _calls, rows = interp.control_counts()["main"]
        for label, instr, counter in rows:
            assert instr is function.blocks[label].terminator
            if instr.op is Opcode.BR:
                assert counter is interp._branch_records[instr.uid]

    def test_division_by_zero_mid_loop_keeps_the_profile(
            self, no_interpreter):
        module = compile_source("""
        int d[8];
        void main() {
          int i; int s;
          s = 0;
          for (i = 0; i < 8; i = i + 1) {
            if (i & 1) { s = s + 1; } else { s = s + 2; }
            s = s + 100 / d[i];
            out(s);
          }
        }
        """)
        function = module.functions["main"]
        profile = collect_profile(module, {"d": [1, 2, 3, 4, 5, 0, 7, 8]})
        assert profile.run_result is None and profile.total_steps == 0
        assert list(profile.functions) == ["main"]
        header = _uid_at(function, "for_head1", 1)
        parity = _uid_at(function, "for_body2", 1)
        assert profile.functions["main"] == FunctionProfile(
            edge_counts={
                ("entry0", "for_head1"): 1, ("for_head1", "for_body2"): 6,
                ("for_body2", "then5"): 3, ("for_body2", "else6"): 3,
                ("then5", "join7"): 3, ("else6", "join7"): 3,
                ("join7", "for_step3"): 5, ("for_step3", "for_head1"): 5,
            },
            block_counts={
                "entry0": 1, "for_head1": 6, "for_body2": 6, "then5": 3,
                "else6": 3, "join7": 6, "for_step3": 5,
            },
            branch_accuracy={header: 1.0, parity: 0.0},
            loop_trips={"for_head1": 5.0},
        )

    NESTED = """
    int leaf(int x) {
      int i; int s;
      s = 0;
      for (i = 0; i < x; i = i + 1) { s = s + i; }
      return s;
    }
    int mid(int x) { return leaf(x) + leaf(x + 1); }
    void main() { out(mid(3)); out(mid(50)); }
    """

    def test_nested_calls_count_every_frame(self):
        result = Interpreter(compile_source(self.NESTED)).run()
        assert (result.steps, result.blocks_executed) == (913, 339)
        assert result.outputs == [9, 2500]

    @pytest.mark.parametrize("budget, steps, blocks", [
        (300, 301, 111),
        (411, 412, 153),
    ])
    def test_budget_overrun_in_a_nested_call(self, budget, steps, blocks):
        module = compile_source(self.NESTED)
        interp = Interpreter(module, max_steps=budget)
        with pytest.raises(InterpError,
                           match="^step budget exceeded in leaf$"):
            interp.run()
        assert (interp.steps, interp.blocks_executed) == (steps, blocks)
        assert interp.outputs == [9]

    def test_budget_overrun_in_a_nested_call_keeps_the_profile(
            self, no_interpreter):
        profile = collect_profile(compile_source(self.NESTED), max_steps=411)
        leaf = profile.functions["leaf"]
        assert leaf.edge_counts == {
            ("entry0", "for_head1"): 3, ("for_head1", "for_body2"): 48,
            ("for_body2", "for_step3"): 47, ("for_step3", "for_head1"): 47,
            ("for_head1", "for_exit4"): 2,
        }
        assert leaf.block_counts == {
            "entry0": 3, "for_head1": 50, "for_body2": 48, "for_step3": 47,
            "for_exit4": 2,
        }
        assert leaf.loop_trips == {"for_head1": 47 / 3}
        # single-block functions: the entry counts its calls, the
        # second call of mid being the one that faulted
        for name, calls in (("main", 1), ("mid", 2)):
            assert profile.functions[name].block_counts == {"entry0": calls}
            assert profile.functions[name].edge_counts == {}
