"""Lowering tests: golden program behaviours via the interpreter, plus
structural properties of the emitted IR (hazard flags, short-circuit
control flow)."""

import pytest

from repro.frontend import compile_source
from repro.ir.instr import Opcode
from repro.ir.interp import Interpreter
from repro.verify.ir_verifier import verify_module


def run(source, inputs=None, entry="main"):
    module = compile_source(source)
    interp = Interpreter(module)
    for name, values in (inputs or {}).items():
        interp.set_global(name, values)
    return interp.run(entry=entry)


class TestGoldenPrograms:
    def test_gcd(self):
        result = run("""
        int gcd(int a, int b) {
          while (b != 0) {
            int t = b;
            b = a % b;
            a = t;
          }
          return a;
        }
        void main() { out(gcd(1071, 462)); out(gcd(17, 5)); }
        """)
        assert result.outputs == [21, 1]

    def test_sieve(self):
        result = run("""
        int flags[64];
        void main() {
          int count = 0;
          int i;
          for (i = 2; i < 64; i = i + 1) {
            if (flags[i] == 0) {
              count = count + 1;
              int j;
              for (j = i + i; j < 64; j = j + i) { flags[j] = 1; }
            }
          }
          out(count);
        }
        """)
        assert result.outputs == [18]  # primes below 64

    def test_nested_breaks_and_continues(self):
        result = run("""
        void main() {
          int total = 0;
          int i;
          for (i = 0; i < 10; i = i + 1) {
            if (i == 7) { break; }
            if (i % 2 == 0) { continue; }
            int j = 0;
            while (1) {
              j = j + 1;
              if (j >= i) { break; }
            }
            total = total + j;
          }
          out(total);
          out(i);
        }
        """)
        assert result.outputs == [1 + 3 + 5, 7]

    def test_float_int_conversions(self):
        result = run("""
        void main() {
          int i = 7;
          float f = i / 2;      // integer division, then convert
          out(f);
          float g = i / 2.0;    // float division
          out(g);
          int t = 3.9;          // truncation
          out(t);
          int u = 0 - 1;
          float h = u;
          out(h);
        }
        """)
        assert result.outputs == [3.0, 3.5, 3, -1.0]

    def test_global_scalars(self):
        result = run("""
        int counter;
        void bump() { counter = counter + 1; }
        void main() {
          bump();
          bump();
          bump();
          out(counter);
        }
        """)
        assert result.outputs == [3]

    def test_builtin_semantics(self):
        result = run("""
        void main() {
          out(abs(-17));
          out(abs(17));
          out(abs(0));
          out(fabs(0.0 - 2.25));
          out(fabs(2.25));
          out(sqrt(144.0));
        }
        """)
        assert result.outputs == [17, 17, 0, 2.25, 2.25, 12.0]

    def test_unary_not(self):
        result = run("""
        void main() {
          out(!0);
          out(!5);
          out(!!7);
        }
        """)
        assert result.outputs == [1, 0, 1]

    def test_implicit_return_zero(self):
        result = run("""
        int f(int x) {
          if (x > 0) { return 1; }
        }
        void main() { out(f(1)); out(f(-1)); }
        """)
        assert result.outputs == [1, 0]


class TestShortCircuit:
    def test_and_skips_rhs(self):
        result = run("""
        int calls;
        int bump() { calls = calls + 1; return 1; }
        void main() {
          int x = 0;
          if (x != 0 && bump() == 1) { out(99); }
          out(calls);
        }
        """)
        assert result.outputs == [0]

    def test_or_skips_rhs(self):
        result = run("""
        int calls;
        int bump() { calls = calls + 1; return 1; }
        void main() {
          int x = 1;
          if (x == 1 || bump() == 1) { out(42); }
          out(calls);
        }
        """)
        assert result.outputs == [42, 0]

    def test_logical_results_normalized(self):
        result = run("""
        void main() {
          int a = 7;
          out(a && 9);
          out(0 || 12);
          out(a && 0);
        }
        """)
        assert result.outputs == [1, 1, 0]


class TestIRStructure:
    def test_indirect_access_marked_hazard(self):
        module = compile_source("""
        int a[8];
        int b[8];
        void main() { out(a[b[2]]); }
        """)
        loads = [i for i in module.functions["main"].instructions()
                 if i.op is Opcode.LOAD]
        assert any(l.hazard for l in loads)
        # the inner load (b[2]) is direct
        assert any(not l.hazard for l in loads)

    def test_direct_access_not_hazard(self):
        module = compile_source("""
        int a[8];
        void main() { int i = 1; out(a[i + 1]); }
        """)
        loads = [i for i in module.functions["main"].instructions()
                 if i.op is Opcode.LOAD]
        assert all(not l.hazard for l in loads)

    def test_calls_marked_hazard(self):
        module = compile_source("""
        int f(int x) { return x; }
        void main() { out(f(1)); }
        """)
        calls = [i for i in module.functions["main"].instructions()
                 if i.op is Opcode.CALL]
        assert calls and all(c.hazard for c in calls)

    def test_if_lowered_to_diamond(self):
        module = compile_source("""
        int x;
        void main() {
          int a = 0;
          if (x > 0) { a = 1; } else { a = 2; }
          out(a);
        }
        """)
        func = module.functions["main"]
        branches = [i for i in func.instructions() if i.op is Opcode.BR]
        assert len(branches) == 1

    def test_module_validates(self):
        module = compile_source("""
        int helper(int x) { return x * 2; }
        void main() {
          int i;
          for (i = 0; i < 3; i = i + 1) { out(helper(i)); }
        }
        """)
        verify_module(module)

    def test_local_array_gets_stack(self):
        module = compile_source("""
        void main() {
          int scratch[16];
          scratch[0] = 1;
          out(scratch[0]);
        }
        """)
        assert module.functions["main"].frame_words == 16
