"""Scalar cleanup passes: folding, propagation, DCE, peephole,
increment folding — all behaviour-preserving."""

from repro.frontend import compile_source
from repro.ir.interp import Interpreter
from repro.ir.instr import Opcode
from repro.ir.values import Imm, VReg
from repro.passes import cleanup
from repro.passes.cleanup import (
    _FOLDABLE,
    cleanup_function,
    cleanup_module,
    constant_fold_function,
    copy_propagate_function,
    dce_function,
    fold_increments_function,
    peephole_function,
)
from tests.ir.test_liveness_property import compile_every_program


def run_module(module, inputs=None):
    interp = Interpreter(module)
    for name, values in (inputs or {}).items():
        interp.set_global(name, values)
    return interp.run()


def ops_of(function):
    return [instr.op for instr in function.instructions()]


class TestConstantFolding:
    def test_folds_constant_arithmetic(self):
        module = compile_source("void main() { out(2 + 3 * 4); }")
        func = module.functions["main"]
        folded = constant_fold_function(func)
        # After propagation of literals at lowering, the adds/muls on
        # immediates fold away.
        cleanup_function(func)
        assert Opcode.MUL not in ops_of(func)
        assert run_module(module).outputs == [14]

    def test_division_by_zero_left_for_runtime(self):
        module = compile_source("void main() { int z = 0; out(1 / z); }")
        func = module.functions["main"]
        cleanup_function(func)
        # The division must survive folding (it faults at runtime).
        assert Opcode.DIV in ops_of(func)

    def test_float_folds(self):
        module = compile_source("void main() { out(2.0 * 3.5 + 1.0); }")
        cleanup_module(module)
        assert run_module(module).outputs == [8.0]


class TestCopyPropagation:
    def test_copies_forwarded(self):
        source = """
        void main() {
          int a = 5;
          int b = a;
          int c = b;
          out(c);
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        copy_propagate_function(func)
        dce_function(func)
        # After propagation + DCE only one mov should be feeding out.
        movs = [op for op in ops_of(func) if op is Opcode.MOV]
        assert len(movs) <= 2
        assert run_module(module).outputs == [5]

    def test_redefinition_kills_copy(self):
        source = """
        void main() {
          int a = 1;
          int b = a;
          a = 9;
          out(b);
        }
        """
        module = compile_source(source)
        cleanup_module(module)
        assert run_module(module).outputs == [1]


class TestDCE:
    def test_removes_dead_code(self):
        source = """
        void main() {
          int dead = 1 + 2;
          int alive = 7;
          out(alive);
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        before = func.instruction_count()
        cleanup_function(func)
        assert func.instruction_count() < before
        assert run_module(module).outputs == [7]

    def test_keeps_stores_and_calls(self):
        source = """
        int g[4];
        int bump(int x) { g[0] = g[0] + x; return 0; }
        void main() {
          bump(3);
          g[1] = 5;
          out(g[0] + g[1]);
        }
        """
        module = compile_source(source)
        cleanup_module(module)
        assert run_module(module).outputs == [8]

    def test_dead_loads_removed(self):
        source = """
        int g[4];
        void main() {
          int unused = g[2];
          out(1);
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        cleanup_function(func)
        assert Opcode.LOAD not in ops_of(func)


class TestPeephole:
    def test_add_zero_removed(self):
        source = """
        int x;
        void main() { out(x + 0); }
        """
        module = compile_source(source)
        func = module.functions["main"]
        cleanup_function(func)
        assert Opcode.ADD not in ops_of(func)

    def test_mul_one_removed(self):
        source = """
        int x;
        void main() { out(x * 1); }
        """
        module = compile_source(source)
        func = module.functions["main"]
        cleanup_function(func)
        assert Opcode.MUL not in ops_of(func)

    def test_branch_on_constant_becomes_jump(self):
        source = """
        void main() {
          if (1) { out(10); } else { out(20); }
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        cleanup_function(func)
        assert Opcode.BR not in ops_of(func)
        assert run_module(module).outputs == [10]

    def test_unreachable_arm_removed(self):
        source = """
        void main() {
          if (0) { out(10); } else { out(20); }
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        before_blocks = len(func.block_order)
        cleanup_function(func)
        assert len(func.block_order) < before_blocks
        assert run_module(module).outputs == [20]


class TestIncrementFolding:
    def test_loop_increment_canonicalized(self):
        source = """
        void main() {
          int i;
          int acc = 0;
          for (i = 0; i < 5; i = i + 1) { acc = acc + i; }
          out(acc);
        }
        """
        module = compile_source(source)
        func = module.functions["main"]
        cleanup_function(func)
        # Find a self-increment "i = add i, 1".
        self_incs = [
            instr for instr in func.instructions()
            if instr.op is Opcode.ADD and instr.srcs
            and instr.srcs[0] == instr.dest
        ]
        assert self_incs
        assert run_module(module).outputs == [10]

    def test_fold_blocked_by_interleaving_use(self):
        # t = a + 1 ; out(a) ; a = t  -- cannot fold (a is read between).
        from repro.ir.block import Block
        from repro.ir.function import Function
        from repro.ir.instr import binop, mov, out, ret
        from repro.ir.values import Imm, INT

        func = Function("f", [])
        a = func.new_vreg(INT, "a")
        t = func.new_vreg(INT, "t")
        entry = func.new_block("entry")
        entry.append(mov(a, Imm(5)))
        entry.append(binop(Opcode.ADD, t, a, Imm(1)))
        entry.append(out(a))
        entry.append(mov(a, t))
        entry.append(out(a))
        entry.append(ret())
        folded = fold_increments_function(func)
        assert folded == 0


class TestWholePrograms:
    def test_cleanup_preserves_complex_program(self):
        source = """
        int data[32];
        int n;
        int f(int x) { return x * 2 + 1; }
        void main() {
          int acc = 0;
          int i;
          for (i = 0; i < n; i = i + 1) {
            if (data[i] % 3 == 0) { acc = acc + f(data[i]); }
          }
          out(acc);
        }
        """
        inputs = {"data": [(i * 7) % 11 for i in range(32)], "n": [30]}
        module = compile_source(source)
        before = run_module(module, inputs)
        cleanup_module(module)
        after = run_module(module, inputs)
        assert before.output_signature() == after.output_signature()
        assert after.steps <= before.steps


def reference_copy_propagate_function(function):
    """``copy_propagate_function`` over dicts keyed by register: a
    rewritten source tuple for every instruction, and a scan of every
    copy at every write."""
    rewritten = 0
    for block in function.ordered_blocks():
        copies = {}
        for instr in block.instrs:
            new_srcs = []
            for src in instr.srcs:
                replacement = copies.get(src) if isinstance(src, VReg) else None
                if replacement is not None:
                    new_srcs.append(replacement)
                    rewritten += 1
                else:
                    new_srcs.append(src)
            instr.srcs = tuple(new_srcs)
            if instr.guard is not None:
                replacement = copies.get(instr.guard)
                if isinstance(replacement, VReg):
                    instr.guard = replacement
                    rewritten += 1
            for written in instr.writes():
                if not isinstance(written, VReg):
                    continue
                copies.pop(written, None)
                for key in [k for k, v in copies.items() if v == written]:
                    copies.pop(key)
            if (instr.op is Opcode.MOV and instr.guard is None
                    and isinstance(instr.dest, VReg)):
                source = instr.srcs[0]
                if isinstance(source, (VReg, Imm)) and source != instr.dest:
                    copies[instr.dest] = source
    return rewritten


def reference_fold_increments_function(function):
    """``fold_increments_function`` over dicts keyed by register and
    list membership tests between the two instructions."""
    use_counts = {}
    for block in function.ordered_blocks():
        for instr in block.instrs:
            for reg in instr.reads():
                if isinstance(reg, VReg):
                    use_counts[reg] = use_counts.get(reg, 0) + 1
    folded = 0
    for block in function.ordered_blocks():
        index_of_def = {}
        kill = set()
        for index, instr in enumerate(block.instrs):
            if (instr.op is Opcode.MOV and instr.guard is None
                    and isinstance(instr.dest, VReg)
                    and isinstance(instr.srcs[0], VReg)):
                temp = instr.srcs[0]
                target = instr.dest
                def_index = index_of_def.get(temp)
                if (def_index is not None
                        and use_counts.get(temp, 0) == 1):
                    producer = block.instrs[def_index]
                    if (producer.guard is None and producer.srcs
                            and producer.srcs[0] == target
                            and producer.op in _FOLDABLE
                            and len(producer.writes()) == 1):
                        clean = True
                        for between in block.instrs[def_index + 1:index]:
                            regs = between.reads() + between.writes()
                            if target in regs or temp in regs:
                                clean = False
                                break
                        if clean:
                            producer.dest = target
                            kill.add(index)
                            folded += 1
            for written in instr.writes():
                if isinstance(written, VReg):
                    index_of_def[written] = index
        if kill:
            block.instrs = [
                instr for index, instr in enumerate(block.instrs)
                if index not in kill
            ]
    return folded


def ir_objects(function):
    """Each block's instructions as their text and the identities of
    their operand objects."""
    return [(label, [(str(instr), id(instr.dest), id(instr.dest2),
                      id(instr.guard), [id(src) for src in instr.srcs])
                     for instr in function.blocks[label].instrs])
            for label in function.block_order]


def test_uid_keyed_passes_equal_the_register_keyed_ones(monkeypatch):
    """Every ``copy_propagate_function`` and ``fold_increments_function``
    call over :func:`compile_every_program` returns the count and
    leaves the IR — text and operand objects — that the register-keyed
    reference gives on a clone.  A clone keeps its register and
    immediate objects, so the two must hold the very same operands."""
    counts = {"copy_propagate_function": [],
              "fold_increments_function": []}

    def checked(name, reference):
        uid_keyed = getattr(cleanup, name)

        def run(function):
            twin = function.clone()
            expected = reference(twin)
            got = uid_keyed(function)
            assert got == expected, function.name
            assert ir_objects(function) == ir_objects(twin), function.name
            counts[name].append(got)
            return got

        monkeypatch.setattr(cleanup, name, run)

    checked("copy_propagate_function", reference_copy_propagate_function)
    checked("fold_increments_function", reference_fold_increments_function)
    compile_every_program()
    for name, returned in counts.items():
        assert any(returned) and not all(returned), name
