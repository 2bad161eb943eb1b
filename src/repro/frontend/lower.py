"""Lowering: MiniC AST -> three-address IR.

Decisions that matter downstream:

* **Scalars in registers.**  Locals and parameters live in virtual
  registers; global scalars live in memory (size-1 arrays) and are
  loaded/stored at each access.
* **Short-circuit control flow.**  ``&&``/``||`` lower to branches, so
  integer benchmarks produce exactly the dense, small-block control flow
  that makes hyperblock formation interesting (Figure 3's motivation).
* **Hazard marking.**  A load/store whose address depends on another
  load in the same expression (``a[b[i]]``) is flagged as a hazard, as
  are all calls — these feed the Table 4 hyperblock features and the
  IMPACT baseline's hazard penalty.
* **Word addressing.**  ``a[i]`` is at ``base + i`` (every element is
  one word); the cache model scales to bytes itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend import astnodes as ast
from repro.frontend.errors import SemanticError
from repro.frontend.parser import parse_source
from repro.frontend.sema import Symbol, analyze
from repro.ir.function import Function, GlobalArray, Module
from repro.ir.instr import (
    Instr,
    Opcode,
    Rel,
    binop,
    br,
    call,
    cmp,
    jmp,
    lea,
    load,
    mov,
    out,
    ret,
    store,
)
from repro.ir.values import FLOAT, INT, Imm, IRType, Operand, StackSlot, SymRef, VReg

_ARITH_INT = {"+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
              "/": Opcode.DIV, "%": Opcode.REM}
_ARITH_FLOAT = {"+": Opcode.FADD, "-": Opcode.FSUB, "*": Opcode.FMUL,
                "/": Opcode.FDIV}
_BITWISE = {"&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
            "<<": Opcode.SHL, ">>": Opcode.SHR}
_RELS = {"<": Rel.LT, "<=": Rel.LE, ">": Rel.GT, ">=": Rel.GE,
         "==": Rel.EQ, "!=": Rel.NE}


def _ir_type(ctype: str) -> IRType:
    return FLOAT if ctype == "float" else INT


@dataclass
class _Value:
    """An expression result: the operand plus a memory-taint flag."""

    operand: Operand
    ctype: str
    tainted: bool = False


class _FunctionLowerer:
    def __init__(self, module: Module, func: ast.FuncDecl) -> None:
        self.module = module
        params = []
        self._slots: dict[int, object] = {}
        self.function = Function(
            func.name, [], None if func.return_type == "void"
            else _ir_type(func.return_type),
        )
        for param in func.params:
            symbol: Symbol = param.symbol  # type: ignore[attr-defined]
            reg = self.function.new_vreg(_ir_type(param.ctype), param.name)
            self.function.params.append(reg)
            self._slots[symbol.uid] = reg
        self.func_ast = func
        self.block = self.function.new_block("entry")
        #: (break_target, continue_target) stack
        self._loop_stack: list[tuple[str, str]] = []

    # -- block plumbing ------------------------------------------------------
    def _emit(self, instr: Instr) -> None:
        self.block.append(instr)

    def _close_with(self, instr: Instr) -> None:
        if not self.block.is_closed():
            self.block.append(instr)

    # -- registers ------------------------------------------------------------
    def _temp(self, ctype: str, name: str = "t") -> VReg:
        return self.function.new_vreg(_ir_type(ctype), name)

    def _coerce(self, value: _Value, want: str) -> _Value:
        if value.ctype == want:
            return value
        if isinstance(value.operand, Imm):
            raw = value.operand.value
            converted = float(raw) if want == "float" else int(raw)
            return _Value(Imm(converted, _ir_type(want)), want, value.tainted)
        dest = self._temp(want, "cv")
        op = Opcode.ITOF if want == "float" else Opcode.FTOI
        self._emit(Instr(op, dest=dest, srcs=(value.operand,)))
        return _Value(dest, want, value.tainted)

    # -- program entry -----------------------------------------------------------
    def lower(self) -> Function:
        self._lower_block(self.func_ast.body)
        if not self.block.is_closed():
            if self.function.return_type is None:
                self._close_with(ret())
            else:
                zero = Imm(0 if self.function.return_type is INT else 0.0,
                           self.function.return_type)
                self._close_with(ret(zero))
        self.function.validate()
        return self.function

    # -- statements -----------------------------------------------------------------
    def _lower_block(self, block: ast.BlockStmt) -> None:
        for stmt in block.body:
            if self.block.is_closed():
                # Unreachable code after return/break: skip quietly.
                break
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                self._close_with(ret())
            else:
                value = self._lower_expr(stmt.value)
                want = ("float" if self.function.return_type is FLOAT else "int")
                value = self._coerce(value, want)
                self._close_with(ret(value.operand))
        elif isinstance(stmt, ast.BreakStmt):
            self._close_with(jmp(self._loop_stack[-1][0]))
        elif isinstance(stmt, ast.ContinueStmt):
            self._close_with(jmp(self._loop_stack[-1][1]))
        elif isinstance(stmt, ast.OutStmt):
            value = self._lower_expr(stmt.value)
            operand = value.operand
            if isinstance(operand, Imm):
                temp = self._temp(value.ctype)
                self._emit(mov(temp, operand))
                operand = temp
            self._emit(out(operand))
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, result_used=False)
        else:  # pragma: no cover
            raise SemanticError(f"cannot lower {stmt!r}", stmt.location)

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        symbol: Symbol = stmt.symbol  # type: ignore[attr-defined]
        if symbol.kind == "local_array":
            offset = self.function.alloc_stack(symbol.array_size, symbol.name)
            self._slots[symbol.uid] = StackSlot(offset, symbol.name)
            return
        reg = self.function.new_vreg(_ir_type(symbol.ctype), symbol.name)
        self._slots[symbol.uid] = reg
        if stmt.init is not None:
            value = self._coerce(self._lower_expr(stmt.init), symbol.ctype)
            self._emit(mov(reg, value.operand))
        else:
            zero = Imm(0 if symbol.ctype == "int" else 0.0, _ir_type(symbol.ctype))
            self._emit(mov(reg, zero))

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        symbol: Symbol = target.symbol  # type: ignore[attr-defined]
        value = self._coerce(self._lower_expr(stmt.value), symbol.ctype)
        if isinstance(target, ast.VarRef):
            if symbol.kind == "global":
                addr = self._temp("int", "ga")
                self._emit(lea(addr, SymRef(symbol.name)))
                self._emit(store(addr, self._materialize(value)))
            else:
                reg = self._slots[symbol.uid]
                self._emit(mov(reg, value.operand))
        else:  # ArrayRef
            addr, hazard = self._array_address(target)
            self._emit(store(addr, self._materialize(value), hazard=hazard))

    def _materialize(self, value: _Value) -> Operand:
        """Stores take register operands; move immediates into a temp."""
        if isinstance(value.operand, Imm):
            temp = self._temp(value.ctype)
            self._emit(mov(temp, value.operand))
            return temp
        return value.operand

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        condition = self._lower_expr(stmt.condition)
        then_block = self.function.new_block("then")
        join_label: str | None = None
        if stmt.else_body is not None:
            else_block = self.function.new_block("else")
            self._close_with(br(self._materialize(condition),
                                then_block.label, else_block.label))
            self.block = then_block
            self._lower_block(stmt.then_body)
            then_tail = self.block
            self.block = else_block
            self._lower_block(stmt.else_body)
            else_tail = self.block
            if not then_tail.is_closed() or not else_tail.is_closed():
                join = self.function.new_block("join")
                join_label = join.label
                if not then_tail.is_closed():
                    then_tail.append(jmp(join.label))
                if not else_tail.is_closed():
                    else_tail.append(jmp(join.label))
                self.block = join
            else:
                # Both arms return/break: continue in a fresh dead block
                # that lowering of the remaining statements will skip.
                self.block = then_tail
        else:
            join = self.function.new_block("join")
            self._close_with(br(self._materialize(condition),
                                then_block.label, join.label))
            self.block = then_block
            self._lower_block(stmt.then_body)
            if not self.block.is_closed():
                self.block.append(jmp(join.label))
            self.block = join

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.function.new_block("while_head")
        self._close_with(jmp(header.label))
        self.block = header
        condition = self._lower_expr(stmt.condition)
        body = self.function.new_block("while_body")
        exit_block = self.function.new_block("while_exit")
        self._close_with(br(self._materialize(condition),
                            body.label, exit_block.label))
        self._loop_stack.append((exit_block.label, header.label))
        self.block = body
        self._lower_block(stmt.body)
        if not self.block.is_closed():
            self.block.append(jmp(header.label))
        self._loop_stack.pop()
        self.block = exit_block

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self._lower_assign(stmt.init)
        header = self.function.new_block("for_head")
        self._close_with(jmp(header.label))
        self.block = header
        body = self.function.new_block("for_body")
        step_block = self.function.new_block("for_step")
        exit_block = self.function.new_block("for_exit")
        if stmt.condition is not None:
            condition = self._lower_expr(stmt.condition)
            self._close_with(br(self._materialize(condition),
                                body.label, exit_block.label))
        else:
            self._close_with(jmp(body.label))
        self._loop_stack.append((exit_block.label, step_block.label))
        self.block = body
        self._lower_block(stmt.body)
        if not self.block.is_closed():
            self.block.append(jmp(step_block.label))
        self._loop_stack.pop()
        self.block = step_block
        if stmt.step is not None:
            self._lower_assign(stmt.step)
        self._close_with(jmp(header.label))
        self.block = exit_block

    # -- expressions ---------------------------------------------------------------
    def _lower_expr(self, expr: ast.Expr, result_used: bool = True) -> _Value:
        if isinstance(expr, ast.IntLit):
            return _Value(Imm(expr.value, INT), "int")
        if isinstance(expr, ast.FloatLit):
            return _Value(Imm(expr.value, FLOAT), "float")
        if isinstance(expr, ast.VarRef):
            return self._lower_varref(expr)
        if isinstance(expr, ast.ArrayRef):
            addr, hazard = self._array_address(expr)
            dest = self._temp(expr.ctype, "ld")
            self._emit(load(dest, addr, hazard=hazard))
            return _Value(dest, expr.ctype, tainted=True)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, result_used)
        raise SemanticError(f"cannot lower {expr!r}", expr.location)

    def _lower_varref(self, expr: ast.VarRef) -> _Value:
        symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
        if symbol.kind == "global":
            addr = self._temp("int", "ga")
            self._emit(lea(addr, SymRef(symbol.name)))
            dest = self._temp(symbol.ctype, symbol.name)
            self._emit(load(dest, addr))
            return _Value(dest, symbol.ctype, tainted=True)
        return _Value(self._slots[symbol.uid], symbol.ctype)

    def _array_address(self, ref: ast.ArrayRef) -> tuple[Operand, bool]:
        """Compute the word address of ``ref``; returns (operand, hazard)."""
        symbol: Symbol = ref.symbol  # type: ignore[attr-defined]
        index = self._coerce(self._lower_expr(ref.index), "int")
        if symbol.kind == "local_array":
            base_target: SymRef | StackSlot = self._slots[symbol.uid]
        else:
            base_target = SymRef(symbol.name)
        base = self._temp("int", "base")
        self._emit(lea(base, base_target))
        if isinstance(index.operand, Imm) and index.operand.value == 0:
            return base, index.tainted
        addr = self._temp("int", "addr")
        self._emit(binop(Opcode.ADD, addr, base, index.operand))
        return addr, index.tainted

    def _lower_unary(self, expr: ast.Unary) -> _Value:
        value = self._lower_expr(expr.operand)
        if expr.op == "-":
            if isinstance(value.operand, Imm):
                return _Value(
                    Imm(-value.operand.value, value.operand.vtype),
                    value.ctype, value.tainted,
                )
            dest = self._temp(value.ctype, "neg")
            op = Opcode.FNEG if value.ctype == "float" else Opcode.NEG
            self._emit(Instr(op, dest=dest, srcs=(value.operand,)))
            return _Value(dest, value.ctype, value.tainted)
        # '!' : int -> int
        dest = self._temp("int", "not")
        self._emit(cmp(dest, Rel.EQ, value.operand, Imm(0, INT)))
        return _Value(dest, "int", value.tainted)

    def _lower_binary(self, expr: ast.Binary) -> _Value:
        if expr.op in ("&&", "||"):
            return self._lower_logical(expr)
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        tainted = left.tainted or right.tainted

        if expr.op in _RELS:
            # Promote to a common type for comparison.
            if "float" in (left.ctype, right.ctype):
                left = self._coerce(left, "float")
                right = self._coerce(right, "float")
            dest = self._temp("int", "cmp")
            self._emit(cmp(dest, _RELS[expr.op], left.operand, right.operand))
            return _Value(dest, "int", tainted)

        if expr.op in _BITWISE:
            dest = self._temp("int", "bit")
            self._emit(binop(_BITWISE[expr.op], dest, left.operand,
                             right.operand))
            return _Value(dest, "int", tainted)

        # Arithmetic
        if expr.ctype == "float":
            left = self._coerce(left, "float")
            right = self._coerce(right, "float")
            dest = self._temp("float", "ar")
            self._emit(binop(_ARITH_FLOAT[expr.op], dest, left.operand,
                             right.operand))
            return _Value(dest, "float", tainted)
        dest = self._temp("int", "ar")
        self._emit(binop(_ARITH_INT[expr.op], dest, left.operand,
                         right.operand))
        return _Value(dest, "int", tainted)

    def _lower_logical(self, expr: ast.Binary) -> _Value:
        """Short-circuit ``&&`` / ``||`` via control flow."""
        result = self._temp("int", "sc")
        right_block = self.function.new_block("sc_rhs")
        done = self.function.new_block("sc_done")

        left = self._lower_expr(expr.left)
        default = 0 if expr.op == "&&" else 1
        self._emit(mov(result, Imm(default, INT)))
        left_operand = self._materialize(left)
        if expr.op == "&&":
            self._close_with(br(left_operand, right_block.label, done.label))
        else:
            self._close_with(br(left_operand, done.label, right_block.label))

        self.block = right_block
        right = self._lower_expr(expr.right)
        normalized = self._temp("int", "nz")
        self._emit(cmp(normalized, Rel.NE, right.operand, Imm(0, INT)))
        self._emit(mov(result, normalized))
        self._close_with(jmp(done.label))

        self.block = done
        return _Value(result, "int", left.tainted or right.tainted)

    def _lower_call(self, expr: ast.Call, result_used: bool) -> _Value:
        if expr.builtin:  # type: ignore[attr-defined]
            return self._lower_builtin(expr)
        param_types = expr.param_types  # type: ignore[attr-defined]
        args = []
        for arg, want in zip(expr.args, param_types):
            value = self._coerce(self._lower_expr(arg), want)
            args.append(self._materialize(value))
        if expr.returns_void:  # type: ignore[attr-defined]
            self._emit(call(None, expr.name, tuple(args)))
            return _Value(Imm(0, INT), "int")
        dest = self._temp(expr.ctype, "call")
        self._emit(call(dest, expr.name, tuple(args)))
        return _Value(dest, expr.ctype, tainted=True)

    def _lower_builtin(self, expr: ast.Call) -> _Value:
        name = expr.name
        value = self._lower_expr(expr.args[0])
        if name == "sqrt":
            value = self._coerce(value, "float")
            dest = self._temp("float", "sq")
            self._emit(Instr(Opcode.FSQRT, dest=dest, srcs=(value.operand,)))
            return _Value(dest, "float", value.tainted)
        if name == "abs":
            # Branchless: t = x >> 63; result = (x ^ t) - t
            sign = self._temp("int", "sg")
            self._emit(binop(Opcode.SHR, sign, self._materialize(value),
                             Imm(63, INT)))
            flipped = self._temp("int", "fx")
            self._emit(binop(Opcode.XOR, flipped, value.operand, sign))
            dest = self._temp("int", "abs")
            self._emit(binop(Opcode.SUB, dest, flipped, sign))
            return _Value(dest, "int", value.tainted)
        if name == "fabs":
            # FSQRT already takes |x|; square-then-sqrt would lose
            # precision, so lower as a compare/branch diamond.
            value = self._coerce(value, "float")
            operand = self._materialize(value)
            result = self._temp("float", "fa")
            self._emit(mov(result, operand))
            negative = self._temp("int", "ng")
            self._emit(cmp(negative, Rel.LT, operand, Imm(0.0, FLOAT)))
            flip = self.function.new_block("fabs_flip")
            done = self.function.new_block("fabs_done")
            self._close_with(br(negative, flip.label, done.label))
            self.block = flip
            negated = self._temp("float", "fn")
            self._emit(Instr(Opcode.FNEG, dest=negated, srcs=(operand,)))
            self._emit(mov(result, negated))
            self._close_with(jmp(done.label))
            self.block = done
            return _Value(result, "float", value.tainted)
        raise SemanticError(f"unknown builtin {name!r}", expr.location)


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower an analyzed AST to an IR module."""
    module = Module(name)
    for decl in program.globals:
        symbol: Symbol = decl.symbol  # type: ignore[attr-defined]
        module.add_global(GlobalArray(
            name=decl.name,
            size=symbol.array_size or 1,
            elem_type=_ir_type(decl.ctype),
            init=tuple(decl.init),
        ))
    for func in program.functions:
        module.add_function(_FunctionLowerer(module, func).lower())
    module.validate()
    return module


def compile_source(source: str, name: str = "module") -> Module:
    """Front-end driver: source text -> validated IR module."""
    program = analyze(parse_source(source))
    return lower_program(program, name)
