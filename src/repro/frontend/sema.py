"""MiniC semantic analysis.

Resolves names, checks types, and annotates the AST in place:

* every ``Expr`` gets ``ctype`` (``"int"`` or ``"float"``);
* every ``VarRef``/``ArrayRef``/``DeclStmt``/``Param`` gets a ``symbol``
  attribute pointing at its :class:`Symbol`;
* every ``Call`` gets ``signature`` (the callee's
  ``(param_types, return_type)``) or ``builtin`` set.

Conversion rules (C-like, simplified): arithmetic between ``int`` and
``float`` promotes to ``float``; comparisons yield ``int``; logical and
bitwise operators require ``int`` operands; assignment/argument/return
positions convert implicitly in either direction.
"""

from __future__ import annotations

import itertools

from repro.frontend import astnodes as ast
from repro.frontend.errors import SemanticError

#: builtin name -> (param types, return type)
BUILTINS: dict[str, tuple[tuple[str, ...], str]] = {
    "sqrt": (("float",), "float"),
    "fabs": (("float",), "float"),
    "abs": (("int",), "int"),
}

_symbol_ids = itertools.count()


class Symbol:
    """One declared object (global, parameter or local)."""

    def __init__(self, name: str, ctype: str, kind: str,
                 array_size: int | None = None,
                 uid: int | None = None) -> None:
        self.name = name
        self.ctype = ctype  # element type for arrays
        self.kind = kind  # "global" | "param" | "local" | "local_array"
        self.array_size = array_size
        self.uid = next(_symbol_ids) if uid is None else uid

    @property
    def is_array(self) -> bool:
        return self.array_size is not None


class FuncSig:
    def __init__(self, name: str, param_types: tuple[str, ...],
                 return_type: str) -> None:
        self.name = name
        self.param_types = param_types
        self.return_type = return_type


class Scope:
    def __init__(self, parent: "Scope | None" = None) -> None:
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}

    def declare(self, symbol: Symbol, location) -> None:
        if symbol.name in self.symbols:
            raise SemanticError(f"redeclaration of {symbol.name!r}", location)
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class SemanticAnalyzer:
    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.global_scope = Scope()
        self.functions: dict[str, FuncSig] = {}
        self._loop_depth = 0
        self._current_return: str = "void"

    # -- entry point -------------------------------------------------------
    def analyze(self) -> ast.Program:
        for decl in self.program.globals:
            symbol = Symbol(
                name=decl.name,
                ctype=decl.ctype,
                kind="global",
                array_size=decl.array_size,
            )
            self.global_scope.declare(symbol, decl.location)
            decl.symbol = symbol  # type: ignore[attr-defined]
            decl.is_scalar = decl.array_size is None  # type: ignore[attr-defined]

        for func in self.program.functions:
            if func.name in self.functions or func.name in BUILTINS:
                raise SemanticError(f"redefinition of {func.name!r}",
                                    func.location)
            self.functions[func.name] = FuncSig(
                func.name,
                tuple(param.ctype for param in func.params),
                func.return_type,
            )

        if "main" not in self.functions:
            raise SemanticError("program must define main", self.program.location)
        if self.functions["main"].param_types:
            raise SemanticError("main must take no parameters",
                                self.program.location)

        for func in self.program.functions:
            self._check_function(func)
        return self.program

    # -- functions -----------------------------------------------------------
    def _check_function(self, func: ast.FuncDecl) -> None:
        scope = Scope(self.global_scope)
        self._current_return = func.return_type
        seen = set()
        for param in func.params:
            if param.name in seen:
                raise SemanticError(f"duplicate parameter {param.name!r}",
                                    param.location)
            seen.add(param.name)
            symbol = Symbol(param.name, param.ctype, "param")
            scope.declare(symbol, param.location)
            param.symbol = symbol  # type: ignore[attr-defined]
        self._check_block(func.body, scope)

    def _check_block(self, block: ast.BlockStmt, parent: Scope) -> None:
        scope = Scope(parent)
        for stmt in block.body:
            self._check_stmt(stmt, scope)

    # -- statements ------------------------------------------------------------
    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.DeclStmt):
            kind = "local_array" if stmt.array_size is not None else "local"
            symbol = Symbol(stmt.name, stmt.ctype, kind, stmt.array_size)
            scope.declare(symbol, stmt.location)
            stmt.symbol = symbol  # type: ignore[attr-defined]
            if stmt.init is not None:
                self._check_expr(stmt.init, scope)
        elif isinstance(stmt, ast.AssignStmt):
            self._check_lvalue(stmt.target, scope)
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._require_int(self._check_expr(stmt.condition, scope),
                              stmt.condition, "if condition")
            self._check_block(stmt.then_body, scope)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body, scope)
        elif isinstance(stmt, ast.WhileStmt):
            self._require_int(self._check_expr(stmt.condition, scope),
                              stmt.condition, "while condition")
            self._loop_depth += 1
            self._check_block(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._check_stmt(stmt.init, scope)
            if stmt.condition is not None:
                self._require_int(self._check_expr(stmt.condition, scope),
                                  stmt.condition, "for condition")
            if stmt.step is not None:
                self._check_stmt(stmt.step, scope)
            self._loop_depth += 1
            self._check_block(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                if self._current_return != "void":
                    raise SemanticError("non-void function must return a value",
                                        stmt.location)
            else:
                if self._current_return == "void":
                    raise SemanticError("void function cannot return a value",
                                        stmt.location)
                self._check_expr(stmt.value, scope)
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self._loop_depth == 0:
                raise SemanticError("break/continue outside a loop",
                                    stmt.location)
        elif isinstance(stmt, ast.OutStmt):
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, scope)
        else:  # pragma: no cover - exhaustive
            raise SemanticError(f"unknown statement {stmt!r}", stmt.location)

    def _check_lvalue(self, target, scope: Scope) -> None:
        if isinstance(target, ast.VarRef):
            symbol = scope.lookup(target.name)
            if symbol is None:
                raise SemanticError(f"undeclared variable {target.name!r}",
                                    target.location)
            if symbol.is_array:
                raise SemanticError(f"cannot assign whole array {target.name!r}",
                                    target.location)
            target.symbol = symbol  # type: ignore[attr-defined]
            target.ctype = symbol.ctype
        elif isinstance(target, ast.ArrayRef):
            self._check_array_ref(target, scope)
        else:  # pragma: no cover
            raise SemanticError("invalid assignment target", target.location)

    # -- expressions --------------------------------------------------------------
    def _check_expr(self, expr: ast.Expr, scope: Scope) -> str:
        if isinstance(expr, ast.IntLit):
            expr.ctype = "int"
        elif isinstance(expr, ast.FloatLit):
            expr.ctype = "float"
        elif isinstance(expr, ast.VarRef):
            symbol = scope.lookup(expr.name)
            if symbol is None:
                raise SemanticError(f"undeclared variable {expr.name!r}",
                                    expr.location)
            if symbol.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used without subscript", expr.location
                )
            expr.symbol = symbol  # type: ignore[attr-defined]
            expr.ctype = symbol.ctype
        elif isinstance(expr, ast.ArrayRef):
            self._check_array_ref(expr, scope)
        elif isinstance(expr, ast.Unary):
            inner = self._check_expr(expr.operand, scope)
            if expr.op == "!":
                self._require_int(inner, expr.operand, "operand of !")
                expr.ctype = "int"
            else:  # unary minus
                expr.ctype = inner
        elif isinstance(expr, ast.Binary):
            left = self._check_expr(expr.left, scope)
            right = self._check_expr(expr.right, scope)
            if expr.op in ("&&", "||", "&", "|", "^", "<<", ">>", "%"):
                self._require_int(left, expr.left, f"operand of {expr.op}")
                self._require_int(right, expr.right, f"operand of {expr.op}")
                expr.ctype = "int"
            elif expr.op in ("<", "<=", ">", ">=", "==", "!="):
                expr.ctype = "int"
            else:  # + - * /
                expr.ctype = "float" if "float" in (left, right) else "int"
        elif isinstance(expr, ast.Call):
            self._check_call(expr, scope)
        else:  # pragma: no cover
            raise SemanticError(f"unknown expression {expr!r}", expr.location)
        return expr.ctype

    def _check_array_ref(self, ref: ast.ArrayRef, scope: Scope) -> None:
        symbol = scope.lookup(ref.name)
        if symbol is None:
            raise SemanticError(f"undeclared array {ref.name!r}", ref.location)
        if not symbol.is_array:
            raise SemanticError(f"{ref.name!r} is not an array", ref.location)
        index_type = self._check_expr(ref.index, scope)
        self._require_int(index_type, ref.index, "array index")
        ref.symbol = symbol  # type: ignore[attr-defined]
        ref.ctype = symbol.ctype

    def _check_call(self, call: ast.Call, scope: Scope) -> None:
        if call.name in BUILTINS:
            param_types, return_type = BUILTINS[call.name]
            call.builtin = True  # type: ignore[attr-defined]
        else:
            signature = self.functions.get(call.name)
            if signature is None:
                raise SemanticError(f"call to undefined function {call.name!r}",
                                    call.location)
            param_types = signature.param_types
            return_type = signature.return_type
            call.builtin = False  # type: ignore[attr-defined]
        if len(call.args) != len(param_types):
            raise SemanticError(
                f"{call.name} expects {len(param_types)} arguments, "
                f"got {len(call.args)}",
                call.location,
            )
        for arg in call.args:
            self._check_expr(arg, scope)
        if return_type == "void":
            call.ctype = "int"  # value must not be used; flagged below
            call.returns_void = True  # type: ignore[attr-defined]
        else:
            call.ctype = return_type
            call.returns_void = False  # type: ignore[attr-defined]
        call.param_types = param_types  # type: ignore[attr-defined]

    @staticmethod
    def _require_int(ctype: str, node: ast.Expr, what: str) -> None:
        if ctype != "int":
            raise SemanticError(f"{what} must be int, got {ctype}",
                                node.location)


def analyze(program: ast.Program) -> ast.Program:
    """Run semantic analysis, annotating and returning the program."""
    return SemanticAnalyzer(program).analyze()
