"""MiniC abstract syntax tree.

Plain classes, one ``__init__`` each; the semantic analyzer annotates
expressions with a ``ctype`` attribute (``"int"`` or ``"float"``) in
place.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend.errors import SourceLocation

CType = str  # "int" | "float" | "void"


class Node:
    def __init__(self, location: SourceLocation) -> None:
        self.location = location


# -- expressions ------------------------------------------------------------


class Expr(Node):
    #: filled in by sema
    ctype: CType = ""


class IntLit(Expr):
    def __init__(self, location: SourceLocation, value: int) -> None:
        self.location = location
        self.value = value


class FloatLit(Expr):
    def __init__(self, location: SourceLocation, value: float) -> None:
        self.location = location
        self.value = value


class VarRef(Expr):
    def __init__(self, location: SourceLocation, name: str) -> None:
        self.location = location
        self.name = name


class ArrayRef(Expr):
    def __init__(self, location: SourceLocation, name: str,
                 index: Expr) -> None:
        self.location = location
        self.name = name
        self.index = index


class Unary(Expr):
    def __init__(self, location: SourceLocation, op: str,
                 operand: Expr) -> None:
        self.location = location
        self.op = op  # '-' | '!'
        self.operand = operand


class Binary(Expr):
    def __init__(self, location: SourceLocation, op: str, left: Expr,
                 right: Expr) -> None:
        self.location = location
        self.op = op  # arithmetic, comparison, bitwise, logical
        self.left = left
        self.right = right


class Call(Expr):
    def __init__(self, location: SourceLocation, name: str,
                 args: list[Expr]) -> None:
        self.location = location
        self.name = name
        self.args = args


# -- statements -------------------------------------------------------------


class Stmt(Node):
    pass


class DeclStmt(Stmt):
    def __init__(self, location: SourceLocation, ctype: CType, name: str,
                 array_size: Optional[int], init: Optional[Expr]) -> None:
        self.location = location
        self.ctype = ctype
        self.name = name
        self.array_size = array_size  # None for scalars
        self.init = init


class AssignStmt(Stmt):
    def __init__(self, location: SourceLocation, target: VarRef | ArrayRef,
                 value: Expr) -> None:
        self.location = location
        self.target = target
        self.value = value


class IfStmt(Stmt):
    def __init__(self, location: SourceLocation, condition: Expr,
                 then_body: BlockStmt,
                 else_body: Optional[BlockStmt]) -> None:
        self.location = location
        self.condition = condition
        self.then_body = then_body
        self.else_body = else_body


class WhileStmt(Stmt):
    def __init__(self, location: SourceLocation, condition: Expr,
                 body: BlockStmt) -> None:
        self.location = location
        self.condition = condition
        self.body = body


class ForStmt(Stmt):
    def __init__(self, location: SourceLocation, init: Optional[AssignStmt],
                 condition: Optional[Expr], step: Optional[AssignStmt],
                 body: BlockStmt) -> None:
        self.location = location
        self.init = init
        self.condition = condition
        self.step = step
        self.body = body


class ReturnStmt(Stmt):
    def __init__(self, location: SourceLocation,
                 value: Optional[Expr]) -> None:
        self.location = location
        self.value = value


class BreakStmt(Stmt):
    pass


class ContinueStmt(Stmt):
    pass


class OutStmt(Stmt):
    def __init__(self, location: SourceLocation, value: Expr) -> None:
        self.location = location
        self.value = value


class ExprStmt(Stmt):
    def __init__(self, location: SourceLocation, expr: Expr) -> None:
        self.location = location
        self.expr = expr


class BlockStmt(Stmt):
    def __init__(self, location: SourceLocation, body: list[Stmt]) -> None:
        self.location = location
        self.body = body


# -- top level ---------------------------------------------------------------


class Param(Node):
    def __init__(self, location: SourceLocation, ctype: CType,
                 name: str) -> None:
        self.location = location
        self.ctype = ctype
        self.name = name


class FuncDecl(Node):
    def __init__(self, location: SourceLocation, return_type: CType,
                 name: str, params: list[Param], body: BlockStmt) -> None:
        self.location = location
        self.return_type = return_type
        self.name = name
        self.params = params
        self.body = body


class GlobalDecl(Node):
    def __init__(self, location: SourceLocation, ctype: CType, name: str,
                 array_size: Optional[int],
                 init: list[float | int]) -> None:
        self.location = location
        self.ctype = ctype
        self.name = name
        self.array_size = array_size  # None => scalar (size-1 array in IR)
        self.init = init


class Program(Node):
    def __init__(self, location: SourceLocation, globals: list[GlobalDecl],
                 functions: list[FuncDecl]) -> None:
        self.location = location
        self.globals = globals
        self.functions = functions
