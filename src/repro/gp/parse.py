"""S-expression parser and printer for GP priority functions.

The compiler hook reads priority functions in the textual form used by
the paper's Table 1, e.g.::

    (add (mul exec_ratio 0.8720) (cmul (not mem_hazard) 0.6727 num_paths))

Grammar::

    expr     := atom | '(' head expr* ')'
    atom     := number | 'true' | 'false' | identifier
    head     := identifier

Bare numbers parse as ``(rconst K)``; ``true``/``false`` as ``bconst``;
other bare identifiers become feature terminals whose kind (real or
Boolean) is resolved from the ``bool_features`` set passed to
:func:`parse` — exactly mirroring how the compiler writer registers the
feature list with the expression evaluator.
"""

from __future__ import annotations

import repro.gp.nodes as nodes
from repro.gp.nodes import ALL_CLASSES, BArg, BConst, Node, RArg, RConst


class ParseError(ValueError):
    """Raised when an s-expression is malformed or ill-typed."""


def tokenize(text: str) -> list[str]:
    """Split an s-expression string into parenthesis and atom tokens."""
    tokens: list[str] = []
    current: list[str] = []
    for char in text:
        if char in "()":
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(char)
        elif char.isspace():
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(char)
    if current:
        tokens.append("".join(current))
    return tokens


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


class _Parser:
    def __init__(self, tokens: list[str], bool_features: frozenset[str]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._bool_features = bool_features

    def _peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> str:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self._pos += 1
        return token

    def parse_expr(self) -> Node:
        token = self._next()
        if token == ")":
            raise ParseError("unexpected ')'")
        if token != "(":
            return self._atom(token)
        head = self._next()
        if head in ("(", ")"):
            raise ParseError(f"expected operator name, got {head!r}")
        args: list[Node | str] = []
        while True:
            look = self._peek()
            if look is None:
                raise ParseError("missing ')'")
            if look == ")":
                self._next()
                break
            if head in ("rconst", "bconst", "rarg", "barg"):
                args.append(self._next())
            else:
                args.append(self.parse_expr())
        return self._build(head, args)

    def _atom(self, token: str) -> Node:
        if _is_number(token):
            return RConst(float(token))
        if token == "true":
            return BConst(True)
        if token == "false":
            return BConst(False)
        if token in self._bool_features:
            return BArg(token)
        return RArg(token)

    def _build(self, head: str, args: list) -> Node:
        if head == "rconst":
            if len(args) != 1 or not isinstance(args[0], str):
                raise ParseError("(rconst K) takes one numeric literal")
            return RConst(float(args[0]))
        if head == "bconst":
            if len(args) != 1 or args[0] not in ("true", "false"):
                raise ParseError("(bconst true|false)")
            return BConst(args[0] == "true")
        if head == "rarg":
            if len(args) != 1 or not isinstance(args[0], str):
                raise ParseError("(rarg name) takes one identifier")
            return RArg(args[0])
        if head == "barg":
            if len(args) != 1 or not isinstance(args[0], str):
                raise ParseError("(barg name) takes one identifier")
            return BArg(args[0])
        cls = ALL_CLASSES.get(head)
        if cls is None:
            raise ParseError(f"unknown operator {head!r}")
        try:
            return cls(*args)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from exc

    def finish(self) -> None:
        if self._pos != len(self._tokens):
            raise ParseError(
                f"trailing tokens after expression: {self._tokens[self._pos:]}"
            )


def parse(text: str, bool_features: frozenset[str] | set[str] = frozenset()) -> Node:
    """Parse an s-expression into a typed GP tree.

    ``bool_features`` names the feature identifiers that should parse as
    Boolean terminals; every other bare identifier parses as a
    real-valued feature.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens, frozenset(bool_features))
    tree = parser.parse_expr()
    parser.finish()
    return tree


def _format_real(value: float) -> str:
    text = f"{value:.4f}"
    if float(text) == value:
        return text
    return repr(value)


def unparse(node: Node) -> str:
    """Render a GP tree back to its s-expression form.

    ``parse(unparse(t))`` reproduces ``t`` structurally for any tree
    whose feature names are declared consistently.
    """
    if isinstance(node, RConst):
        return _format_real(node.value)
    if isinstance(node, BConst):
        return "true" if node.value else "false"
    if isinstance(node, (RArg, BArg)):
        return node.name
    args = " ".join(unparse(child) for child in node.children)
    return f"({node.op_name} {args})"


def infix(node: Node) -> str:
    """Render a GP tree as free-form arithmetic, for human readability.

    This is the form used when the paper presents evolved heuristics
    (e.g. Figure 8's hand-simplified expression).
    """
    if isinstance(node, RConst):
        return _format_real(node.value)
    if isinstance(node, BConst):
        return "true" if node.value else "false"
    if isinstance(node, (RArg, BArg)):
        return node.name
    kids = [infix(child) for child in node.children]
    if isinstance(node, nodes.Add):
        return f"({kids[0]} + {kids[1]})"
    if isinstance(node, nodes.Sub):
        return f"({kids[0]} - {kids[1]})"
    if isinstance(node, nodes.Mul):
        return f"({kids[0]} * {kids[1]})"
    if isinstance(node, nodes.Div):
        return f"({kids[0]} / {kids[1]})"
    if isinstance(node, nodes.Sqrt):
        return f"sqrt({kids[0]})"
    if isinstance(node, nodes.Tern):
        return f"({kids[1]} if {kids[0]} else {kids[2]})"
    if isinstance(node, nodes.Cmul):
        return f"(({kids[1]} * {kids[2]}) if {kids[0]} else {kids[2]})"
    if isinstance(node, nodes.And):
        return f"({kids[0]} and {kids[1]})"
    if isinstance(node, nodes.Or):
        return f"({kids[0]} or {kids[1]})"
    if isinstance(node, nodes.Not):
        return f"(not {kids[0]})"
    if isinstance(node, nodes.Lt):
        return f"({kids[0]} < {kids[1]})"
    if isinstance(node, nodes.Gt):
        return f"({kids[0]} > {kids[1]})"
    if isinstance(node, nodes.Eq):
        return f"({kids[0]} == {kids[1]})"
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover
