"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insignificant):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right associative
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' binds tightest and unary minus binds below it, so ``-x^2`` is
``-(x^2)`` while ``x^-2`` parses as expected.  Identifiers followed by
'(' must be one of the known function names; bare identifiers must be
chart coordinates.

One pattern, ``_TOKEN_RE``, splits the text into ``(kind, text,
offset)`` tokens: whitespace (skipped), numbers, identifiers, operators
(each its own kind), and any other character, an error. ``expr`` and
``term`` are one loop over ``_BINARY`` (precedence climbing), where
``+ -`` are level 0 and ``* /`` level 1, folding each operator it meets.

Input may nest at most ``MAX_DEPTH`` levels, counted two ways: the
parser's own nesting (parentheses, calls, unary minus and '^') and the
operator depth of the result (its ``depth`` less the leaf), which a
left-associative chain such as ``x/2/2/2`` builds without parser
nesting. Every later walk of the tree (differentiation,
simplification, evaluation, printing) recurses per level, so deeper
input is rejected here as a syntax error.
"""
from __future__ import annotations

import math
import re

from .chart import CoordinateChart
from .errors import ExprSyntaxError, ExpressionTooDeepError, UnknownIdentifierError
from .expr import (
    BINARY_FUNCTIONS,
    Const,
    Coord,
    ScalarExpr,
    UNARY_FUNCTIONS,
    ncall,
    nneg,
    npow,
    nprod,
    nquot,
    nsum,
)

MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"\s+"
    r"|(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>.)",
    re.DOTALL,
)

_BINARY = {  # operator: (precedence level, fold of the two operands)
    "+": (0, lambda a, b: nsum([a, b])),
    "-": (0, lambda a, b: nsum([a, nneg(b)])),
    "*": (1, lambda a, b: nprod([a, b])),
    "/": (1, nquot),
}


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind, token, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            message = f"unexpected character {token!r}"
            raise ExprSyntaxError(message, _byte_offset(text, pos))
        if kind:  # not whitespace
            tokens.append((token if kind == "op" else kind, token, pos))
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str, chart: CoordinateChart):
        self.text = text
        self.chart = chart
        self.tokens = iter(_tokenize(text))
        self.token = next(self.tokens)  # the next token to parse
        self.depth = 0

    # -- token plumbing ----------------------------------------------------
    def advance(self):
        self.token = next(self.tokens)

    def expect(self, kind: str):
        if self.token[0] != kind:
            self.fail(f"expected {kind!r}, found {self.token[1] or 'end of input'!r}")
        self.advance()

    def fail(self, message: str):
        raise ExprSyntaxError(message, _byte_offset(self.text, self.token[2]))

    def nested(self, parse):
        """``parse()`` one level deeper; fails beyond MAX_DEPTH levels."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        node = parse()
        self.depth -= 1
        return node

    # -- grammar ------------------------------------------------------------
    def parse(self):
        node = self.expr()
        if self.token[0] != "end":
            self.fail(f"unexpected trailing input {self.token[1]!r}")
        return node

    def expr(self, level=0):
        """Factors joined by binary operators of ``level`` or above."""
        node = self.factor()
        while (op := _BINARY.get(self.token[0])) and op[0] >= level:
            self.advance()
            node = op[1](node, self.expr(op[0] + 1))
        return node

    def factor(self):
        if self.token[0] == "-":
            self.advance()
            return nneg(self.nested(self.factor))
        return self.power()

    def power(self):
        base = self.atom()
        if self.token[0] == "^":
            self.advance()
            return npow(base, self.nested(self.factor))
        return base

    def atom(self):
        kind, text, pos = self.token
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                self.fail(f"number {text!r} is too large for a float")
            self.advance()
            return Const(value)
        if kind == "ident":
            self.advance()
            if self.token[0] == "(":
                return self.call(text, pos)
            if text not in self.chart.names:
                raise UnknownIdentifierError(text, _byte_offset(self.text, pos))
            return Coord(text)
        if kind == "(":
            self.advance()
            node = self.nested(self.expr)
            self.expect(")")
            return node
        self.fail(f"expected expression, found {text or 'end of input'!r}")

    def call(self, name: str, pos: int):
        arity = 1 if name in UNARY_FUNCTIONS else 2 if name in BINARY_FUNCTIONS else 0
        if not arity:
            raise UnknownIdentifierError(name, _byte_offset(self.text, pos))
        self.expect("(")
        args = [self.nested(self.expr)]
        while self.token[0] == ",":
            self.advance()
            args.append(self.nested(self.expr))
        self.expect(")")
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name} expects {arity} argument(s), got {len(args)}",
                _byte_offset(self.text, pos),
            )
        return ncall(name, args)


def parse_expression(text: str, chart: CoordinateChart) -> ScalarExpr:
    """Parse UTF-8 expression text over ``chart``.

    Raises ExprSyntaxError (with a byte offset) on malformed input, a
    number too large for a float, or input nested deeper than MAX_DEPTH
    levels, and UnknownIdentifierError for identifiers that are neither
    chart coordinates nor known functions.
    """
    try:
        node = _Parser(text, chart).parse()
        too_deep = node.depth - 1 > MAX_DEPTH
    except ExpressionTooDeepError:
        too_deep = True
    if too_deep:
        raise ExprSyntaxError(
            f"expression nested deeper than {MAX_DEPTH} levels",
            _byte_offset(text, len(text)),
        )
    return ScalarExpr(chart, node)
