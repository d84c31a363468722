# The expression parser before its tokenizer became one pattern and its
# binary operators one loop, kept verbatim but for absolute imports as
# the oracle that tests/test_parser.py compares qbhkit.parser with.
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
from dataclasses import dataclass

from qbhkit.chart import CoordinateChart
from qbhkit.errors import ExprSyntaxError, ExpressionTooDeepError, UnknownIdentifierError
from qbhkit.expr import (
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

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPERATORS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | one of the operator characters | 'end'
    text: str
    pos: int  # character offset


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(_Token("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_Token("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(
            f"unexpected character {ch!r}", _byte_offset(text, pos)
        )
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: CoordinateChart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            self.fail(f"expected {kind!r}, found {token.text or 'end of input'!r}")
        return self.advance()

    def fail(self, message: str):
        raise ExprSyntaxError(message, _byte_offset(self.text, self.peek().pos))

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
        if self.peek().kind != "end":
            self.fail(f"unexpected trailing input {self.peek().text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = nsum([node, rhs if op == "+" else nneg(rhs)])
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            node = nprod([node, rhs]) if op == "*" else nquot(node, rhs)
        return node

    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return nneg(self.nested(self.factor))
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.advance()
            return npow(base, self.nested(self.factor))
        return base

    def atom(self):
        token = self.peek()
        if token.kind == "num":
            value = float(token.text)
            if not math.isfinite(value):
                self.fail(f"number {token.text!r} is too large for a float")
            self.advance()
            return Const(value)
        if token.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                return self.call(token)
            if token.text not in self.chart.names:
                raise UnknownIdentifierError(
                    token.text, _byte_offset(self.text, token.pos)
                )
            return Coord(token.text)
        if token.kind == "(":
            self.advance()
            node = self.nested(self.expr)
            self.expect(")")
            return node
        self.fail(f"expected expression, found {token.text or 'end of input'!r}")

    def call(self, name: _Token):
        if name.text in UNARY_FUNCTIONS:
            arity = 1
        elif name.text in BINARY_FUNCTIONS:
            arity = 2
        else:
            raise UnknownIdentifierError(
                name.text, _byte_offset(self.text, name.pos)
            )
        self.expect("(")
        args = [self.nested(self.expr)]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.nested(self.expr))
        self.expect(")")
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name.text} expects {arity} argument(s), got {len(args)}",
                _byte_offset(self.text, name.pos),
            )
        return ncall(name.text, args)


def parse_expression(text: str, chart: CoordinateChart) -> ScalarExpr:
    """Parse UTF-8 expression text over ``chart``.

    Raises ExprSyntaxError (with a byte offset) on malformed input, a
    number too large for a float, or input nested deeper than MAX_DEPTH
    levels, and
    UnknownIdentifierError for identifiers that are neither chart
    coordinates nor known functions.
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
