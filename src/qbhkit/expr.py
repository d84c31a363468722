"""Symbolic scalar expressions over a coordinate chart.

Expression trees are immutable; nodes hash by identity so derivative
construction, simplification and evaluation can memoise over shared
subterms (derivatives reuse their operands, so trees are really DAGs).
Simplification is best effort: constant folding, 0/1 identities,
flattening, and cancellation of structurally identical terms in sums.
Deciding that an expression vanishes is the job of sampled numeric
verification, not of this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chart import CoordinateChart, Point, PointCloud, require_same_chart
from .errors import EvaluationDomainError, UnknownCoordinateError

UNARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "atan")
BINARY_FUNCTIONS = ("atan2",)
FUNCTIONS = UNARY_FUNCTIONS + BINARY_FUNCTIONS


class Node:
    """Base class for expression tree nodes."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Const(Node):
    value: float


@dataclass(frozen=True, eq=False)
class Coord(Node):
    name: str


@dataclass(frozen=True, eq=False)
class Neg(Node):
    arg: Node


@dataclass(frozen=True, eq=False)
class Sum(Node):
    terms: tuple


@dataclass(frozen=True, eq=False)
class Product(Node):
    factors: tuple


@dataclass(frozen=True, eq=False)
class Quotient(Node):
    numerator: Node
    denominator: Node


@dataclass(frozen=True, eq=False)
class Power(Node):
    base: Node
    exponent: Node


@dataclass(frozen=True, eq=False)
class Call(Node):
    func: str
    args: tuple


ZERO = Const(0.0)
ONE = Const(1.0)


def _is_const(node, value=None):
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


# ---------------------------------------------------------------------------
# smart constructors: flatten, fold constants, apply 0/1 identities


def nneg(node: Node) -> Node:
    if isinstance(node, Const):
        return Const(-node.value)
    if isinstance(node, Neg):
        return node.arg
    return Neg(node)


def nsum(terms) -> Node:
    flat = []
    const = 0.0
    for term in terms:
        subterms = term.terms if isinstance(term, Sum) else (term,)
        for sub in subterms:
            if isinstance(sub, Const):
                const += sub.value
            else:
                flat.append(sub)
    if const != 0.0:
        flat.append(Const(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def nprod(factors) -> Node:
    flat = []
    const = 1.0
    queue = list(factors)
    i = 0
    while i < len(queue):
        factor = queue[i]
        i += 1
        if isinstance(factor, Product):
            queue[i:i] = list(factor.factors)
        elif isinstance(factor, Neg):
            const = -const
            queue.insert(i, factor.arg)
        elif isinstance(factor, Const):
            const *= factor.value
        else:
            flat.append(factor)
    if const == 0.0:
        return ZERO
    if not flat:
        return Const(const)
    core = flat[0] if len(flat) == 1 else Product(tuple(flat))
    if const == 1.0:
        return core
    if const == -1.0:
        return nneg(core)
    return Product((Const(const),) + tuple(flat))


def nquot(numerator: Node, denominator: Node) -> Node:
    if isinstance(denominator, Const) and denominator.value != 0.0:
        if denominator.value == 1.0:
            return numerator
        if denominator.value == -1.0:
            return nneg(numerator)
        if isinstance(numerator, Const):
            return Const(numerator.value / denominator.value)
    if _is_const(numerator, 0.0):
        return ZERO
    return Quotient(numerator, denominator)


def npow(base: Node, exponent: Node) -> Node:
    if isinstance(exponent, Const):
        if exponent.value == 0.0:
            return ONE
        if exponent.value == 1.0:
            return base
        if isinstance(base, Const):
            try:
                return Const(_checked(math.pow(base.value, exponent.value)))
            except (ValueError, OverflowError, _DomainViolation):
                pass
    return Power(base, exponent)


def ncall(func: str, args) -> Node:
    args = tuple(args)
    if all(isinstance(a, Const) for a in args):
        try:
            return Const(_apply_function(func, [a.value for a in args]))
        except _DomainViolation:
            pass
    return Call(func, args)


class _DomainViolation(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def _checked(value: float) -> float:
    if not math.isfinite(value):
        raise _DomainViolation("non-finite value")
    return value


def _apply_function(func, args):
    if func == "sin":
        return _checked(math.sin(args[0]))
    if func == "cos":
        return _checked(math.cos(args[0]))
    if func == "tan":
        return _checked(math.tan(args[0]))
    if func == "exp":
        try:
            return _checked(math.exp(args[0]))
        except OverflowError:
            raise _DomainViolation("exp overflow") from None
    if func == "ln":
        if args[0] <= 0.0:
            raise _DomainViolation("ln of non-positive value")
        return _checked(math.log(args[0]))
    if func == "sqrt":
        if args[0] < 0.0:
            raise _DomainViolation("sqrt of negative value")
        return _checked(math.sqrt(args[0]))
    if func == "atan":
        return _checked(math.atan(args[0]))
    if func == "atan2":
        if args[0] == 0.0 and args[1] == 0.0:
            raise _DomainViolation("atan2(0, 0)")
        return _checked(math.atan2(args[0], args[1]))
    raise ValueError(f"unknown function {func!r}")


# ---------------------------------------------------------------------------
# differentiation


def ndiff(node: Node, coord: str, memo: dict) -> Node:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = _ndiff(node, coord, memo)
    memo[key] = result
    return result


def _ndiff(node, coord, memo):
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Coord):
        return ONE if node.name == coord else ZERO
    if isinstance(node, Neg):
        return nneg(ndiff(node.arg, coord, memo))
    if isinstance(node, Sum):
        return nsum(ndiff(t, coord, memo) for t in node.terms)
    if isinstance(node, Product):
        terms = []
        factors = node.factors
        for i, factor in enumerate(factors):
            d = ndiff(factor, coord, memo)
            if _is_const(d, 0.0):
                continue
            terms.append(nprod(factors[:i] + (d,) + factors[i + 1 :]))
        return nsum(terms)
    if isinstance(node, Quotient):
        du = ndiff(node.numerator, coord, memo)
        dv = ndiff(node.denominator, coord, memo)
        if _is_const(dv, 0.0):
            return nquot(du, node.denominator)
        num = nsum(
            [
                nprod([du, node.denominator]),
                nneg(nprod([node.numerator, dv])),
            ]
        )
        return nquot(num, npow(node.denominator, Const(2.0)))
    if isinstance(node, Power):
        base, exponent = node.base, node.exponent
        db = ndiff(base, coord, memo)
        if isinstance(exponent, Const):
            return nprod(
                [exponent, npow(base, Const(exponent.value - 1.0)), db]
            )
        de = ndiff(exponent, coord, memo)
        if _is_const(de, 0.0):
            # exponent contains no differentiated coordinate: power rule
            return nprod(
                [exponent, npow(base, nsum([exponent, Const(-1.0)])), db]
            )
        pieces = []
        if not _is_const(de, 0.0):
            pieces.append(nprod([de, ncall("ln", (base,))]))
        if not _is_const(db, 0.0):
            pieces.append(nquot(nprod([exponent, db]), base))
        return nprod([node, nsum(pieces)])
    if isinstance(node, Call):
        if node.func == "atan2":
            y, x = node.args
            dy = ndiff(y, coord, memo)
            dx = ndiff(x, coord, memo)
            num = nsum([nprod([x, dy]), nneg(nprod([y, dx]))])
            den = nsum([npow(x, Const(2.0)), npow(y, Const(2.0))])
            return nquot(num, den)
        (arg,) = node.args
        du = ndiff(arg, coord, memo)
        if _is_const(du, 0.0):
            return ZERO
        func = node.func
        if func == "sin":
            outer = ncall("cos", (arg,))
            return nprod([outer, du])
        if func == "cos":
            return nneg(nprod([ncall("sin", (arg,)), du]))
        if func == "tan":
            return nquot(du, npow(ncall("cos", (arg,)), Const(2.0)))
        if func == "exp":
            return nprod([node, du])
        if func == "ln":
            return nquot(du, arg)
        if func == "sqrt":
            return nquot(du, nprod([Const(2.0), node]))
        if func == "atan":
            return nquot(du, nsum([ONE, npow(arg, Const(2.0))]))
    raise TypeError(f"cannot differentiate node {node!r}")


# ---------------------------------------------------------------------------
# structural fingerprints and simplification


def _fingerprint(node: Node, memo: dict) -> str:
    # The memo stores (node, fp) pairs: keeping a strong reference to
    # every fingerprinted node pins its id for the memo's lifetime.
    # Fingerprints are computed for nodes created on the fly (e.g. the
    # cores split off sum terms); without the reference, a collected
    # temporary could hand its id to a structurally different node.
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(node, Const):
        fp = f"C{node.value!r}"
    elif isinstance(node, Coord):
        fp = f"V{node.name}"
    elif isinstance(node, Neg):
        fp = f"N({_fingerprint(node.arg, memo)})"
    elif isinstance(node, Sum):
        parts = sorted(_fingerprint(t, memo) for t in node.terms)
        fp = "S(" + "+".join(parts) + ")"
    elif isinstance(node, Product):
        parts = sorted(_fingerprint(f, memo) for f in node.factors)
        fp = "P(" + "*".join(parts) + ")"
    elif isinstance(node, Quotient):
        fp = (
            "Q("
            + _fingerprint(node.numerator, memo)
            + "/"
            + _fingerprint(node.denominator, memo)
            + ")"
        )
    elif isinstance(node, Power):
        fp = (
            "W("
            + _fingerprint(node.base, memo)
            + "^"
            + _fingerprint(node.exponent, memo)
            + ")"
        )
    else:
        fp = (
            node.func
            + "("
            + ",".join(_fingerprint(a, memo) for a in node.args)
            + ")"
        )
    memo[key] = (node, fp)
    return fp


def _split_coefficient(node):
    """Decompose a (simplified) term into (real coefficient, core node)."""
    coeff = 1.0
    while isinstance(node, Neg):
        coeff = -coeff
        node = node.arg
    if isinstance(node, Product) and isinstance(node.factors[0], Const):
        coeff *= node.factors[0].value
        rest = node.factors[1:]
        node = rest[0] if len(rest) == 1 else Product(rest)
    return coeff, node


def nsimplify(node: Node, memo: dict, fp_memo: dict) -> Node:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    result = _nsimplify(node, memo, fp_memo)
    memo[key] = result
    return result


def _nsimplify(node, memo, fp_memo):
    if isinstance(node, (Const, Coord)):
        return node
    if isinstance(node, Neg):
        return nneg(nsimplify(node.arg, memo, fp_memo))
    if isinstance(node, Sum):
        flat = nsum(nsimplify(t, memo, fp_memo) for t in node.terms)
        if not isinstance(flat, Sum):
            return flat
        const = 0.0
        order = []
        groups = {}
        for term in flat.terms:
            if isinstance(term, Const):
                const += term.value
                continue
            coeff, core = _split_coefficient(term)
            fp = _fingerprint(core, fp_memo)
            if fp in groups:
                groups[fp][0] += coeff
            else:
                groups[fp] = [coeff, core]
                order.append(fp)
        rebuilt = []
        for fp in order:
            coeff, core = groups[fp]
            if coeff == 0.0:
                continue
            if coeff == 1.0:
                rebuilt.append(core)
            elif coeff == -1.0:
                rebuilt.append(nneg(core))
            else:
                rebuilt.append(nprod([Const(coeff), core]))
        if const != 0.0:
            rebuilt.append(Const(const))
        return nsum(rebuilt)
    if isinstance(node, Product):
        return nprod(nsimplify(f, memo, fp_memo) for f in node.factors)
    if isinstance(node, Quotient):
        return nquot(
            nsimplify(node.numerator, memo, fp_memo),
            nsimplify(node.denominator, memo, fp_memo),
        )
    if isinstance(node, Power):
        return npow(
            nsimplify(node.base, memo, fp_memo),
            nsimplify(node.exponent, memo, fp_memo),
        )
    if isinstance(node, Call):
        return ncall(node.func, (nsimplify(a, memo, fp_memo) for a in node.args))
    raise TypeError(f"cannot simplify node {node!r}")


# ---------------------------------------------------------------------------
# evaluation


def _eval_scalar(node: Node, env: dict, memo: dict) -> float:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Const):
        value = node.value
    elif isinstance(node, Coord):
        value = env[node.name]
    elif isinstance(node, Neg):
        value = -_eval_scalar(node.arg, env, memo)
    elif isinstance(node, Sum):
        value = 0.0
        for term in node.terms:
            value += _eval_scalar(term, env, memo)
    elif isinstance(node, Product):
        value = 1.0
        for factor in node.factors:
            value *= _eval_scalar(factor, env, memo)
    elif isinstance(node, Quotient):
        den = _eval_scalar(node.denominator, env, memo)
        if den == 0.0:
            raise EvaluationDomainError(node, "division by zero")
        value = _eval_scalar(node.numerator, env, memo) / den
    elif isinstance(node, Power):
        base = _eval_scalar(node.base, env, memo)
        exponent = _eval_scalar(node.exponent, env, memo)
        try:
            value = math.pow(base, exponent)
        except (ValueError, OverflowError) as exc:
            raise EvaluationDomainError(node, f"power undefined: {exc}") from None
    else:
        args = [_eval_scalar(a, env, memo) for a in node.args]
        try:
            value = _apply_function(node.func, args)
        except _DomainViolation as exc:
            raise EvaluationDomainError(node, exc.reason) from None
    if not math.isfinite(value):
        raise EvaluationDomainError(node, "non-finite value")
    memo[key] = value
    return value


def _eval_array(node: Node, env: dict, memo: dict):
    """Array twin of ``_eval_scalar``: NaN marks undefined entries.

    Constants stay numpy scalars and broadcast, so a result can be a
    scalar; ``ScalarExpr.sample`` expands it. Sums and products start
    from a fresh array and accumulate in place in term order.
    """
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Const):
        value = _undefined_to_nan(np.float64(node.value))
    elif isinstance(node, Coord):
        value = env[node.name]
    elif isinstance(node, Neg):
        value = _undefined_to_nan(-_eval_array(node.arg, env, memo))
    elif isinstance(node, Sum):
        terms = [_eval_array(t, env, memo) for t in node.terms]
        value = terms[0] + terms[1]
        for term in terms[2:]:
            value += term
        value = _undefined_to_nan(value)
    elif isinstance(node, Product):
        factors = [_eval_array(f, env, memo) for f in node.factors]
        value = factors[0] * factors[1]
        for factor in factors[2:]:
            value *= factor
        value = _undefined_to_nan(value)
    elif isinstance(node, Quotient):
        num = _eval_array(node.numerator, env, memo)
        den = _eval_array(node.denominator, env, memo)
        value = _undefined_to_nan(num / den)
    elif isinstance(node, Power):
        base = _eval_array(node.base, env, memo)
        exponent = _eval_array(node.exponent, env, memo)
        value = np.power(base, exponent)
        bad = ~np.isfinite(base) | ~np.isfinite(exponent) | ~np.isfinite(value)
        value = np.where(bad, np.nan, value)
    else:
        args = [_eval_array(a, env, memo) for a in node.args]
        value = _apply_function_array(node.func, args)
    memo[key] = value
    return value


def _undefined_to_nan(value):
    """NaN wherever ``value`` is not finite. ``_eval_scalar`` raises at
    every non-finite node, so an infinity that a later node would map
    back to a finite value (1/inf, atan(inf)) must not read as defined."""
    finite = np.isfinite(value)
    return value if finite.all() else np.where(finite, value, np.nan)


def _apply_function_array(func, args):
    if func == "sin":
        value = np.sin(args[0])
    elif func == "cos":
        value = np.cos(args[0])
    elif func == "tan":
        value = np.tan(args[0])
    elif func == "exp":
        value = np.exp(args[0])
    elif func == "ln":
        with np.errstate(all="ignore"):
            value = np.log(args[0])
    elif func == "sqrt":
        with np.errstate(all="ignore"):
            value = np.sqrt(args[0])
    elif func == "atan":
        value = np.arctan(args[0])
    elif func == "atan2":
        value = np.arctan2(args[0], args[1])
        value = np.where((args[0] == 0.0) & (args[1] == 0.0), np.nan, value)
    else:
        raise ValueError(f"unknown function {func!r}")
    return _undefined_to_nan(value)


# ---------------------------------------------------------------------------
# printing


def _precedence(node):
    if isinstance(node, Const):
        return 1 if node.value < 0 else 9
    if isinstance(node, (Sum, Neg)):
        return 1
    if isinstance(node, (Product, Quotient)):
        return 2
    if isinstance(node, Power):
        return 3
    return 9


def node_to_text(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Coord):
        return node.name
    if isinstance(node, Neg):
        inner = node_to_text(node.arg)
        if _precedence(node.arg) <= 1:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, Sum):
        parts = [node_to_text(node.terms[0])]
        for term in node.terms[1:]:
            if isinstance(term, Neg):
                inner = node_to_text(term.arg)
                if _precedence(term.arg) <= 1:
                    inner = f"({inner})"
                parts.append(" - " + inner)
            elif isinstance(term, Const) and term.value < 0:
                parts.append(" - " + repr(-term.value))
            else:
                parts.append(" + " + node_to_text(term))
        return "".join(parts)
    if isinstance(node, Product):
        parts = []
        for factor in node.factors:
            text = node_to_text(factor)
            if _precedence(factor) < 2:
                text = f"({text})"
            parts.append(text)
        return " * ".join(parts)
    if isinstance(node, Quotient):
        left = node_to_text(node.numerator)
        if _precedence(node.numerator) < 2:
            left = f"({left})"
        right = node_to_text(node.denominator)
        if _precedence(node.denominator) <= 2:
            right = f"({right})"
        return f"{left} / {right}"
    if isinstance(node, Power):
        base = node_to_text(node.base)
        if _precedence(node.base) <= 3:
            base = f"({base})"
        exponent = node_to_text(node.exponent)
        if _precedence(node.exponent) < 3 and not isinstance(node.exponent, Neg):
            exponent = f"({exponent})"
        return f"{base}^{exponent}"
    if isinstance(node, Call):
        return node.func + "(" + ", ".join(node_to_text(a) for a in node.args) + ")"
    raise TypeError(f"cannot print node {node!r}")


# ---------------------------------------------------------------------------
# the public wrapper


@dataclass(frozen=True, eq=False)
class ScalarExpr:
    """An immutable scalar expression bound to a chart."""

    chart: CoordinateChart
    node: Node

    # -- calculus ---------------------------------------------------------
    def diff(self, coord: str) -> "ScalarExpr":
        if coord not in self.chart.names:
            raise UnknownCoordinateError(
                f"coordinate {coord!r} not on chart {self.chart}"
            )
        return ScalarExpr(self.chart, ndiff(self.node, coord, {}))

    def simplified(self) -> "ScalarExpr":
        return ScalarExpr(self.chart, nsimplify(self.node, {}, {}))

    def at(self, point: Point) -> float:
        require_same_chart(self, point)
        env = dict(zip(self.chart.names, point.values))
        return _eval_scalar(self.node, env, {})

    def sample(self, points) -> np.ndarray:
        """Evaluate at many points at once (a PointCloud or Point
        objects); NaN marks undefined points, exactly where ``at``
        raises EvaluationDomainError."""
        cloud = PointCloud.of(self.chart, points)
        env = {name: cloud.values[:, i] for i, name in enumerate(self.chart.names)}
        with np.errstate(all="ignore"):
            value = _eval_array(self.node, env, {})
        if np.ndim(value) == 0:
            return np.full(len(cloud), value)
        # a bare coordinate evaluates to a read-only view of the cloud
        return value if value.flags.writeable else value.copy()

    # -- inspection -------------------------------------------------------
    def depends_on(self) -> frozenset[str]:
        names = set()
        stack = [self.node]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, Coord):
                names.add(node.name)
            elif isinstance(node, Neg):
                stack.append(node.arg)
            elif isinstance(node, Sum):
                stack.extend(node.terms)
            elif isinstance(node, Product):
                stack.extend(node.factors)
            elif isinstance(node, Quotient):
                stack.extend((node.numerator, node.denominator))
            elif isinstance(node, Power):
                stack.extend((node.base, node.exponent))
            elif isinstance(node, Call):
                stack.extend(node.args)
        return frozenset(names)

    def is_zero(self) -> bool:
        """Syntactic test: is this literally the constant 0?"""
        return _is_const(self.node, 0.0)

    def fingerprint(self) -> str:
        return _fingerprint(self.node, {})

    def __str__(self):
        return node_to_text(self.node)

    def __repr__(self):
        return f"ScalarExpr({self})"

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other) -> Node:
        if isinstance(other, ScalarExpr):
            require_same_chart(self, other)
            return other.node
        if isinstance(other, (int, float)):
            return Const(float(other))
        return NotImplemented

    def __add__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, nsum([self.node, node]))

    __radd__ = __add__

    def __sub__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, nsum([self.node, nneg(node)]))

    def __rsub__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, nsum([node, nneg(self.node)]))

    def __mul__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, nprod([self.node, node]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, nquot(self.node, node))

    def __rtruediv__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, nquot(node, self.node))

    def __pow__(self, other):
        node = self._coerce(other)
        if node is NotImplemented:
            return NotImplemented
        return ScalarExpr(self.chart, npow(self.node, node))

    def __neg__(self):
        return ScalarExpr(self.chart, nneg(self.node))


# ---------------------------------------------------------------------------
# construction helpers and the spec-level operations


def constant(chart: CoordinateChart, value: float) -> ScalarExpr:
    return ScalarExpr(chart, Const(float(value)))


def coordinate(chart: CoordinateChart, name: str) -> ScalarExpr:
    chart.index(name)
    return ScalarExpr(chart, Coord(name))


def _function(func):
    def apply(*args: ScalarExpr) -> ScalarExpr:
        chart = require_same_chart(*args)
        return ScalarExpr(chart, ncall(func, (a.node for a in args)))

    apply.__name__ = func
    return apply


sin = _function("sin")
cos = _function("cos")
tan = _function("tan")
exp = _function("exp")
ln = _function("ln")
sqrt = _function("sqrt")
atan = _function("atan")
atan2 = _function("atan2")


def differentiate(e: ScalarExpr, coord: str) -> ScalarExpr:
    """Symbolic partial derivative of ``e`` with respect to ``coord``."""
    return e.diff(coord)


def evaluate(e: ScalarExpr, p: Point) -> float:
    """Evaluate ``e`` at ``p``; raises EvaluationDomainError off-domain."""
    return e.at(p)


def evaluate_at_points(e: ScalarExpr, points) -> np.ndarray:
    return e.sample(points)


def simplify(e: ScalarExpr) -> ScalarExpr:
    return e.simplified()


def structurally_equal(a: ScalarExpr, b: ScalarExpr) -> bool:
    """Equality up to commutativity of sums and products (no semantics)."""
    return a.chart == b.chart and a.fingerprint() == b.fingerprint()
