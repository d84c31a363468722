"""Symbolic scalar expressions over a coordinate chart.

Expression trees are immutable, and built of interned nodes: while a
node is alive, building a node of the same structure returns it, so
structurally equal subterms are one object and trees are really DAGs.
Nodes hash by identity, so derivative construction, simplification and
evaluation memoise over them, and each distinct subterm is built,
differentiated, simplified and evaluated once. Every composite node
keeps its operands in one tuple, ``args``, so a walk that does not
depend on the kind of node (operands, coordinates, fingerprints,
evaluation of operands) is written once. Simplified forms, derivatives,
fingerprints and the coordinates a node depends on are cached on the
nodes themselves and reused by every later call; values are cached on
the point cloud they were evaluated over. Simplification is best
effort: constant folding, 0/1 identities, flattening, and cancellation
of structurally identical terms in sums. Deciding that an expression
vanishes is the job of sampled numeric verification, not of this
module.
"""
from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chart import (
    MAX_CACHED_VALUES,
    CoordinateChart,
    Point,
    PointCloud,
    require_same_chart,
)
from .errors import (
    EvaluationDomainError,
    ExpressionTooDeepError,
    UnknownCoordinateError,
)

UNARY_FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "atan")
BINARY_FUNCTIONS = ("atan2",)
FUNCTIONS = UNARY_FUNCTIONS + BINARY_FUNCTIONS


class Node:
    """Base class for expression tree nodes.

    ``args`` holds a node's operands in order: the one operand of a
    ``Neg``, the terms of a ``Sum``, the factors of a ``Product``,
    numerator and denominator of a ``Quotient``, base and exponent of
    a ``Power``, the arguments of a ``Call``, which also names its
    function in ``func``. The leaves ``Const`` and ``Coord`` have none.

    Composites and coordinates are interned: while a node is alive,
    building one of the same structure returns that node (see
    ``_NODES``), so structurally equal subterms are one object, and
    what is computed for one is computed for all. Constants are not
    interned; as operands they count by value.

    ``depth`` counts the nodes on the longest path from this node down
    to a leaf. It is fixed at construction, which raises
    ExpressionTooDeepError above ``MAX_NODE_DEPTH``. Each node also
    keeps, in its instance dict, what ``nsimplify``, ``ndiff``,
    ``_fingerprint`` and ``_coordinates`` computed for it, so a later
    call on any tree that contains the node reuses the work. All four
    are functions of the node's structure alone, so a cached result is
    the one a fresh call would build. The derivatives of exp(u),
    sqrt(u) and b^e contain the node itself, and those of sin(u) and
    cos(u) lead back to it, so derivatives are held by weak reference.
    No node then refers to itself through its caches, and a tree is
    freed as soon as its last reference goes, without the cyclic
    garbage collector.
    """

    __slots__ = ()
    args = ()
    depth = 1


# Every walk of a tree (simplification, differentiation, evaluation,
# printing) recurses once per level. Simplification and differentiation
# take up to three interpreter frames per level, the most of any walk,
# so at this depth two fifths of Python's default limit of 1000 frames
# are left to the caller. Parsed input is at most 101 deep, and the
# deepest tree the shipped fixtures or the test suite build from it is
# 103; the quotient rule deepens a derivative by four levels per nested
# quotient, so only such input nested more than about 50 levels reaches
# this bound.
MAX_NODE_DEPTH = 200


def _depth_over(operands) -> int:
    """The depth of a node with these operands: one more than the
    deepest of them. Raises ExpressionTooDeepError above the bound."""
    deepest = 0
    for operand in operands:
        if operand.depth > deepest:
            deepest = operand.depth
    if deepest >= MAX_NODE_DEPTH:
        raise ExpressionTooDeepError(deepest + 1, MAX_NODE_DEPTH)
    return deepest + 1


# The live interned nodes, {key: weak reference}. A composite's key is
# its class, its function for a Call, and its operands in order: a
# composite or coordinate operand as itself (they hash by identity), a
# constant by value (see ``_composite_key``). A coordinate's key is its
# class and name. An entry goes when its node dies, so the table keeps
# no node alive, and a tree built after another has been freed shares
# none of its work.
_NODES = {}


def _live(key):
    """The live node of ``key``, or None."""
    ref = _NODES.get(key)
    return None if ref is None else ref()


def _enter(key, node):
    """``node``, entered under ``key`` until it dies: its weak reference
    then calls ``_NODES.pop(key, reference)``."""
    _NODES[key] = weakref.ref(node, partial(_NODES.pop, key))
    return node


def _composite_key(head, args):
    """The key of a composite: ``head``, then the operands ``args``, each
    constant as the type of its value, so that Const(2) and Const(2.0),
    which print apart, stay apart; its value; and the sign of a zero, so
    that -0.0 and 0.0 do too."""
    for arg in args:
        if arg.__class__ is Const:
            break
    else:
        return head + args
    parts = list(head)
    for arg in args:
        if arg.__class__ is Const:
            value = arg.value
            arg = (value.__class__, value, value == 0 and math.copysign(1.0, value))
        parts.append(arg)
    return tuple(parts)


# The constructors write the instance dict directly. That builds a node
# about 1.5 times as fast as the __init__ a frozen dataclass generates
# followed by a __post_init__ that adds the depth. An interned node is
# built in ``__new__`` alone, so one found in the table is returned as
# it is. A copy of a node, or an unpickled one, is built from its
# structure (``__reduce__``), without its caches, so a copy of a
# composite or coordinate is the live node itself.


@dataclass(frozen=True, eq=False, init=False)
class Const(Node):
    value: float

    def __init__(self, value):
        self.__dict__["value"] = value

    def __reduce__(self):
        return (Const, (self.value,))


@dataclass(frozen=True, eq=False, init=False)
class Coord(Node):
    name: str

    def __new__(cls, name):
        key = (cls, name)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            node.__dict__["name"] = name
            _enter(key, node)
        return node

    def __reduce__(self):
        return (Coord, (self.name,))


@dataclass(frozen=True, eq=False, init=False)
class _Composite(Node):
    """A node over the operands ``args``, a tuple."""

    args: tuple

    def __new__(cls, args):
        key = _composite_key((cls,), args)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            state = node.__dict__
            state["depth"] = _depth_over(args)
            state["args"] = args
            _enter(key, node)
        return node

    def __reduce__(self):
        return (type(self), (self.args,))


class Neg(_Composite):
    pass


class Sum(_Composite):
    pass


class Product(_Composite):
    pass


class Quotient(_Composite):
    pass


class Power(_Composite):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Call(Node):
    func: str
    args: tuple

    def __new__(cls, func, args):
        key = _composite_key((cls, func), args)
        node = _live(key)
        if node is None:
            node = object.__new__(cls)
            state = node.__dict__
            state["depth"] = _depth_over(args)
            state["func"] = func
            state["args"] = args
            _enter(key, node)
        return node

    def __reduce__(self):
        return (Call, (self.func, self.args))


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
        return node.args[0]
    return Neg((node,))


def nsum(terms) -> Node:
    # ``terms`` is a sequence: a fold that overflows reads it again
    flat = []
    const = 0.0
    for term in terms:
        for sub in term.args if term.__class__ is Sum else (term,):
            if sub.__class__ is Const:
                const += sub.value
            else:
                flat.append(sub)
    if const != 0.0:
        if not math.isfinite(const):
            # the fold overflowed: the constants follow the other terms,
            # folded as the parser folds them (``_refold``)
            values = [
                s.value
                for t in terms
                for s in (t.args if t.__class__ is Sum else (t,))
                if s.__class__ is Const
            ]
            values = [v for v in _refold(values, operator.add) if v != 0.0]
            if len(values) > 1:
                return Sum(tuple(flat) + tuple(map(Const, values)))
            flat += map(Const, values)
        else:
            flat.append(Const(const))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def nprod(factors) -> Node:
    # a finite constant, not 0 or 1 or -1, then coordinates: the tree the
    # general path builds, without its walk (``random_polynomial``'s terms)
    if len(factors) > 1 and factors[0].__class__ is Const:
        const = 1.0 * factors[0].value
        if const != 0.0 and abs(const) != 1.0 and math.isfinite(const):
            for factor in factors[1:]:
                if factor.__class__ is not Coord:
                    break
            else:
                return Product((Const(const), *factors[1:]))
    flat = []
    const = 1.0
    queue = list(factors)
    i = 0
    while i < len(queue):
        factor = queue[i]
        i += 1
        kind = factor.__class__
        if kind is Product:
            queue[i:i] = factor.args
        elif kind is Neg:
            const = -const
            queue.insert(i, factor.args[0])
        elif kind is Const:
            const *= factor.value
        else:
            flat.append(factor)
    if const == 0.0:
        return ZERO
    if not math.isfinite(const):
        return _refolded_product(queue, flat)
    if not flat:
        return Const(const)
    if const != 1.0 and const != -1.0:
        return Product((Const(const),) + tuple(flat))
    core = flat[0] if len(flat) == 1 else Product(tuple(flat))
    return core if const == 1.0 else nneg(core)


def _refolded_product(queue, flat):
    """The product of the factors in ``queue``, as ``nprod`` flattened
    them into the other factors ``flat``, when the fold of their
    constants overflowed: the constants, the sign of the negations
    given to the first, folded as the parser folds them (``_refold``),
    then ``flat``."""
    values = [f.value for f in queue if f.__class__ is Const]
    if sum(f.__class__ is Neg for f in queue) % 2:
        values[0] = -values[0]
    values = _refold(values, operator.mul)
    if len(values) == 1 and math.isfinite(values[0]):
        return nprod([Const(values[0])] + flat)
    # several constants, or one that was not finite when built
    factors = tuple(map(Const, values)) + tuple(flat)
    return factors[0] if len(factors) == 1 else Product(factors)


def _refold(values, combine):
    """The finite constants ``values`` of a fold that overflowed, folded
    left to right by ``combine``, a new constant started wherever the
    running one would overflow, and folded again until no two
    neighbours combine to a finite value. The parser folds the printed
    constants of a sum or product left to right, one operator at a
    time, so it folds none of these, and print then parse returns the
    same node."""
    while True:
        folded = [values[0]]
        for value in values[1:]:
            both = combine(folded[-1], value)
            if math.isfinite(both):
                folded[-1] = both
            else:
                folded.append(value)
        if len(folded) == len(values):
            return folded
        values = folded


def nquot(numerator: Node, denominator: Node) -> Node:
    if isinstance(denominator, Const) and denominator.value != 0.0:
        if denominator.value == 1.0:
            return numerator
        if denominator.value == -1.0:
            return nneg(numerator)
        if isinstance(numerator, Const):
            value = _finite_or_none(operator.truediv, numerator.value, denominator.value)
            if value is not None:
                return Const(value)
    if _is_const(numerator, 0.0):
        return ZERO
    return Quotient((numerator, denominator))


def npow(base: Node, exponent: Node) -> Node:
    if isinstance(exponent, Const):
        if exponent.value == 0.0:
            return ONE
        if exponent.value == 1.0:
            return base
        if isinstance(base, Const):
            value = _finite_or_none(math.pow, base.value, exponent.value)
            if value is not None:
                return Const(value)
    return Power((base, exponent))


def ncall(func: str, args) -> Node:
    args = tuple(args)
    if all(isinstance(a, Const) for a in args):
        value = _finite_or_none(_MATH_FUNCTIONS[func], *(a.value for a in args))
        if value is not None:
            return Const(value)
    return Call(func, args)


def _math_atan2(y, x):
    """``math.atan2``, undefined at (0, 0) as in evaluation."""
    if y == 0.0 and x == 0.0:
        raise ValueError("atan2(0, 0)")
    return math.atan2(y, x)


# Constant folding uses ``math``, not numpy: the two differ in the last
# bit for some arguments, and folded constants are printed in notes and
# hashed into problem digests.
_MATH_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
    "atan2": _math_atan2,
}


def _finite_or_none(func, *args):
    """``func(*args)`` where it is defined and finite, else None."""
    try:
        value = func(*args)
    except (ValueError, OverflowError):
        return None
    return value if math.isfinite(value) else None


def operands(node: Node) -> tuple:
    """The direct subexpressions of ``node``, in order."""
    return node.args


# ---------------------------------------------------------------------------
# differentiation


def ndiff(node: Node, coord: str) -> Node:
    derivatives = node.__dict__.get("derivatives")
    if derivatives is None:
        derivatives = node.__dict__["derivatives"] = {}
    ref = derivatives.get(coord)
    result = None if ref is None else ref()
    if result is None:
        result = _ndiff(node, coord)
        # weakly: a derivative may contain or lead back to the node
        derivatives[coord] = weakref.ref(result)
    return result


def _ndiff(node, coord):
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Coord):
        return ONE if node.name == coord else ZERO
    if isinstance(node, Neg):
        return nneg(ndiff(node.args[0], coord))
    if isinstance(node, Sum):
        return nsum([ndiff(t, coord) for t in node.args])
    if isinstance(node, Product):
        terms = []
        factors = node.args
        for i, factor in enumerate(factors):
            d = ndiff(factor, coord)
            if _is_const(d, 0.0):
                continue
            terms.append(nprod(factors[:i] + (d,) + factors[i + 1 :]))
        return nsum(terms)
    if isinstance(node, Quotient):
        numerator, denominator = node.args
        du = ndiff(numerator, coord)
        dv = ndiff(denominator, coord)
        if _is_const(dv, 0.0):
            return nquot(du, denominator)
        num = nsum([nprod([du, denominator]), nneg(nprod([numerator, dv]))])
        return nquot(num, npow(denominator, Const(2.0)))
    if isinstance(node, Power):
        base, exponent = node.args
        db = ndiff(base, coord)
        if isinstance(exponent, Const):
            return nprod(
                [exponent, npow(base, Const(exponent.value - 1.0)), db]
            )
        de = ndiff(exponent, coord)
        if _is_const(de, 0.0):
            # exponent contains no differentiated coordinate: power rule
            return nprod(
                [exponent, npow(base, nsum([exponent, Const(-1.0)])), db]
            )
        pieces = [nprod([de, ncall("ln", (base,))])]
        if not _is_const(db, 0.0):
            pieces.append(nquot(nprod([exponent, db]), base))
        return nprod([node, nsum(pieces)])
    if isinstance(node, Call):
        if node.func == "atan2":
            y, x = node.args
            dy = ndiff(y, coord)
            dx = ndiff(x, coord)
            num = nsum([nprod([x, dy]), nneg(nprod([y, dx]))])
            den = nsum([npow(x, Const(2.0)), npow(y, Const(2.0))])
            return nquot(num, den)
        (arg,) = node.args
        du = ndiff(arg, coord)
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


def gradient_at(functions, points) -> np.ndarray:
    """The gradients of ``functions`` (ScalarExprs on one chart) over
    ``points`` (a PointCloud or Point objects), as a C-ordered array of
    shape (len(functions), dimension, len(points)) whose entry [r, i] is
    bit for bit ``functions[r].diff(names[i]).sample(points)``.

    Polynomials in the form ``nsum``/``nprod`` build, sums of terms that
    are each an optional leading constant followed by coordinates, are
    differentiated from their terms: no derivative node is built and no
    value joins the cloud's cache. Polynomials with the same non-zero
    terms, as coordinate names in term order, form a group, and each
    product-rule term is formed once per group, for all its rows at
    once: the coefficient column times the first remaining coordinate,
    then times the others from left to right, added in place in term
    order. That is the tree ``ndiff`` builds, evaluated in
    ``_eval_array``'s order (a factor 1.0 leaves every bit as it is).
    The product-rule terms that are constants, those of terms linear in
    the coordinate, are folded per row in term order, as ``nsum`` folds
    them, and added last where the fold is not 0. ``_eval_array``
    turns every non-finite node value into NaN, and products and sums
    never make a non-finite value finite again, so that is done once at
    the end. A row whose fold overflows, where ``nsum`` keeps the
    constants apart, takes the symbolic route for that column; any other
    tree takes it for every column.
    """
    chart = require_same_chart(*functions)
    cloud = PointCloud.of(chart, points)
    out = np.empty((len(functions), chart.dimension, len(cloud)))
    groups = {}
    for r, f in enumerate(functions):
        terms = _monomials(f.node)
        if terms is None:
            for i, name in enumerate(chart.names):
                out[r, i] = f.diff(name).sample(cloud)
            continue
        rows, coeffs = groups.setdefault(tuple(names for _, names in terms), ([], []))
        rows.append(r)
        coeffs.append([coeff for coeff, _ in terms])
    columns = cloud.columns
    with np.errstate(all="ignore"):
        for key, (rows, coeffs) in groups.items():
            coeffs = np.array(coeffs, float).T[:, :, None]  # a (rows, 1) column per term
            total, term = np.empty((2, len(rows), len(cloud)))
            for i, name in enumerate(chart.names):
                const = np.zeros((len(rows), 1))
                first = True
                for t, names in enumerate(key):
                    for j, factor in enumerate(names):
                        if factor != name:
                            continue
                        rest = names[:j] + names[j + 1 :]
                        if not rest:
                            const += coeffs[t]
                            continue
                        value = total if first else term
                        np.multiply(coeffs[t], columns[rest[0]], out=value)
                        for other in rest[1:]:
                            value *= columns[other]
                        if not first:
                            total += value
                        first = False
                if first:
                    total[...] = const
                else:
                    # adding -0.0 leaves every value as it is, -0.0 too
                    total += np.where(const != 0.0, const, -0.0)
                out[rows, i] = _undefined_to_nan(total)
                for r, fold in zip(rows, const[:, 0]):
                    if not math.isfinite(fold):
                        out[r, i] = functions[r].diff(name).sample(cloud)
    return out


def _monomials(node):
    """The terms of ``node`` that have a coordinate and a coefficient
    other than 0, the ones its derivatives depend on, as (coefficient,
    coordinate names) pairs; None unless every term is a ``Const``, a
    ``Coord`` or a ``Product`` of an optional leading ``Const`` and one
    or more ``Coord``."""
    terms = []
    for term in node.args if node.__class__ is Sum else (node,):
        kind = term.__class__
        if kind is Const:
            continue
        factors = term.args if kind is Product else (term,)
        coeff = 1.0
        if factors[0].__class__ is Const:
            coeff = factors[0].value
            factors = factors[1:]
        names = []
        for factor in factors:
            if factor.__class__ is not Coord:
                return None
            names.append(factor.name)
        if not names:
            return None
        if coeff != 0.0:
            terms.append((coeff, tuple(names)))
    return terms


# ---------------------------------------------------------------------------
# structural fingerprints and simplification


# per composite kind but Call: the fingerprint's tag, the separator
# between its operands, and whether they are sorted (as in sums and
# products, which commute)
_FINGERPRINT_FORMS = {
    Neg: ("N", "", False),
    Sum: ("S", "+", True),
    Product: ("P", "*", True),
    Quotient: ("Q", "/", False),
    Power: ("W", "^", False),
}


def _fingerprint(node: Node) -> str:
    fp = node.__dict__.get("fingerprint")
    if fp is not None:
        return fp
    if isinstance(node, Const):
        fp = f"C{node.value!r}"
    elif isinstance(node, Coord):
        fp = f"V{node.name}"
    else:
        if isinstance(node, Call):
            tag, separator, commutes = node.func, ",", False
        else:
            tag, separator, commutes = _FINGERPRINT_FORMS[type(node)]
        parts = [_fingerprint(a) for a in node.args]
        if commutes:
            parts.sort()
        fp = tag + "(" + separator.join(parts) + ")"
    node.__dict__["fingerprint"] = fp
    return fp


def _coordinates(node: Node) -> frozenset:
    """The names of the coordinates that occur in ``node``."""
    names = node.__dict__.get("coordinates")
    if names is None:
        if isinstance(node, Coord):
            names = frozenset((node.name,))
        else:
            parts = [_coordinates(a) for a in node.args]
            names = parts[0].union(*parts[1:]) if parts else frozenset()
        node.__dict__["coordinates"] = names
    return names


def _split_coefficient(node):
    """Decompose a (simplified) term into (real coefficient, core node)."""
    coeff = 1.0
    while isinstance(node, Neg):
        coeff = -coeff
        node = node.args[0]
    if isinstance(node, Product) and isinstance(node.args[0], Const):
        coeff *= node.args[0].value
        rest = node.args[1:]
        node = rest[0] if len(rest) == 1 else Product(rest)
    return coeff, node


# cached as a node's simplified form when it is its own, so that a node
# holds no reference to itself
_SELF = object()


def nsimplify(node: Node) -> Node:
    result = node.__dict__.get("simplified")
    if result is None:
        result = _nsimplify(node)
        node.__dict__["simplified"] = _SELF if result is node else result
    return node if result is _SELF else result


# how each composite kind but Sum is rebuilt from simplified operands
_REBUILDS = {
    Neg: lambda node, args: nneg(*args),
    Product: lambda node, args: nprod(args),
    Quotient: lambda node, args: nquot(*args),
    Power: lambda node, args: npow(*args),
    Call: lambda node, args: ncall(node.func, args),
}


def _nsimplify(node):
    if not node.args:
        return node
    args = [nsimplify(a) for a in node.args]
    if not isinstance(node, Sum):
        return _REBUILDS[type(node)](node, args)
    flat = nsum(args)
    if not isinstance(flat, Sum):
        return flat
    const = 0.0
    order = []
    groups = {}
    for term in flat.args:
        if isinstance(term, Const):
            const += term.value
            continue
        coeff, core = _split_coefficient(term)
        fp = _fingerprint(core)
        if fp in groups:
            groups[fp][0] += coeff
        else:
            groups[fp] = [coeff, core]
            order.append(fp)
    if not math.isfinite(const):
        return _unmerged(flat.args, groups, const)
    rebuilt = []
    for fp in order:
        coeff, core = groups[fp]
        if not math.isfinite(coeff):
            return _unmerged(flat.args, groups, const)
        if coeff != 0.0:
            rebuilt.append(_times(coeff, core))
    if const != 0.0:
        rebuilt.append(Const(const))
    return nsum(rebuilt)


def _unmerged(terms, groups, const):
    """``_nsimplify``'s sum of ``terms`` when the fold of their constants
    (``const``) or a merge of like terms (a coefficient in ``groups``)
    overflows: those terms stay as they are, where they are, and every
    other group of like terms merges at its first term."""
    folded = math.isfinite(const)
    rebuilt = []
    for term in terms:
        if isinstance(term, Const):
            if not folded:
                rebuilt.append(term)
            continue
        fp = _fingerprint(_split_coefficient(term)[1])
        group = groups.get(fp)
        if group is None:
            continue
        coeff, core = group
        if not math.isfinite(coeff):
            rebuilt.append(term)
            continue
        del groups[fp]
        if coeff != 0.0:
            rebuilt.append(_times(coeff, core))
    if folded and const != 0.0:
        rebuilt.append(Const(const))
    return nsum(rebuilt)


def _times(coeff, core):
    """The merged term ``coeff * core``, for ``coeff`` not 0."""
    if coeff == 1.0:
        return core
    if coeff == -1.0:
        return nneg(core)
    return nprod([Const(coeff), core])


# ---------------------------------------------------------------------------
# evaluation


def _eval_array(node: Node, columns: dict, cache: dict, new: dict):
    """Evaluate over a cloud's ``columns`` of coordinate values, which
    are finite; NaN marks undefined entries. Values are looked up in
    ``cache``, then in ``new``, which receives every value computed here.

    Constants stay numpy scalars and broadcast, so a result can be a
    scalar; ``ScalarExpr.sample`` expands it. Sums and products start
    from a fresh array and accumulate in place in term order, so no
    operand's value, which a cache may keep, is ever written to. Every
    array computed here is made read-only before anyone else sees it.
    """
    hit = cache.get(node)
    if hit is None:
        hit = new.get(node)
    if hit is not None:
        return hit
    if isinstance(node, Const):
        value = _undefined_to_nan(np.float64(node.value))
    elif isinstance(node, Coord):
        value = columns[node.name]
    else:
        value = _combine(node, [_eval_array(a, columns, cache, new) for a in node.args])
        if value.__class__ is np.ndarray:
            value.setflags(write=False)
    new[node] = value
    return value


def _combine(node, args):
    """The value of composite ``node`` from the values of its operands."""
    if isinstance(node, Neg):
        return _undefined_to_nan(-args[0])
    if isinstance(node, Sum):
        value = args[0] + args[1]
        for term in args[2:]:
            value += term
        return _undefined_to_nan(value)
    if isinstance(node, Product):
        value = args[0] * args[1]
        for factor in args[2:]:
            value *= factor
        return _undefined_to_nan(value)
    if isinstance(node, Quotient):
        return _undefined_to_nan(args[0] / args[1])
    if isinstance(node, Power):
        base, exponent = args
        value = np.power(base, exponent)
        bad = ~np.isfinite(base) | ~np.isfinite(exponent) | ~np.isfinite(value)
        return np.where(bad, np.nan, value)
    value = _NUMPY_FUNCTIONS[node.func](*args)
    if node.func == "atan2":
        value = np.where((args[0] == 0.0) & (args[1] == 0.0), np.nan, value)
    return _undefined_to_nan(value)


_NUMPY_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "atan": np.arctan,
    "atan2": np.arctan2,
}


def _undefined_to_nan(value):
    """NaN wherever ``value`` is not finite. An infinity is undefined
    even where a later node would map it back to a finite value (1/inf,
    atan(inf)), so it must not propagate as a number."""
    finite = np.isfinite(value)
    return value if finite.all() else np.where(finite, value, np.nan)


def _evaluate(node: Node, cloud: PointCloud):
    """``node`` over ``cloud``: a read-only array of one value per
    point, or a numpy scalar where it is constant.

    Values are read from the cloud's cache, and the values this call
    computes join it while the cloud holds fewer than
    ``MAX_CACHED_VALUES`` values, counted by ``np.size`` (a constant, a
    numpy scalar, is one value) in ``cloud.cached_values``. Past the
    bound they are kept for the call only. The bound is tested once per
    call, so a cloud can pass it by one call's values.
    """
    new = {}
    with np.errstate(all="ignore"):
        value = _eval_array(node, cloud.columns, cloud.cache, new)
    if cloud.cached_values < MAX_CACHED_VALUES:
        cloud.cache.update(new)
        cloud.cached_values += sum(np.size(v) for v in new.values())
    return value


def _domain_error(root: Node, memo: dict) -> EvaluationDomainError:
    """The error for a one-point evaluation of ``root`` that gave NaN. It
    names an innermost undefined node, reached from ``root`` through
    undefined operands, so every operand of that node is defined."""
    node = root
    while True:
        inner = [a for a in node.args if math.isnan(memo[a].item())]
        if not inner:
            break
        node = inner[0]
    reason = "non-finite value"
    if isinstance(node, Call):
        reason = _UNDEFINED_CALLS.get(node.func, reason)
    elif isinstance(node, Quotient) and memo[node.args[1]].item() == 0.0:
        reason = "division by zero"
    elif isinstance(node, Power):
        reason = "power undefined"
    return EvaluationDomainError(node, reason)


# why a call of each function is undefined at finite arguments
_UNDEFINED_CALLS = {
    "ln": "ln of non-positive value",
    "sqrt": "sqrt of negative value",
    "atan2": "atan2(0, 0)",
    "exp": "exp overflow",
}


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


def _operand_text(node, loosest):
    """``node`` printed as an operand, in parentheses when it binds no
    tighter than precedence ``loosest``."""
    text = node_to_text(node)
    return f"({text})" if _precedence(node) <= loosest else text


def node_to_text(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Coord):
        return node.name
    if isinstance(node, Neg):
        return "-" + _operand_text(node.args[0], 1)
    if isinstance(node, Sum):
        parts = [node_to_text(node.args[0])]
        for term in node.args[1:]:
            if isinstance(term, Neg):
                parts.append(" - " + _operand_text(term.args[0], 1))
            elif isinstance(term, Const) and term.value < 0:
                parts.append(" - " + repr(-term.value))
            else:
                parts.append(" + " + node_to_text(term))
        return "".join(parts)
    if isinstance(node, Product):
        return " * ".join(_operand_text(f, 1) for f in node.args)
    if isinstance(node, Quotient):
        numerator, denominator = node.args
        return _operand_text(numerator, 1) + " / " + _operand_text(denominator, 2)
    if isinstance(node, Power):
        base, exponent = node.args
        # a negated exponent needs no parentheses: x^-y
        loosest = 0 if isinstance(exponent, Neg) else 2
        return _operand_text(base, 3) + "^" + _operand_text(exponent, loosest)
    if isinstance(node, Call):
        return node.func + "(" + ", ".join(node_to_text(a) for a in node.args) + ")"
    raise TypeError(f"cannot print node {node!r}")


# ---------------------------------------------------------------------------
# the public wrapper


def _operator(build):
    """A binary operator of ScalarExpr: ``build`` applied to its own node
    and the other operand's, a ScalarExpr on the same chart or a number."""

    def apply(self, other):
        if isinstance(other, ScalarExpr):
            require_same_chart(self, other)
            node = other.node
        elif isinstance(other, (int, float)):
            node = Const(float(other))
        else:
            return NotImplemented
        return ScalarExpr(self.chart, build(self.node, node))

    return apply


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
        return ScalarExpr(self.chart, ndiff(self.node, coord))

    def simplified(self) -> "ScalarExpr":
        return ScalarExpr(self.chart, nsimplify(self.node))

    def at(self, point: Point) -> float:
        """The value at one point, bit for bit ``sample([point])[0]``;
        raises EvaluationDomainError exactly where that is NaN."""
        require_same_chart(self, point)
        cloud = PointCloud(self.chart, [point.values])
        value = _evaluate(self.node, cloud).item()
        if math.isnan(value):
            # a new cloud keeps every value of its first evaluation
            raise _domain_error(self.node, cloud.cache)
        return value

    def sample(self, points) -> np.ndarray:
        """Evaluate at many points at once (a PointCloud or Point
        objects); NaN marks undefined points, exactly where ``at``
        raises EvaluationDomainError."""
        cloud = PointCloud.of(self.chart, points)
        value = _evaluate(self.node, cloud)
        if np.ndim(value) == 0:
            return np.full(len(cloud), value)
        # a copy, so that a caller writing to its result cannot change
        # the cloud's cached value or its coordinates
        return value.copy()

    # -- inspection -------------------------------------------------------
    def depends_on(self) -> frozenset[str]:
        return _coordinates(self.node)

    def is_zero(self) -> bool:
        """Syntactic test: is this literally the constant 0?"""
        return _is_const(self.node, 0.0)

    def fingerprint(self) -> str:
        return _fingerprint(self.node)

    def __str__(self):
        return node_to_text(self.node)

    def __repr__(self):
        return f"ScalarExpr({self})"

    # -- arithmetic -------------------------------------------------------
    # ``2 + e`` and ``2 * e`` keep ``e`` first, as ``e + 2`` and ``e * 2``
    __add__ = __radd__ = _operator(lambda a, b: nsum([a, b]))
    __sub__ = _operator(lambda a, b: nsum([a, nneg(b)]))
    __rsub__ = _operator(lambda a, b: nsum([b, nneg(a)]))
    __mul__ = __rmul__ = _operator(lambda a, b: nprod([a, b]))
    __truediv__ = _operator(nquot)
    __rtruediv__ = _operator(lambda a, b: nquot(b, a))
    __pow__ = _operator(npow)
    __rpow__ = _operator(lambda a, b: npow(b, a))

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
