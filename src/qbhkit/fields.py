"""Vector fields, wedge-monomial multivectors, and their brackets.

Multivectors are stored as formal sums of wedge monomials of vector
fields, never as component arrays; components are only materialised at
evaluation points. Grades beyond 3 never occur in this problem family.

Sign convention for the Schouten bracket of decomposable bivectors:

    [[X^Y, Z^W]] = [X,Z]^Y^W - [X,W]^Y^Z - [Y,Z]^X^W + [Y,W]^X^Z

so the self-bracket of X^Y is -2 * X^[X,Y]^Y = 2 * [X,Y]^X^Y, which
vanishes exactly when [X,Y] lies in the pointwise span of X and Y.
``schouten_bb`` takes that closed form whenever both bivectors wedge the
same two field objects.

Field operations run on the expression nodes of the components
(``expr``): an application X(f), a bracket, a scaling, a sum or a
difference builds each component node with ``nsimplify``, ``nsum``,
``nprod`` and ``ndiff`` directly, and wraps only the result in a
``ScalarExpr``. Each public operation checks the chart of its arguments
once; what it builds from them is on that chart already, so the fields,
wedges and sums it builds internally are made without checking again
(``_unchecked``). Constructing a field, wedge or sum from outside
checks every argument's chart, in one call.

Each field keeps the Lie brackets it has computed, keyed weakly by the
other field, so a bracket is built once per pair of field objects and a
cache keeps no field alive and forms no reference cycle. [X,X] is the
zero field and [Y,X] is the negation of a cached [X,Y]; neither is
built again. Repeated brackets are then the same expression nodes, so
they also share the values a point cloud caches, and fields whose
components are the same nodes share one array of component rows on it
(``component_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from weakref import WeakKeyDictionary

import numpy as np

from .chart import CoordinateChart, Point, PointCloud, require_same_chart
from .expr import (
    Const,
    ScalarExpr,
    _composite_key,
    _evaluate,
    _is_const,
    constant,
    ndiff,
    nneg,
    nprod,
    nsimplify,
    nsum,
)


def _unchecked(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values``,
    which this module built on one chart: made without ``__post_init__``,
    so without checking that chart again."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def _of_nodes(chart: CoordinateChart, nodes) -> "VectorField":
    """The field on ``chart`` whose components are the nodes ``nodes``."""
    return _unchecked(
        VectorField, chart=chart, components=tuple(ScalarExpr(chart, n) for n in nodes)
    )


def _factor_node(owner, factor):
    """The node of ``factor``, a number or an expression on ``owner``'s
    chart, as ``constant`` builds it for a number."""
    if isinstance(factor, (int, float)):
        return Const(float(factor))
    require_same_chart(owner, factor)
    return factor.node


def _plus(a, b):
    return nsimplify(nsum([a, b]))


def _minus(a, b):
    return nsimplify(nsum([a, nneg(b)]))


def _apply(X: "VectorField", f):
    """The node of X(f) = sum_i X^i df/dx^i, simplified, for the node
    ``f`` on X's chart. A zero component or a zero derivative adds no
    term."""
    terms = []
    for name, comp in zip(X.chart.names, X.components):
        if _is_const(comp.node, 0.0):
            continue
        df = ndiff(f, name)
        if _is_const(df, 0.0):
            continue
        terms.append(nprod([comp.node, df]))
    return nsimplify(nsum(terms))


def _scaled_nodes(factor, X: "VectorField"):
    """The simplified nodes factor * X^i, for the node ``factor``."""
    return [nsimplify(nprod([factor, c.node])) for c in X.components]


@dataclass(frozen=True, eq=False)
class VectorField:
    """A vector field: one component expression per chart coordinate."""

    chart: CoordinateChart
    components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if len(components) != self.chart.dimension:
            raise ValueError(
                f"expected {self.chart.dimension} components, got {len(components)}"
            )
        for name, comp in zip(self.chart.names, components):
            if not isinstance(comp, ScalarExpr):
                raise TypeError(
                    f"component {name!r} is {comp!r}, not a ScalarExpr"
                )
        require_same_chart(self, *components)

    @classmethod
    def from_mapping(cls, chart: CoordinateChart, mapping) -> "VectorField":
        """Build from a {coordinate name: expression} mapping; missing
        components default to zero."""
        zero = constant(chart, 0.0)
        comps = []
        for name in chart.names:
            comps.append(mapping.get(name, zero))
        unknown = set(mapping) - set(chart.names)
        if unknown:
            raise ValueError(f"unknown component name(s): {sorted(unknown)}")
        return cls(chart, tuple(comps))

    def apply(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative sum_i X^i df/dx^i (the derivation action)."""
        require_same_chart(self, f)
        return ScalarExpr(self.chart, _apply(self, f.node))

    def is_zero(self) -> bool:
        """Syntactic test: every component is literally 0."""
        return all(c.is_zero() for c in self.components)

    def scaled(self, factor) -> "VectorField":
        nodes = _scaled_nodes(_factor_node(self, factor), self)
        if all(
            _composite_key((), (a,)) == _composite_key((), (b.node,))
            for a, b in zip(nodes, self.components)
        ):
            # each component is itself, or a constant of its type, value
            # and sign (a factor 1 leaves a simplified field so): the field
            # itself, with the brackets cached on it
            return self
        return _of_nodes(self.chart, nodes)

    def components_at(self, points) -> np.ndarray:
        """Component values, shape (len(points), dimension). NaN marks
        points where a component is undefined.

        The array is a writable copy, stored component-major: it is the
        transposed view of a C-ordered (dimension, len(points)) array,
        so each component's values are one contiguous row of ``.T``,
        over which a reduction across components runs elementwise."""
        return np.array(component_rows(self, PointCloud.of(self.chart, points))).T

    def at(self, point: Point) -> np.ndarray:
        return np.array([c.at(point) for c in self.components])

    def _componentwise(self, other: "VectorField", op) -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        require_same_chart(self, other)
        return _of_nodes(
            self.chart,
            [op(a.node, b.node) for a, b in zip(self.components, other.components)],
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        return self._componentwise(other, _plus)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self._componentwise(other, _minus)

    def __neg__(self) -> "VectorField":
        components = tuple(
            c if c.is_zero() else ScalarExpr(self.chart, nneg(c.node))
            for c in self.components
        )
        return _unchecked(VectorField, chart=self.chart, components=components)

    def __str__(self):
        parts = []
        for name, comp in zip(self.chart.names, self.components):
            if not comp.is_zero():
                parts.append(f"({comp}) d/d{name}")
        return " + ".join(parts) if parts else "0"


def field_key(X: VectorField) -> tuple:
    """The key of X's components: its component nodes, each constant as
    ``expr._composite_key`` keys it, so that fields built alike, whose
    components are the same interned nodes, have one key."""
    return _composite_key((), tuple(c.node for c in X.components))


def component_rows(X: VectorField, cloud: PointCloud) -> np.ndarray:
    """X's component values over ``cloud`` as a read-only C-ordered
    (dimension, len(cloud)) array, one row per component, built once
    per cloud and field key and held in ``cloud.derived`` (see
    ``PointCloud``). Row i holds the bits of
    ``X.components[i].sample(cloud)``."""
    key = field_key(X)
    rows = cloud.derived.get(key)
    if rows is None:
        rows = np.empty((len(X.components), len(cloud)))
        for row, c in zip(rows, X.components):
            row[...] = _evaluate(c.node, cloud)
        rows.setflags(write=False)
        cloud.hold(key, rows)
    return rows


def zero_field(chart: CoordinateChart) -> VectorField:
    zero = constant(chart, 0.0)
    return _unchecked(VectorField, chart=chart, components=(zero,) * chart.dimension)


def coordinate_field(chart: CoordinateChart, name: str) -> VectorField:
    """The coordinate vector field d/d<name>."""
    index = chart.index(name)
    comps = [constant(chart, 1.0 if i == index else 0.0) for i in range(chart.dimension)]
    return _unchecked(VectorField, chart=chart, components=tuple(comps))


def apply_field(X: VectorField, f: ScalarExpr) -> ScalarExpr:
    return X.apply(f)


def _brackets(X: VectorField) -> WeakKeyDictionary:
    """X's computed brackets, {Y: [X, Y]}, keyed weakly by Y."""
    cache = X.__dict__.get("brackets")
    if cache is None:
        cache = X.__dict__["brackets"] = WeakKeyDictionary()
    return cache


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i).

    Built once per pair of field objects (see module note): [X, X] is
    the zero field, a repeated [X, Y] returns the cached field and
    [Y, X] the negation of a cached [X, Y].
    """
    require_same_chart(X, Y)
    return _bracket(X, Y)


def _bracket(X: VectorField, Y: VectorField) -> VectorField:
    """``lie_bracket`` of two fields on one chart, unchecked."""
    if X is Y:
        return zero_field(X.chart)
    cache = _brackets(X)
    result = cache.get(Y)
    if result is None:
        reverse = _brackets(Y).get(X)
        if reverse is not None:
            result = -reverse
        else:
            result = _of_nodes(
                X.chart,
                [
                    _minus(_apply(X, yi.node), _apply(Y, xi.node))
                    for yi, xi in zip(Y.components, X.components)
                ],
            )
        cache[Y] = result
    return result


# ---------------------------------------------------------------------------
# bivectors


@dataclass(frozen=True, eq=False)
class DecomposableBivector:
    """A wedge of two vector fields, X ^ Y."""

    left: VectorField
    right: VectorField

    def __post_init__(self):
        require_same_chart(self.left, self.right)

    @property
    def chart(self) -> CoordinateChart:
        return self.left.chart

    def as_sum(self, coefficient=1.0) -> "BivectorSum":
        if isinstance(coefficient, (int, float)):
            coefficient = constant(self.chart, coefficient)
        else:
            require_same_chart(self, coefficient)
        return BivectorSum._of(self.chart, ((coefficient, self),))

    def __str__(self):
        return f"({self.left}) ^ ({self.right})"


def wedge(X: VectorField, Y: VectorField) -> DecomposableBivector:
    return DecomposableBivector(X, Y)


def _wedge(X: VectorField, Y: VectorField) -> DecomposableBivector:
    """``wedge`` of two fields on one chart, unchecked."""
    return _unchecked(DecomposableBivector, left=X, right=Y)


class _WedgeSum:
    """Arithmetic shared by the formal sums of coefficient-weighted
    wedges: ``terms`` holds (coefficient, wedge) pairs, and a subclass's
    ``_factors`` gives the fields a wedge is made of.

    Terms whose coefficient or wedge factors are syntactically zero are
    dropped at construction; any deeper vanishing is certified
    numerically, never symbolically.
    """

    def __post_init__(self):
        require_same_chart(
            self, *(x for c, w in self.terms for x in (c, *self._factors(w)))
        )
        object.__setattr__(self, "terms", self._nonzero(self.terms))

    @classmethod
    def _nonzero(cls, terms) -> tuple:
        return tuple(
            (c, w)
            for c, w in terms
            if not (c.is_zero() or any(X.is_zero() for X in cls._factors(w)))
        )

    @classmethod
    def _of(cls, chart: CoordinateChart, terms):
        """The sum of the nonzero ``terms``, built on ``chart``, unchecked."""
        return _unchecked(cls, chart=chart, terms=cls._nonzero(terms))

    @classmethod
    def zero(cls, chart: CoordinateChart):
        return cls(chart, ())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        require_same_chart(self, other)
        return _unchecked(type(self), chart=self.chart, terms=self.terms + other.terms)

    def scaled(self, factor):
        factor = _factor_node(self, factor)
        return self._of(
            self.chart,
            tuple(
                (ScalarExpr(self.chart, nsimplify(nprod([factor, c.node]))), w)
                for c, w in self.terms
            ),
        )

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True, eq=False)
class BivectorSum(_WedgeSum):
    """Formal sum of coefficient-weighted decomposable bivectors; the
    empty sum is the zero bivector."""

    chart: CoordinateChart
    terms: tuple[tuple[ScalarExpr, DecomposableBivector], ...]

    @staticmethod
    def _factors(biv):
        return biv.left, biv.right

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c}) * {b}" for c, b in self.terms)


def _as_bivector_sum(B) -> BivectorSum:
    if isinstance(B, DecomposableBivector):
        return B.as_sum()
    return B


def contract_hamiltonian(H: ScalarExpr, B: DecomposableBivector) -> VectorField:
    """dH | (X ^ Y) = X(H) * Y - Y(H) * X."""
    require_same_chart(H, B.left)
    xh = _apply(B.left, H.node)
    yh = _apply(B.right, H.node)
    return _of_nodes(
        H.chart,
        list(map(_minus, _scaled_nodes(xh, B.right), _scaled_nodes(yh, B.left))),
    )


def poisson_bracket(B, F: ScalarExpr, G: ScalarExpr) -> ScalarExpr:
    """{F, G} under the bivector: sum of c * (X(F) Y(G) - Y(F) X(G))."""
    B = _as_bivector_sum(B)
    require_same_chart(B, F, G)
    f, g = F.node, G.node
    terms = []
    for coeff, biv in B.terms:
        xf = _apply(biv.left, f)
        yg = _apply(biv.right, g)
        yf = _apply(biv.right, f)
        xg = _apply(biv.left, g)
        inner = nsum([nprod([xf, yg]), nneg(nprod([yf, xg]))])
        terms.append(nprod([coeff.node, inner]))
    return ScalarExpr(B.chart, nsimplify(nsum(terms)))


def lie_derivative_bivector(X: VectorField, B: DecomposableBivector) -> BivectorSum:
    """[[X, Y ^ Z]] = [X,Y] ^ Z + Y ^ [X,Z] as a two-term sum."""
    require_same_chart(X, B.left)
    one = constant(X.chart, 1.0)
    terms = (
        (one, _wedge(_bracket(X, B.left), B.right)),
        (one, _wedge(B.left, _bracket(X, B.right))),
    )
    return BivectorSum._of(X.chart, terms)


# ---------------------------------------------------------------------------
# trivectors


@dataclass(frozen=True, eq=False)
class TrivectorSum(_WedgeSum):
    """Formal sum of coefficient-weighted wedges of three vector fields."""

    chart: CoordinateChart
    terms: tuple[tuple[ScalarExpr, tuple[VectorField, VectorField, VectorField]], ...]

    @staticmethod
    def _factors(fields):
        return fields

    def __sub__(self, other: "TrivectorSum") -> "TrivectorSum":
        return self + other.scaled(-1.0)


def wedge3(U: VectorField, V: VectorField, W: VectorField, coefficient=1.0) -> TrivectorSum:
    if isinstance(coefficient, (int, float)):
        chart = require_same_chart(U, V, W)
        coefficient = constant(chart, coefficient)
    else:
        chart = require_same_chart(U, V, W, coefficient)
    return TrivectorSum._of(chart, ((coefficient, (U, V, W)),))


def schouten_bb(B1: DecomposableBivector, B2: DecomposableBivector) -> TrivectorSum:
    """Schouten bracket of two decomposable bivectors (see module note).

    When both wedge the same two fields, this is the self-bracket
    [[X^Y, X^Y]] = 2 [X,Y]^X^Y, built from one Lie bracket instead of
    the four-term expansion.
    """
    chart = require_same_chart(B1.left, B2.left)
    x, y = B1.left, B1.right
    z, w = B2.left, B2.right
    if x is z and y is w:
        terms = [(2.0, (_bracket(x, y), x, y))]
    else:
        terms = [
            (1.0, (_bracket(x, z), y, w)),
            (-1.0, (_bracket(x, w), y, z)),
            (-1.0, (_bracket(y, z), x, w)),
            (1.0, (_bracket(y, w), x, z)),
        ]
    return TrivectorSum._of(
        chart, tuple((constant(chart, c), fields) for c, fields in terms)
    )


# ---------------------------------------------------------------------------
# pointwise components


def _index_combinations(n: int, r: int):
    """Index arrays (i, j, ...) of the r-subsets of range(n), in
    ``combinations`` order."""
    return tuple(np.array(list(combinations(range(n), r)), int).reshape(-1, r).T)


def _det3(u, v, w, i, j, k):
    return (
        u[i] * (v[j] * w[k] - v[k] * w[j])
        - u[j] * (v[i] * w[k] - v[k] * w[i])
        + u[k] * (v[i] * w[j] - v[j] * w[i])
    )


def independent_components_at(M, points):
    """(components, diagonal) of a bivector or trivector sum at points.

    ``components`` (len(points), K) holds B^{ij}, i < j, or T^{ijk},
    i < j < k, in ``combinations`` order; every other entry of the full
    antisymmetric array is 0.0 minus one of them, or 0. A bivector's
    ``diagonal`` (len(points), n) holds its B^{ii}, sums of
    c (u_i v_i - u_i v_i): +0 where every such product is finite, NaN
    where one overflows, which no B^{ij} need show (u = (1e200, 0),
    v = (1e200, 1)). A trivector's entries with a repeated index are
    never formed, so its ``diagonal`` is None. A product that overflows
    gives an inf or NaN entry, silently.

    Both arrays are component-major, like ``components_at``: each is
    computed one component row at a time from the fields' rows
    (``component_rows``) and the coefficients' values, read where the
    cloud holds them, with the same elementwise operations in the same
    order as on (m, n) arrays, and returned as the (len(points), ...)
    view.
    """
    if isinstance(M, TrivectorSum):
        points = PointCloud.of(M.chart, points)
        i, j, k = _index_combinations(M.chart.dimension, 3)
        out = np.zeros((len(i), len(points)))
        for coeff, fields in M.terms:
            c = _evaluate(coeff.node, points)
            u, v, w = (component_rows(X, points) for X in fields)
            with np.errstate(over="ignore", invalid="ignore"):
                out += c * _det3(u, v, w, i, j, k)
        return out.T, None
    B = _as_bivector_sum(M)
    points = PointCloud.of(B.chart, points)
    i, j = _index_combinations(B.chart.dimension, 2)
    out = np.zeros((len(i), len(points)))
    diagonal = np.zeros((B.chart.dimension, len(points)))
    for coeff, biv in B.terms:
        c = _evaluate(coeff.node, points)
        u = component_rows(biv.left, points)
        v = component_rows(biv.right, points)
        with np.errstate(over="ignore", invalid="ignore"):
            out += c * (u[i] * v[j] - u[j] * v[i])
            diagonal += c * (u * v - u * v)
    return out.T, diagonal.T


def bivector_components_at(B, points) -> np.ndarray:
    """Components B^{ij}, shape (len(points), n, n), antisymmetric,
    scattered from ``independent_components_at``."""
    upper, diagonal = independent_components_at(B, points)
    m, n = diagonal.shape
    i, j = _index_combinations(n, 2)
    out = np.empty((m, n, n))
    out[:, i, j] = upper
    out[:, j, i] = 0.0 - upper
    out[:, range(n), range(n)] = diagonal
    return out


def trivector_components_at(T: TrivectorSum, points) -> np.ndarray:
    """Components T^{ijk}, shape (len(points), n, n, n), antisymmetric,
    scattered from ``independent_components_at``."""
    d, _ = independent_components_at(T, points)
    n = T.chart.dimension
    i, j, k = _index_combinations(n, 3)
    out = np.zeros((len(d), n, n, n))
    out[:, i, j, k] = out[:, j, k, i] = out[:, k, i, j] = d
    out[:, j, i, k] = out[:, i, k, j] = out[:, k, j, i] = 0.0 - d
    return out


def trivector_at(T: TrivectorSum, p: Point) -> np.ndarray:
    """The full antisymmetric component array of T at one point."""
    return trivector_components_at(T, [p])[0]
