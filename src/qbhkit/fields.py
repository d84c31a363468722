"""Vector fields, wedge-monomial multivectors, and their brackets.

Multivectors are stored as formal sums of wedge monomials of vector
fields, never as component arrays; components are only materialised at
evaluation points. Grades beyond 3 never occur in this problem family.

Sign convention for the Schouten bracket of decomposable bivectors:

    [[X^Y, Z^W]] = [X,Z]^Y^W - [X,W]^Y^Z - [Y,Z]^X^W + [Y,W]^X^Z

so the self-bracket of X^Y is -2 * X^[X,Y]^Y = 2 * [X,Y]^X^Y, which
vanishes exactly when [X,Y] lies in the pointwise span of X and Y.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chart import CoordinateChart, Point, PointCloud, require_same_chart
from .expr import ScalarExpr, constant, nprod, nsum, evaluate_at_points


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
        for comp in components:
            require_same_chart(self, comp)

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
        terms = []
        for name, comp in zip(self.chart.names, self.components):
            if comp.is_zero():
                continue
            df = f.diff(name)
            if df.is_zero():
                continue
            terms.append(nprod([comp.node, df.node]))
        return ScalarExpr(self.chart, nsum(terms)).simplified()

    def is_zero(self) -> bool:
        """Syntactic test: every component is literally 0."""
        return all(c.is_zero() for c in self.components)

    def scaled(self, factor) -> "VectorField":
        if isinstance(factor, (int, float)):
            factor = constant(self.chart, factor)
        require_same_chart(self, factor)
        return VectorField(
            self.chart,
            tuple((factor * c).simplified() for c in self.components),
        )

    def components_at(self, points) -> np.ndarray:
        """Component values, shape (len(points), dimension). NaN marks
        points where a component is undefined."""
        cloud = PointCloud.of(self.chart, points)
        return np.column_stack([evaluate_at_points(c, cloud) for c in self.components])

    def at(self, point: Point) -> np.ndarray:
        return np.array([c.at(point) for c in self.components])

    def __add__(self, other: "VectorField") -> "VectorField":
        require_same_chart(self, other)
        return VectorField(
            self.chart,
            tuple(
                (a + b).simplified()
                for a, b in zip(self.components, other.components)
            ),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        require_same_chart(self, other)
        return VectorField(
            self.chart,
            tuple(
                (a - b).simplified()
                for a, b in zip(self.components, other.components)
            ),
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-c for c in self.components))

    def __str__(self):
        parts = []
        for name, comp in zip(self.chart.names, self.components):
            if not comp.is_zero():
                parts.append(f"({comp}) d/d{name}")
        return " + ".join(parts) if parts else "0"


def zero_field(chart: CoordinateChart) -> VectorField:
    zero = constant(chart, 0.0)
    return VectorField(chart, tuple(zero for _ in chart.names))


def coordinate_field(chart: CoordinateChart, name: str) -> VectorField:
    """The coordinate vector field d/d<name>."""
    index = chart.index(name)
    comps = [constant(chart, 1.0 if i == index else 0.0) for i in range(chart.dimension)]
    return VectorField(chart, tuple(comps))


def apply_field(X: VectorField, f: ScalarExpr) -> ScalarExpr:
    return X.apply(f)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i)."""
    require_same_chart(X, Y)
    comps = []
    for yi, xi in zip(Y.components, X.components):
        comps.append((X.apply(yi) - Y.apply(xi)).simplified())
    return VectorField(X.chart, tuple(comps))


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
        return BivectorSum(self.chart, ((coefficient, self),))

    def __str__(self):
        return f"({self.left}) ^ ({self.right})"


def wedge(X: VectorField, Y: VectorField) -> DecomposableBivector:
    return DecomposableBivector(X, Y)


@dataclass(frozen=True, eq=False)
class BivectorSum:
    """Formal sum of coefficient-weighted decomposable bivectors.

    The empty sum is the zero bivector. Terms whose coefficient or
    wedge factors are syntactically zero are dropped at construction;
    any deeper vanishing is certified numerically, never symbolically.
    """

    chart: CoordinateChart
    terms: tuple[tuple[ScalarExpr, DecomposableBivector], ...]

    def __post_init__(self):
        kept = []
        for coeff, biv in self.terms:
            require_same_chart(self, coeff, biv.left, biv.right)
            if coeff.is_zero() or biv.left.is_zero() or biv.right.is_zero():
                continue
            kept.append((coeff, biv))
        object.__setattr__(self, "terms", tuple(kept))

    @classmethod
    def zero(cls, chart: CoordinateChart) -> "BivectorSum":
        return cls(chart, ())

    @classmethod
    def of(cls, *bivectors: DecomposableBivector) -> "BivectorSum":
        chart = bivectors[0].chart
        one = constant(chart, 1.0)
        return cls(chart, tuple((one, b) for b in bivectors))

    def __add__(self, other: "BivectorSum") -> "BivectorSum":
        require_same_chart(self, other)
        return BivectorSum(self.chart, self.terms + other.terms)

    def scaled(self, factor) -> "BivectorSum":
        if isinstance(factor, (int, float)):
            factor = constant(self.chart, factor)
        return BivectorSum(
            self.chart,
            tuple(((factor * c).simplified(), b) for c, b in self.terms),
        )

    def is_zero(self) -> bool:
        return not self.terms

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
    xh = B.left.apply(H)
    yh = B.right.apply(H)
    return B.right.scaled(xh) - B.left.scaled(yh)


def poisson_bracket(B, F: ScalarExpr, G: ScalarExpr) -> ScalarExpr:
    """{F, G} under the bivector: sum of c * (X(F) Y(G) - Y(F) X(G))."""
    B = _as_bivector_sum(B)
    require_same_chart(B, F, G)
    terms = []
    for coeff, biv in B.terms:
        xf = biv.left.apply(F)
        yg = biv.right.apply(G)
        yf = biv.right.apply(F)
        xg = biv.left.apply(G)
        inner = xf * yg - yf * xg
        terms.append((coeff * inner).node)
    return ScalarExpr(B.chart, nsum(terms)).simplified()


def lie_derivative_bivector(X: VectorField, B: DecomposableBivector) -> BivectorSum:
    """[[X, Y ^ Z]] = [X,Y] ^ Z + Y ^ [X,Z] as a two-term sum."""
    require_same_chart(X, B.left)
    one = constant(X.chart, 1.0)
    terms = (
        (one, wedge(lie_bracket(X, B.left), B.right)),
        (one, wedge(B.left, lie_bracket(X, B.right))),
    )
    return BivectorSum(X.chart, terms)


# ---------------------------------------------------------------------------
# trivectors


@dataclass(frozen=True, eq=False)
class TrivectorSum:
    """Formal sum of coefficient-weighted wedges of three vector fields."""

    chart: CoordinateChart
    terms: tuple[tuple[ScalarExpr, tuple[VectorField, VectorField, VectorField]], ...]

    def __post_init__(self):
        kept = []
        for coeff, (u, v, w) in self.terms:
            require_same_chart(self, coeff, u, v, w)
            if coeff.is_zero() or u.is_zero() or v.is_zero() or w.is_zero():
                continue
            kept.append((coeff, (u, v, w)))
        object.__setattr__(self, "terms", tuple(kept))

    @classmethod
    def zero(cls, chart: CoordinateChart) -> "TrivectorSum":
        return cls(chart, ())

    def __add__(self, other: "TrivectorSum") -> "TrivectorSum":
        require_same_chart(self, other)
        return TrivectorSum(self.chart, self.terms + other.terms)

    def __sub__(self, other: "TrivectorSum") -> "TrivectorSum":
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "TrivectorSum":
        if isinstance(factor, (int, float)):
            factor = constant(self.chart, factor)
        return TrivectorSum(
            self.chart,
            tuple(((factor * c).simplified(), fields) for c, fields in self.terms),
        )

    def is_zero(self) -> bool:
        return not self.terms


def wedge3(U: VectorField, V: VectorField, W: VectorField, coefficient=1.0) -> TrivectorSum:
    chart = require_same_chart(U, V, W)
    if isinstance(coefficient, (int, float)):
        coefficient = constant(chart, coefficient)
    return TrivectorSum(chart, ((coefficient, (U, V, W)),))


def schouten_bb(B1: DecomposableBivector, B2: DecomposableBivector) -> TrivectorSum:
    """Schouten bracket of two decomposable bivectors (see module note)."""
    require_same_chart(B1.left, B2.left)
    x, y = B1.left, B1.right
    z, w = B2.left, B2.right
    result = TrivectorSum.zero(x.chart)
    result = result + wedge3(lie_bracket(x, z), y, w, 1.0)
    result = result + wedge3(lie_bracket(x, w), y, z, -1.0)
    result = result + wedge3(lie_bracket(y, z), x, w, -1.0)
    result = result + wedge3(lie_bracket(y, w), x, z, 1.0)
    return result


# ---------------------------------------------------------------------------
# pointwise components


def bivector_components_at(B, points) -> np.ndarray:
    """Components B^{ij}, shape (len(points), n, n), antisymmetric."""
    B = _as_bivector_sum(B)
    points = PointCloud.of(B.chart, points)
    n = B.chart.dimension
    out = np.zeros((len(points), n, n))
    for coeff, biv in B.terms:
        c = evaluate_at_points(coeff, points)
        u = biv.left.components_at(points)
        v = biv.right.components_at(points)
        out += c[:, None, None] * (
            u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]
        )
    return out


def _det3(u, v, w, i, j, k):
    return (
        u[:, i] * (v[:, j] * w[:, k] - v[:, k] * w[:, j])
        - u[:, j] * (v[:, i] * w[:, k] - v[:, k] * w[:, i])
        + u[:, k] * (v[:, i] * w[:, j] - v[:, j] * w[:, i])
    )


def trivector_components_at(T: TrivectorSum, points) -> np.ndarray:
    """Components T^{ijk}, shape (len(points), n, n, n), antisymmetric."""
    points = PointCloud.of(T.chart, points)
    n = T.chart.dimension
    out = np.zeros((len(points), n, n, n))
    for coeff, (U, V, W) in T.terms:
        c = evaluate_at_points(coeff, points)
        u = U.components_at(points)
        v = V.components_at(points)
        w = W.components_at(points)
        for i, j, k in combinations(range(n), 3):
            d = c * _det3(u, v, w, i, j, k)
            out[:, i, j, k] += d
            out[:, j, k, i] += d
            out[:, k, i, j] += d
            out[:, j, i, k] -= d
            out[:, i, k, j] -= d
            out[:, k, j, i] -= d
    return out


def trivector_at(T: TrivectorSum, p: Point) -> np.ndarray:
    """The full antisymmetric component array of T at one point."""
    return trivector_components_at(T, [p])[0]
