"""Algebraic compatibility criteria, checked numerically at sampled points.

Ground truth for every check is direct bracket / Schouten computation
plus pointwise least-squares span expansion. The printed closed-form
structure coefficients are reproduced verbatim for comparison and
documentation; where they disagree with direct expansion (they do, see
the comparison report) both values are reported and neither is patched.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .chart import Point, PointCloud, require_same_chart
from .errors import (
    AllPointsSkippedError,
    PreconditionResidualError,
    SingularFactorError,
)
from .expr import ScalarExpr, constant
from .fields import (
    DecomposableBivector,
    VectorField,
    component_rows,
    contract_hamiltonian,
    field_key,
    lie_bracket,
    lie_derivative_bivector,
    schouten_bb,
    wedge,
    wedge3,
)
from .reports import ConditionResult, CriterionReport, make_report
from .residuals import condition, finite_points, require_nonvanishing, values_at
from .sampling import VerifyConfig

# Global sign reconciling the Schouten convention of fields.schouten_bb
# with the Jacobi-structure identity [[L, L]] = 2 * sigma * X ^ L.
# Under our convention the self-bracket of X^Y is +2 [X,Y]^X^Y, which
# forces sigma = -1; the so(3) and Heisenberg fixtures pin this down.
JACOBI_STRUCTURE_SIGN = -1.0


# ---------------------------------------------------------------------------
# pointwise helpers


def _singular_values(stack: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """k-th singular value of each n x k matrix of the stack where
    ``defined`` (NaN elsewhere): 0 if n < k, as k vectors in n-space are
    dependent, else the smallest from one batched values-only SVD. It is
    bit-identical to that of one ``svd(matrix, compute_uv=False)`` call
    per matrix, so threshold decisions match a per-point loop."""
    values = np.full(len(stack), np.nan)
    if stack.shape[1] < stack.shape[2]:
        values[defined] = 0.0
    elif defined.any():
        values[defined] = np.linalg.svd(stack[defined], compute_uv=False)[:, -1]
    return values


# A closed-form singular value within this fraction of ||A||_F of the
# independence tolerance is re-decided by LAPACK. Both computations are
# backward stable: on 12 000 3 x 2, 2 x 2 and 4 x 2 matrices planted
# within 1e-13 of the tolerance they differed by at most
# 8.3e-16 * sigma_max, about 1.7e4 times less than the band.
_BAND = 2.0**-36

# The closed form serves n x 2 stacks with eps * n <= _BAND / 2 only
# (n <= 32 768). A settled row above the tolerance (sigma_max finite)
# then has sigma_min > band >= _BAND * sigma_max >= 2 * eps * n *
# sigma_max, twice the cutoff of lstsq(..., rcond=None), so lstsq would
# not truncate it either; a settled row below the tolerance is never
# solved.
_CLOSED_FORM_MAX_N = int(_BAND / (2 * np.finfo(float).eps))


def _two_column_factor(stack: np.ndarray):
    """Thin QR factors and smallest singular values of every n x 2
    matrix of the stack (n >= 2), as whole-array expressions.

    Each matrix is first scaled by the power of two that puts its
    largest entry in [0.5, 1), which is exact and keeps the squares
    below from overflowing or underflowing. Gram-Schmidt on the columns
    a, b gives r11 = |a|, q1 = a / r11, r12 = q1.b, r22 = |b - r12 q1|
    and q2 = (b - r12 q1) / r22; least squares through it is backward
    stable (Bjorck 1967). The singular values of [[r11, r12], [0, r22]]
    have the closed form of LAPACK's dlas2. Returns (sigma_min (m,),
    NaN where either singular value is not finite, band = _BAND *
    ||A||_F, (q1, q2, r11, r12, r22)), with q1 and q2 of shape (n, m);
    a zero column gives NaN.

    It works on the columns as contiguous (2, n, m) rows: reductions
    over the short axes of (m, n, 2) cost more than the arithmetic, and
    the sums over i in the einsums keep the order they have on those
    rows. A stack built by ``_FactoredBasis.of`` is stored that way
    (component-major, see ``residuals``), so ``stack.T`` is not copied;
    any other stack is copied once.
    """
    columns = np.ascontiguousarray(stack.T)
    with np.errstate(all="ignore"):
        exponent = np.frexp(np.abs(columns).max(axis=(0, 1)))[1]
        a, b = np.ldexp(columns, -exponent)
        r11 = np.sqrt(np.einsum("im,im->m", a, a))
        q1 = a / r11
        r12 = np.einsum("im,im->m", q1, b)
        w = b - r12 * q1
        r22 = np.sqrt(np.einsum("im,im->m", w, w))
        q2 = w / r22
        squares = r11**2 + r12**2 + r22**2
        # the product form of the discriminant avoids cancellation
        root = np.sqrt(((r11 - r22) ** 2 + r12**2) * ((r11 + r22) ** 2 + r12**2))
        largest = np.sqrt((squares + root) / 2)
        smallest = np.ldexp(r11 * r22 / largest, exponent)
        # an overflowing sigma_max makes lstsq's cutoff infinite
        smallest[~np.isfinite(np.ldexp(largest, exponent))] = np.nan
        band = np.ldexp(_BAND * np.sqrt(squares), exponent)
        r11, r12, r22 = (np.ldexp(r, exponent) for r in (r11, r12, r22))
    return smallest, band, (q1, q2, r11, r12, r22)


class _FactoredBasis:
    """A span basis on one point cloud, with its independence decided
    once for every test and expansion in it.

    ``stack`` (m, n, k) holds at entry i the n x k matrix whose column j
    is field j at point i. ``defined`` marks its finite matrices and
    ``smallest`` their k-th singular values (NaN elsewhere), such
    that every comparison with the independence tolerance is that of one
    values-only SVD per matrix; ``independent`` marks the defined
    matrices above the tolerance. A stack of n x 2 matrices
    (2 <= n <= 32 768) takes the closed form at the rows it ``settled``:
    value finite and farther than the band from the tolerance, solved
    from its Gram-Schmidt ``factors`` (q1, q2, r11, r12, r22). Other
    defined rows, and stacks of any other shape (``factors`` None, no
    row settled), take ``_singular_values``.

    Every array it holds is read-only, and ``size`` counts their
    entries: a basis built by ``of`` is held by its point cloud under
    the cloud's one bound (see ``PointCloud``), and shared by every
    check that spans the same fields on it.
    """

    def __init__(self, stack: np.ndarray, tol):
        n, k = stack.shape[1:]
        self.defined = defined = finite_points(stack)
        smallest = np.full(len(stack), np.nan)
        settled = np.zeros(len(stack), bool)
        self.factors = None
        if k == 2 and 2 <= n <= _CLOSED_FORM_MAX_N:
            smallest, band, self.factors = _two_column_factor(stack)
            with np.errstate(invalid="ignore"):
                settled = defined & (np.abs(smallest - tol.independence) > band)
        smallest[~settled] = _singular_values(stack, defined & ~settled)[~settled]
        self.stack, self.smallest, self.settled = stack, smallest, settled
        self.independent = defined & (smallest > tol.independence)
        arrays = (stack, defined, smallest, settled, self.independent)
        arrays += self.factors or ()
        for array in arrays:
            array.setflags(write=False)
        self.size = sum(array.size for array in arrays)

    @classmethod
    def of(cls, fields, points, tol) -> "_FactoredBasis":
        """The basis of ``fields`` on the PointCloud ``points``, built
        once per cloud, fields' keys and independence tolerance, its
        stack stored component-major: the (m, n, k) view of a C-ordered
        (k, n, m) array of the fields' component rows."""
        points = PointCloud.of(fields[0].chart, points)
        # a tuple of field keys, then a float, which no field's key holds
        key = (tuple(field_key(X) for X in fields), tol.independence)
        basis = points.derived.get(key)
        if basis is None:
            stack = np.stack([component_rows(X, points) for X in fields]).T
            basis = points.hold(key, cls(stack, tol))
        return basis


def _usable_points(bases, what):
    """(usable, dropped): the mask of the points where every basis is
    independent, and how many points it leaves out. Raises
    AllPointsSkippedError, naming ``what``, if it leaves out all."""
    usable = np.logical_and.reduce([basis.independent for basis in bases])
    if not usable.any():
        raise AllPointsSkippedError(f"degenerate {what} at every sampled point")
    return usable, int((~usable).sum())


def _least_squares(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions c of the stacked systems
    A[i] c = v[i], from one ``np.linalg.lstsq(A[i], v[i], rcond=None)``
    per system.

    Where sigma_max overflows, lstsq's cutoff eps * n * sigma_max is
    infinite and drops every singular value. A matrix whose Frobenius
    norm overflows is therefore solved scaled by the power of two that
    puts its largest entry in [0.5, 1), and its solution scaled back;
    both scalings are exact. Every other matrix is scaled by 2^0, which
    leaves it and its solution bit for bit as they are.
    """
    with np.errstate(over="ignore"):
        huge = np.linalg.norm(A, axis=(1, 2)) == np.inf
    exponents = np.where(huge, np.frexp(np.abs(A).max(axis=(1, 2)))[1], 0)
    return np.array(
        [
            np.ldexp(np.linalg.lstsq(np.ldexp(a, -e), b, rcond=None)[0], -e)
            for a, b, e in zip(A, v, exponents)
        ]
    )


# ---------------------------------------------------------------------------
# span expansion


@dataclass(frozen=True, eq=False)
class SpanDecomposition:
    """Pointwise least-squares expansion of a field in a basis of fields.

    ``coefficient_array`` (m, k) and ``residual_array`` (m,) are NaN
    exactly at skipped points (degenerate basis or undefined expressions
    there). The tuple views ``coefficients`` and ``residuals`` hold None
    at those points instead.
    """

    points: Sequence[Point]
    coefficient_array: np.ndarray
    residual_array: np.ndarray
    skipped: tuple[int, ...]
    notes: tuple[str, ...] = ()

    @property
    def coefficients(self) -> tuple[tuple[float, ...] | None, ...]:
        return tuple(
            None if np.isnan(r) else tuple(float(x) for x in row)
            for row, r in zip(self.coefficient_array, self.residual_array)
        )

    @property
    def residuals(self) -> tuple[float | None, ...]:
        return tuple(None if np.isnan(r) else float(r) for r in self.residual_array)

    def max_residual(self) -> float | None:
        usable = self.residual_array[~np.isnan(self.residual_array)]
        return float(usable.max()) if usable.size else None

    def residual_values(self) -> np.ndarray:
        return self.residual_array.copy()

    def coefficient_values(self, j: int) -> np.ndarray:
        return self.coefficient_array[:, j].copy()


def _two_column_solve(factors, target: np.ndarray) -> np.ndarray:
    """Least-squares solutions (m, 2) from the Gram-Schmidt factors of
    n x 2 systems: y = Q^T v, with v projected off q1 before q2, then
    back substitution in R. Meaningful at full-rank rows only. The
    solutions are the ``.T`` view of a C-ordered (2, m) array, one row
    per coefficient."""
    q1, q2, r11, r12, r22 = factors
    v = target.T
    with np.errstate(all="ignore"):
        y1 = np.einsum("im,im->m", q1, v)
        y2 = np.einsum("im,im->m", q2, v - y1 * q1)
        c1 = y2 / r22
        return np.stack([(y1 - r12 * c1) / r11, c1]).T


def _in_order_norms(rows: np.ndarray, out=None) -> np.ndarray:
    """Euclidean norm of each column of the (n, m) ``rows``, the squares
    summed in component order (relative error <= (n - 1) u, Higham 2002,
    4.2) into ``out`` if given. A norm whose squares overflowed is
    recomputed from its column scaled by the power of two that puts its
    largest entry in [0.5, 1), which is exact."""
    with np.errstate(over="ignore"):
        squares = np.multiply(rows, rows, out=out)
        total = squares[0]
        for square in squares[1:]:
            total += square
        norms = np.sqrt(total, out=total)
    redo = norms == np.inf
    if redo.any():
        huge = rows[:, redo]
        exponent = np.frexp(np.abs(huge).max(axis=0))[1]
        norms[redo] = np.ldexp(_in_order_norms(np.ldexp(huge, -exponent)), exponent)
    return norms


def _residual_norms(columns, coeffs, target_rows) -> np.ndarray:
    """Norms |t - (c_1 a_1 + ... + c_k a_k)| at every point, on
    component rows: ``columns`` (k, n, m) holds the a_j, ``coeffs``
    (k, m) the c_j and ``target_rows`` (n, m) t. The fit is formed
    elementwise, in place, and does not warn; the difference's squares
    are summed into the fit's buffer by ``_in_order_norms``."""
    with np.errstate(all="ignore"):
        fitted = columns[0] * coeffs[0]
        for a, c in zip(columns[1:], coeffs[1:]):
            fitted += a * c
    return _in_order_norms(target_rows - fitted, out=fitted)


def _expand_rows(basis: _FactoredBasis, target: np.ndarray):
    """Least-squares expansion of each target[i] in the columns of
    basis.stack[i]: (coefficients (m, k), residual norms (m,), notes).
    Rows that are undefined or whose basis is not independent are NaN
    and counted in the notes. Rows the two-column closed form settled
    are solved from its factors, every other row by ``_least_squares``
    on a copy. The coefficients are the ``.T`` view of a C-ordered
    (k, m) array; the residuals are taken on component rows, uncopied.
    """
    m, _, k = basis.stack.shape
    defined = basis.defined & finite_points(target)
    solvable = defined & basis.independent
    closed = solvable & basis.settled
    if closed.any():
        coeffs = np.where(closed, _two_column_solve(basis.factors, target).T, np.nan)
    else:
        coeffs = np.full((k, m), np.nan)
    rest = solvable & ~closed
    if rest.any():
        # lstsq's overflow test sums over each matrix: hand it C order
        A = np.ascontiguousarray(basis.stack[rest])
        coeffs[:, rest] = _least_squares(A, target[rest]).T
    # NaN coefficients make the residual NaN at every unsolved row
    residuals = _residual_norms(basis.stack.T, coeffs, target.T)
    degenerate = int((defined & ~solvable).sum())
    undefined = int((~defined).sum())
    notes = []
    if degenerate:
        notes.append(f"degenerate basis at {degenerate} point(s)")
    if undefined:
        notes.append(f"undefined expressions at {undefined} point(s)")
    return coeffs.T, residuals, notes


def span_expand(V: VectorField, basis, points, tol) -> SpanDecomposition:
    """Expand V(p) in the basis columns by least squares at every point.

    ``basis`` is a tuple of fields, or a ``_FactoredBasis`` of them on
    ``points``. Points where the basis of k fields is degenerate (k-th
    singular value at or below the independence tolerance) or where some
    component is undefined are skipped and counted; if no point
    survives, AllPointsSkippedError.
    """
    points = PointCloud.of(V.chart, points)
    target = component_rows(V, points).T
    if not isinstance(basis, _FactoredBasis):
        basis = _FactoredBasis.of(basis, points, tol)
    coeffs, residuals, notes = _expand_rows(basis, target)
    skipped = np.flatnonzero(np.isnan(residuals))
    if len(skipped) == len(points):
        raise AllPointsSkippedError(
            "span expansion skipped every sampled point: " + "; ".join(notes)
        )
    return SpanDecomposition(
        points=points,
        coefficient_array=coeffs,
        residual_array=residuals,
        skipped=tuple(int(i) for i in skipped),
        notes=tuple(notes),
    )


def _skipped_everywhere(name, points, exc) -> ConditionResult:
    """The informative condition of a span expansion that skipped every
    point, with the reason ``exc`` gave."""
    return ConditionResult(name, None, None, len(points), True, (str(exc),))


def _span_condition(name, V, basis, points, tol, usable=True, informative=False):
    """Span expansion as a condition over the ``usable`` points; informative
    conditions swallow the all-points-skipped error instead of raising."""
    try:
        decomp = span_expand(V, basis, points, tol)
    except AllPointsSkippedError as exc:
        if not informative:
            raise
        return _skipped_everywhere(name, points, exc), None
    cond = condition(
        name, decomp.residual_values(), points, informative, usable, decomp.notes
    )
    return cond, decomp


def _residual_report(criterion, residuals, points, tol, notes=()):
    """The report ``criterion`` of one condition per (name, residual)
    pair, each residual to vanish at every point."""
    conditions = [condition(name, residual, points) for name, residual in residuals]
    return make_report(criterion, conditions, len(points), tol, notes=notes)


def _precondition(name, residual, points, tol, label=None) -> ConditionResult:
    """The condition ``name`` of ``residual``; raises
    PreconditionResidualError, naming ``label`` (default ``name``), if it
    is not within the residual tolerance."""
    cond = condition(name, residual, points)
    if not cond.within(tol.residual):
        raise PreconditionResidualError(label or name, cond.max_residual or np.inf)
    return cond


# ---------------------------------------------------------------------------
# Poisson pair / automorphism / compatibility


def check_poisson_pair(X: VectorField, Y: VectorField, cfg: VerifyConfig) -> CriterionReport:
    """Is X ^ Y a Poisson tensor?

    Two routes, both required: the self-Schouten bracket components must
    vanish pointwise, and [X, Y] must lie in the pointwise span of X, Y.
    """
    points = cfg.points()
    schouten_cond = condition(
        "self-schouten", schouten_bb(wedge(X, Y), wedge(X, Y)), points
    )
    span_cond, _ = _span_condition(
        "bracket-in-span", lie_bracket(X, Y), (X, Y), points, cfg.tol
    )
    return make_report(
        "poisson-pair", (schouten_cond, span_cond), len(points), cfg.tol
    )


def check_automorphism(
    XH: VectorField, X: VectorField, Y: VectorField, cfg: VerifyConfig
) -> CriterionReport:
    """Does the flow of XH preserve the tensor X ^ Y?

    Gate: the Lie derivative [[XH, X^Y]] vanishes componentwise. The
    two bracket span expansions are reported alongside.
    """
    points = cfg.points()
    lie_cond = condition(
        "lie-derivative", lie_derivative_bivector(XH, wedge(X, Y)), points
    )
    basis = _FactoredBasis.of((X, Y), points, cfg.tol)
    span_x, _ = _span_condition(
        "bracket-x1-in-span", lie_bracket(XH, X), basis, points, cfg.tol
    )
    span_y, _ = _span_condition(
        "bracket-x2-in-span", lie_bracket(XH, Y), basis, points, cfg.tol
    )
    return make_report(
        "automorphism", (lie_cond, span_x, span_y), len(points), cfg.tol
    )


_COMPAT_SPANS = (
    # relation name, bracket pair index, basis description
    ("span-x1-x2-bracket", ("x1", "x2"), ("x1", "x2")),
    ("span-xh-x3-bracket", ("xh", "x3"), ("xh", "x3")),
    ("span-xh-x1-bracket", ("xh", "x1"), ("x1", "x2")),
    ("span-xh-x2-bracket", ("xh", "x2"), ("x1", "x2")),
    ("span-x3-x1-bracket", ("x3", "x1"), ("xh", "x2")),
    ("span-x3-x2-bracket", ("x3", "x2"), ("xh", "x1")),
)


def check_compatibility(
    X1: VectorField,
    X2: VectorField,
    XH: VectorField,
    X3: VectorField,
    cfg: VerifyConfig,
) -> CriterionReport:
    """Are X1^X2 and XH^X3 compatible Poisson tensors?

    The gate is the direct test: the Schouten bracket of the two
    tensors has vanishing components at every usable point. The six
    commutation-relation span expansions are reported as informative
    conditions; their bases may legitimately degenerate (the fixtures
    include an X3 that is pointwise dependent on X1, X2).

    Every condition skips the points where either wedge pair (X1, X2)
    or (XH, X3), also the bases of four spans, degenerates; if no point
    is left the check aborts.
    """
    points = cfg.points()
    named = {"x1": X1, "x2": X2, "x3": X3, "xh": XH}
    pairs = {
        names: _FactoredBasis.of(tuple(named[n] for n in names), points, cfg.tol)
        for names in (("x1", "x2"), ("xh", "x3"))
    }
    usable, dropped = _usable_points(pairs.values(), "wedge pair (X1, X2) or (XH, X3)")
    notes = []
    if dropped:
        notes.append(f"dropped {dropped} point(s) with degenerate wedge pairs")
    bracket_tensor = schouten_bb(wedge(X1, X2), wedge(XH, X3))
    conditions = [condition("schouten", bracket_tensor, points, usable=usable)]
    for cond_name, (a, b), basis_names in _COMPAT_SPANS:
        bracket = lie_bracket(named[a], named[b])
        basis = pairs.get(basis_names, tuple(named[n] for n in basis_names))
        cond, _ = _span_condition(
            cond_name, bracket, basis, points, cfg.tol, usable, informative=True
        )
        conditions.append(cond)
    return make_report(
        "compatibility", conditions, len(points), cfg.tol, notes=notes
    )


# ---------------------------------------------------------------------------
# the three-field commutation algebra


def check_delta(
    X1: VectorField, X2: VectorField, X3: VectorField, cfg: VerifyConfig
) -> CriterionReport:
    """Verify [X1,X2] = 0, [X3,X1] = X1 - X2, [X3,X2] = 0 pointwise.

    Purely componentwise; no basis is needed, so degenerate inputs
    still produce honest residuals rather than an abort.
    """
    points = cfg.points()
    residuals = (
        ("bracket-x1-x2", lie_bracket(X1, X2)),
        ("bracket-x3-x1-minus-target", lie_bracket(X3, X1) - (X1 - X2)),
        ("bracket-x3-x2", lie_bracket(X3, X2)),
    )
    return _residual_report("delta", residuals, points, cfg.tol)


def hamiltonian_condition(
    X1: VectorField, X2: VectorField, H: ScalarExpr, cfg: VerifyConfig
) -> tuple[ScalarExpr, CriterionReport]:
    """The second-order condition X1(X2(H)) = 0; returns the expression
    and a report of its max |value| over the sampled points."""
    points = cfg.points()
    expr = X1.apply(X2.apply(H))
    report = _residual_report(
        "hamiltonian-condition", (("x1-x2-H", expr),), points, cfg.tol,
        notes=(f"expression: {expr}",),
    )
    return expr, report


def separable_hamiltonian(
    I1: ScalarExpr,
    I2: ScalarExpr,
    X1: VectorField,
    X2: VectorField,
    cfg: VerifyConfig,
) -> tuple[ScalarExpr, CriterionReport]:
    """H = I1 + I2 built from invariants of X1 and X2 respectively.

    I1 and I2 must be concrete composed expressions (e.g. a function of
    a known invariant); X1(I1) and X2(I2) are checked at the sampled
    points and a violation raises PreconditionResidualError.
    """
    points = cfg.points()
    inv1 = _precondition("x1-invariance", X1.apply(I1), points, cfg.tol)
    inv2 = _precondition("x2-invariance", X2.apply(I2), points, cfg.tol)
    commute = condition("bracket-x1-x2", lie_bracket(X1, X2), points)
    H = (I1 + I2).simplified()
    main = condition("x1-x2-H", X1.apply(X2.apply(H)), points)
    report = make_report(
        "separable-hamiltonian",
        (inv1, inv2, commute, main),
        len(points),
        cfg.tol,
        notes=(f"H = {H}",),
    )
    return H, report


# ---------------------------------------------------------------------------
# closed-form structure coefficients (reproduced verbatim) and their
# comparison against direct bracket expansion


@dataclass(frozen=True)
class StructureCoefficients:
    """The twelve scalar structure functions of the four-field algebra.

    Expressions that divide by X2(H) carry ``guard`` (the expression
    X2(H) itself) so callers can keep samples away from its zeros.
    """

    chart: object
    n1: ScalarExpr
    n2: ScalarExpr
    a1: ScalarExpr
    a2: ScalarExpr
    b1: ScalarExpr
    b2: ScalarExpr
    c1: ScalarExpr
    c2: ScalarExpr
    d1: ScalarExpr
    d2: ScalarExpr
    e1: ScalarExpr
    e2: ScalarExpr
    guard: ScalarExpr


@dataclass(frozen=True)
class Lemma4Result:
    coefficients: StructureCoefficients
    comparison: CriterionReport
    hamiltonian_field: VectorField


def delta_structure_functions(X1, X2, H):
    """The free-function choice that collapses the algebra to
    [X1,X2]=0, [X3,X1]=X1-X2, [X3,X2]=0: N1=E1=E2=0, D1=-1/X2(H),
    D2=-1+X1(H)/X2(H)."""
    chart = require_same_chart(X1, X2, H)
    zero = constant(chart, 0.0)
    h1 = X1.apply(H)
    h2 = X2.apply(H)
    d1 = (constant(chart, -1.0) / h2).simplified()
    d2 = (constant(chart, -1.0) + h1 / h2).simplified()
    return (zero, d1, d2, zero, zero)


def _guarded_derivatives(X1, X2, X3, H, points, tol):
    """(h1, h2, h11, h12, h21, h22, h31, h32) with h1 = X1(H), h2 = X2(H)
    and hij = Xi(hj), after checking that |X2(H)| stays at least the
    guard epsilon at the sampled points."""
    h1 = X1.apply(H)
    h2 = X2.apply(H)
    require_nonvanishing("X2(H)", h2, points, tol.guard_eps, SingularFactorError)
    return (h1, h2) + tuple(X.apply(h) for X in (X1, X2, X3) for h in (h1, h2))


def lemma4_coefficients(
    X1: VectorField,
    X2: VectorField,
    X3: VectorField,
    H: ScalarExpr,
    free,
    cfg: VerifyConfig,
) -> Lemma4Result:
    """Build the structure coefficients from the printed closed forms.

    ``free`` supplies (N1, D1, D2, E1, E2). The returned comparison
    report contrasts, pointwise, each printed coefficient with the
    least-squares expansion of the corresponding bracket; disagreements
    beyond tolerance are flagged in the notes (and do exist: the
    printed A1 has the opposite sign to direct expansion on the
    exponential fixture). All comparison conditions are informative.
    """
    chart = require_same_chart(X1, X2, X3, H)
    points = cfg.points()
    n1, d1, d2, e1, e2 = (
        f if isinstance(f, ScalarExpr) else constant(chart, f) for f in free
    )
    h1, h2, h11, h12, h21, h22, h31, h32 = _guarded_derivatives(
        X1, X2, X3, H, points, cfg.tol
    )

    c1 = (h2 * n1 - h22).simplified()
    c2 = (h12 - h1 * n1).simplified()
    b1 = (-c2).simplified()
    b2 = ((h1 / h2) * (h12 - h1 * n1) + h21 / h2 - h11).simplified()
    n2 = (h12 / h2 - (h1 / h2) * n1 + h21 / h2).simplified()
    a1 = ((h1 / h2) * e2 - h2 * d1 - h1 * e1 + h32 / h2).simplified()
    a2 = (-(h2 * d2 + (h1 * h1 / h2) * e2 + h31 + (h32 * h1) / h2)).simplified()

    coefficients = StructureCoefficients(
        chart=chart,
        n1=n1, n2=n2, a1=a1, a2=a2, b1=b1, b2=b2,
        c1=c1, c2=c2, d1=d1, d2=d2, e1=e1, e2=e2,
        guard=h2,
    )

    xh = contract_hamiltonian(H, wedge(X1, X2))
    x12 = _FactoredBasis.of((X1, X2), points, cfg.tol)
    comparisons = (
        # (bracket, basis, one (symbol, condition name, printed
        # coefficient) per column of the bracket's expansion)
        (
            lie_bracket(xh, X3),
            (xh, X3),
            (("A1", "a1-vs-direct", a1), ("A2", "a2-vs-direct", a2)),
        ),
        (
            lie_bracket(xh, X1),
            x12,
            (
                ("-C2", "neg-c2-vs-direct", b1),
                ("B2", "b2-vs-direct", b2),
            ),
        ),
        (
            lie_bracket(xh, X2),
            x12,
            (("C1", "c1-vs-direct", c1), ("C2", "c2-vs-direct", c2)),
        ),
    )
    conditions = []
    notes = []
    for bracket, basis, columns in comparisons:
        try:
            decomp = span_expand(bracket, basis, points, cfg.tol)
        except AllPointsSkippedError as exc:
            conditions.extend(
                _skipped_everywhere(name, points, exc) for _, name, _ in columns
            )
            continue
        for column, (symbol, cond_name, printed) in enumerate(columns):
            deviation = values_at(printed, points) - decomp.coefficient_values(column)
            cond = condition(cond_name, deviation, points, informative=True)
            conditions.append(cond)
            if cond.max_residual is not None and cond.max_residual > cfg.tol.residual:
                notes.append(
                    f"printed {symbol} disagrees with direct bracket expansion "
                    f"(max deviation {cond.max_residual:.3e})"
                )
    comparison = make_report(
        "lemma4-comparison", conditions, len(points), cfg.tol, notes=notes
    )
    return Lemma4Result(
        coefficients=coefficients, comparison=comparison, hamiltonian_field=xh
    )


def lemma4_residuals(
    coeffs: StructureCoefficients,
    X1: VectorField,
    X2: VectorField,
    X3: VectorField,
    H: ScalarExpr,
    cfg: VerifyConfig,
) -> CriterionReport:
    """Evaluate the six scalar identities the coefficient choice must
    satisfy; residuals vanish when coeffs come from
    lemma4_coefficients (checked on the fixtures)."""
    points = cfg.points()
    h1, h2, h11, h12, h21, h22, h31, h32 = _guarded_derivatives(
        X1, X2, X3, H, points, cfg.tol
    )
    c = coeffs
    residuals = (
        ("consistency-c2", h1 * c.n1 + c.c2 - h12),
        ("consistency-b2", h1 * c.n2 - c.b2 - h11),
        ("consistency-c1", h2 * c.n1 - c.c1 - h22),
        ("consistency-n2", h2 * c.n2 - c.c2 - h21),
        (
            "consistency-a2",
            c.a2 + c.a1 * h1 + c.d2 * h2 + c.d1 * h1 * h2 + c.e1 * h1 * h1 + h31,
        ),
        (
            "consistency-a1",
            c.a1 * h2 + c.d1 * h2 * h2 - c.e2 * h1 + c.e1 * h1 * h2 - h32,
        ),
    )
    residuals = [(name, expr.simplified()) for name, expr in residuals]
    return _residual_report("lemma4-residuals", residuals, points, cfg.tol)


# ---------------------------------------------------------------------------
# Jacobi structures


def check_jacobi(
    X1: VectorField, X2: VectorField, XH: VectorField, cfg: VerifyConfig
) -> CriterionReport:
    """Is <X1 ^ X2, XH> a Jacobi structure?

    Commutation-rule form: [X1,X2] = -XH componentwise, both brackets
    [XH, Xi] lie in span{X1, X2}, and the trace coupling a + d = 0
    (coefficient of X1 in [XH,X1] plus coefficient of X2 in [XH,X2]).
    Direct form: [[L,L]] - 2*sigma*XH^L = 0 and [[XH, L]] = 0 with
    L = X1^X2 and sigma the global sign convention. Both forms gate.

    Every condition skips the points where (X1, X2), also the basis of
    both spans, degenerates; if no point is left the check aborts.
    """
    points = cfg.points()
    basis = _FactoredBasis.of((X1, X2), points, cfg.tol)
    usable, dropped = _usable_points((basis,), "pair (X1, X2)")
    notes = [f"sign convention sigma = {JACOBI_STRUCTURE_SIGN:+g}"]
    if dropped:
        notes.append(f"dropped {dropped} degenerate point(s)")

    bracket_cond = condition(
        "bracket-plus-xh", lie_bracket(X1, X2) + XH, points, usable=usable
    )
    span1, decomp1 = _span_condition(
        "bracket-xh-x1-in-span", lie_bracket(XH, X1), basis, points, cfg.tol, usable
    )
    span2, decomp2 = _span_condition(
        "bracket-xh-x2-in-span", lie_bracket(XH, X2), basis, points, cfg.tol, usable
    )
    trace = decomp1.coefficient_values(0) + decomp2.coefficient_values(1)
    trace_cond = condition("automorphism-trace", trace, points, usable=usable)

    lam = wedge(X1, X2)
    residual_tensor = schouten_bb(lam, lam) - wedge3(
        XH, X1, X2, 2.0 * JACOBI_STRUCTURE_SIGN
    )
    direct_cond = condition("schouten-identity", residual_tensor, points, usable=usable)
    invariance_cond = condition(
        "invariance", lie_derivative_bivector(XH, lam), points, usable=usable
    )
    conditions = (
        bracket_cond,
        span1,
        span2,
        trace_cond,
        direct_cond,
        invariance_cond,
    )
    theorem_pass = all(
        c.within(cfg.tol.residual) for c in (bracket_cond, span1, span2, trace_cond)
    )
    direct_pass = all(
        c.within(cfg.tol.residual) for c in (direct_cond, invariance_cond)
    )
    notes.append(f"commutation-rule form pass: {theorem_pass}")
    notes.append(f"direct-identity form pass: {direct_pass}")
    return make_report("jacobi", conditions, len(points), cfg.tol, notes=notes)


# ---------------------------------------------------------------------------
# the first-order (constant-of-motion) reduction


@dataclass(frozen=True)
class HojmanResult:
    rho: ScalarExpr
    rescaled_field: VectorField
    bivector: DecomposableBivector
    report: CriterionReport


def hojman_check(
    X1: VectorField, X3: VectorField, H: ScalarExpr, cfg: VerifyConfig
) -> HojmanResult:
    """Given [X3, X1] = X1 and X1(H) = 0, the function rho = X3(H) is a
    constant of the motion: X1(rho) = 0. Returns rho, the rescaled
    field rho * X1, and the bivector X1 ^ X3 the construction equips."""
    points = cfg.points()
    algebra = _precondition(
        "bracket-x3-x1-minus-x1", lie_bracket(X3, X1) - X1, points, cfg.tol,
        label="[X3,X1] = X1",
    )
    invariance = _precondition("x1-H", X1.apply(H), points, cfg.tol, "X1(H) = 0")
    rho = X3.apply(H)
    main = condition("x1-rho", X1.apply(rho), points)
    report = make_report(
        "hojman",
        (algebra, invariance, main),
        len(points),
        cfg.tol,
        notes=(f"rho = {rho}",),
    )
    return HojmanResult(
        rho=rho,
        rescaled_field=X1.scaled(rho),
        bivector=wedge(X1, X3),
        report=report,
    )


# ---------------------------------------------------------------------------
# linear realizations on semi-direct extensions of abelian algebras


@dataclass(frozen=True)
class LinearRealization:
    """X_A = sum A[i][j] x_j d/dx_i over the first n-1 coordinates and
    X_a = d/dx_n, the linear realization attached to a square matrix."""

    chart: object
    matrix: tuple[tuple[float, ...], ...]
    linear_field: VectorField
    shift_field: VectorField

    def residual_expressions(self, P) -> list[ScalarExpr]:
        """Residuals whose sampled vanishing makes X3 = sum P_j d/dx_j
        complete the three-field algebra with (X_A, X_a).

        P must list one expression per coordinate, none depending on
        the last coordinate.
        """
        P = list(P)
        n = self.chart.dimension
        if len(P) != n:
            raise ValueError(f"expected {n} candidate components, got {len(P)}")
        last = self.chart.names[-1]
        for expr in P:
            require_same_chart(self.linear_field, expr)
            if last in expr.depends_on():
                raise ValueError(
                    f"candidate components must not depend on {last!r}"
                )
        coords = [self.chart.coordinate(name) for name in self.chart.names]
        residuals = []
        for i in range(n - 1):
            rhs = self.chart.constant(0.0)
            for j in range(n - 1):
                rhs = rhs + self.matrix[i][j] * (P[j] - coords[j])
            residuals.append((self.linear_field.apply(P[i]) - rhs).simplified())
        residuals.append(
            (self.linear_field.apply(P[n - 1]) - 1.0).simplified()
        )
        return residuals


def linear_realization(matrix, chart) -> LinearRealization:
    """Build the pair (X_A, X_a) for an (n-1)x(n-1) real matrix A on an
    n-dimensional chart."""
    n = chart.dimension
    if n < 2:
        raise ValueError("chart must have dimension >= 2")
    rows = tuple(tuple(float(v) for v in row) for row in matrix)
    if len(rows) != n - 1 or any(len(row) != n - 1 for row in rows):
        raise ValueError(
            f"matrix must be {n - 1}x{n - 1} for chart of dimension {n}"
        )
    coords = [chart.coordinate(name) for name in chart.names]
    comps = []
    for i in range(n - 1):
        expr = chart.constant(0.0)
        for j in range(n - 1):
            if rows[i][j] != 0.0:
                expr = expr + rows[i][j] * coords[j]
        comps.append(expr.simplified())
    comps.append(chart.constant(0.0))
    linear_field = VectorField(chart, tuple(comps))
    shift_comps = [chart.constant(0.0)] * (n - 1) + [chart.constant(1.0)]
    shift_field = VectorField(chart, tuple(shift_comps))
    return LinearRealization(
        chart=chart, matrix=rows, linear_field=linear_field, shift_field=shift_field
    )


def check_linear_realization(
    realization: LinearRealization, P, cfg: VerifyConfig
) -> CriterionReport:
    """Sampled residuals of a candidate X3 for the linear realization."""
    points = cfg.points()
    residuals = enumerate(realization.residual_expressions(P), 1)
    residuals = [(f"candidate-eq-{i}", expr) for i, expr in residuals]
    return _residual_report("linear-realization", residuals, points, cfg.tol)
