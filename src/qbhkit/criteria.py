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
from .expr import ScalarExpr, constant, evaluate_at_points
from .fields import (
    DecomposableBivector,
    VectorField,
    bivector_components_at,
    contract_hamiltonian,
    lie_bracket,
    lie_derivative_bivector,
    schouten_bb,
    trivector_components_at,
    wedge,
    wedge3,
)
from .reports import ConditionResult, CriterionReport, make_report
from .sampling import VerifyConfig

# Global sign reconciling the Schouten convention of fields.schouten_bb
# with the Jacobi-structure identity [[L, L]] = 2 * sigma * X ^ L.
# Under our convention the self-bracket of X^Y is +2 [X,Y]^X^Y, which
# forces sigma = -1; the so(3) and Heisenberg fixtures pin this down.
JACOBI_STRUCTURE_SIGN = -1.0


# ---------------------------------------------------------------------------
# pointwise helpers


def _condition(name, values, points, informative=False, extra_skipped=0, notes=()):
    """Build a ConditionResult from per-point |residual| values (NaN =
    skipped point)."""
    values = np.asarray(values, dtype=float)
    valid = np.isfinite(values)
    skipped = int((~valid).sum()) + extra_skipped
    notes = list(notes)
    if skipped and not notes:
        notes.append(f"{skipped} point(s) skipped")
    if not valid.any():
        return ConditionResult(
            name=name,
            max_residual=None,
            worst_point=None,
            skipped=skipped,
            informative=informative,
            notes=tuple(notes + ["no usable points"]),
        )
    masked = np.where(valid, np.abs(values), -np.inf)
    worst = int(np.argmax(masked))
    return ConditionResult(
        name=name,
        max_residual=float(masked[worst]),
        worst_point=points[worst],
        skipped=skipped,
        informative=informative,
        notes=tuple(notes),
    )


def _grid_values(arr: np.ndarray) -> np.ndarray:
    """Collapse (m, ...) component arrays to per-point max |entry|."""
    flat = arr.reshape(arr.shape[0], -1)
    bad = ~np.isfinite(flat).all(axis=1)
    values = np.max(np.abs(flat), axis=1)
    values[bad] = np.nan
    return values


def _basis_stack(fields, points) -> np.ndarray:
    """Shape (m, n, k): entry i is the n x k matrix whose column j is
    fields[j] at point i."""
    return np.stack([X.components_at(points) for X in fields], axis=-1)


def _singular_values(stack: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """Singular values, largest first, of each matrix of the stack where
    ``defined`` (NaN rows elsewhere), from one batched values-only SVD.
    They are bit-identical to one ``svd(matrix, compute_uv=False)`` call
    per matrix, so threshold decisions match a per-point loop."""
    values = np.full((len(stack), min(stack.shape[1:])), np.nan)
    if defined.any():
        values[defined] = np.linalg.svd(stack[defined], compute_uv=False)
    return values


# A closed-form singular value within this fraction of ||A||_F of a
# threshold is re-decided by LAPACK. Both computations are backward
# stable: on 12 000 3 x 2, 2 x 2 and 4 x 2 matrices planted within
# 1e-13 of the independence tolerance they differed by at most
# 8.3e-16 * sigma_max, about 1.7e4 times less than the band.
_BAND = 2.0**-36


def _lstsq_cutoff(sigma: np.ndarray, n: int, k: int) -> np.ndarray:
    """The cutoff of ``lstsq(..., rcond=None)``: singular values at or
    below eps * max(n, k) times the largest are truncated."""
    return np.finfo(float).eps * max(n, k) * sigma[:, 0]


def _two_column_factor(stack: np.ndarray):
    """Thin QR factors and singular values of every n x 2 matrix of the
    stack (n >= 2), as whole-array expressions.

    Each matrix is first scaled by the power of two that puts its
    largest entry in [0.5, 1), which is exact and keeps the squares
    below from overflowing or underflowing. Gram-Schmidt on the columns
    a, b gives r11 = |a|, q1 = a / r11, r12 = q1.b, r22 = |b - r12 q1|
    and q2 = (b - r12 q1) / r22; least squares through it is backward
    stable (Bjorck 1967). The singular values of [[r11, r12], [0, r22]]
    have the closed form of LAPACK's dlas2. Returns (sigma (m, 2),
    largest first, band = _BAND * ||A||_F, (q1, q2, r11, r12, r22)),
    with q1 and q2 of shape (n, m); a zero column gives NaN.
    """
    # one (2, n, m) copy: reductions over the short axes of (m, n, 2)
    # cost more than the arithmetic
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
        sigma = np.stack([largest, r11 * r22 / largest], axis=1)
        sigma = np.ldexp(sigma, exponent[:, None])
        band = np.ldexp(_BAND * np.sqrt(squares), exponent)
        r11, r12, r22 = (np.ldexp(r, exponent) for r in (r11, r12, r22))
    return sigma, band, (q1, q2, r11, r12, r22)


def _decided_singular_values(stack: np.ndarray, defined: np.ndarray, tol):
    """Singular values, largest first, of each matrix of the stack where
    ``defined`` (NaN rows elsewhere), such that every comparison with the
    independence tolerance or the lstsq cutoff is that of one values-only
    SVD per matrix.

    A stack of n x 2 matrices (n >= 2) takes the closed form at the rows
    it settles: values finite and the smallest farther than the band
    from both thresholds. Other defined rows, and stacks of any other
    shape, take ``_singular_values``. Returns (sigma, settled, factors):
    the Gram-Schmidt factors (q1, q2, r11, r12, r22) of every row, or
    None for a stack of another shape, where no row is settled.
    """
    n, k = stack.shape[1:]
    if k != 2 or n < 2:
        return _singular_values(stack, defined), np.zeros(len(stack), bool), None
    sigma, band, factors = _two_column_factor(stack)
    smallest = sigma[:, 1]
    with np.errstate(invalid="ignore"):
        settled = (
            defined
            & np.isfinite(sigma).all(axis=1)
            & (np.abs(smallest - tol.independence) > band)
            & (np.abs(smallest - _lstsq_cutoff(sigma, n, k)) > band)
        )
    near = defined & ~settled
    sigma[~settled] = _singular_values(stack, near)[~settled]
    return sigma, settled, factors


def _independent_rows(stack: np.ndarray, tol) -> np.ndarray:
    """True where a matrix of the stack is defined and its smallest
    singular value exceeds the independence tolerance."""
    defined = np.isfinite(stack).all(axis=(1, 2))
    sigma, _, _ = _decided_singular_values(stack, defined, tol)
    return defined & (sigma[:, -1] > tol.independence)


def _independent_mask(fields, points, tol) -> np.ndarray:
    """True where the given fields are pointwise linearly independent."""
    return _independent_rows(_basis_stack(fields, points), tol)


def _least_squares(A: np.ndarray, v: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Least-squares solutions c of the stacked systems A[i] c = v[i],
    given the singular values ``sigma`` of each A[i].

    Systems of full column rank are solved from one batched QR
    factorisation. The rest go through ``np.linalg.lstsq`` itself, which
    returns their minimum-norm solution: systems with more unknowns than
    equations, and those whose smallest singular value is at or below
    eps * max(n, k) times the largest, the cutoff of ``lstsq(...,
    rcond=None)``.
    """
    n, k = A.shape[1:]
    c = np.empty((len(A), k))
    full = sigma[:, -1] > _lstsq_cutoff(sigma, n, k)
    if n < k:
        full[:] = False
    if full.any():
        Q, R = np.linalg.qr(A[full])
        y = np.einsum("mji,mj->mi", Q, v[full])
        solved = np.empty_like(y)
        for j in reversed(range(k)):
            tail = np.einsum("mi,mi->m", R[:, j, j + 1 :], solved[:, j + 1 :])
            solved[:, j] = (y[:, j] - tail) / R[:, j, j]
        c[full] = solved
    for i in np.flatnonzero(~full):
        c[i] = np.linalg.lstsq(A[i], v[i], rcond=None)[0]
    return c


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
    back substitution in R. Meaningful at full-rank rows only."""
    q1, q2, r11, r12, r22 = factors
    v = target.T
    with np.errstate(all="ignore"):
        y1 = np.einsum("im,im->m", q1, v)
        y2 = np.einsum("im,im->m", q2, v - y1 * q1)
        c1 = y2 / r22
        return np.stack([(y1 - r12 * c1) / r11, c1], axis=1)


def _expand_rows(stack: np.ndarray, target: np.ndarray, tol):
    """Least-squares expansion of each target[i] in the columns of
    stack[i]: (coefficients (m, k), residual norms (m,), notes). Rows
    that are undefined or whose basis is degenerate (smallest singular
    value at or below the independence tolerance) are NaN and counted
    in the notes. Two-column rows that the closed form settles above
    lstsq's cutoff are solved from its factors, the rest by
    ``_least_squares``."""
    n, k = stack.shape[1:]
    defined = np.isfinite(stack).all(axis=(1, 2)) & np.isfinite(target).all(axis=1)
    sigma, settled, factors = _decided_singular_values(stack, defined, tol)
    solvable = defined & (sigma[:, -1] > tol.independence)
    closed = solvable & settled & (sigma[:, -1] > _lstsq_cutoff(sigma, n, k))
    coeffs = np.full((len(stack), k), np.nan)
    if closed.any():
        coeffs = np.where(closed[:, None], _two_column_solve(factors, target), np.nan)
    rest = solvable & ~closed
    if rest.any():
        coeffs[rest] = _least_squares(stack[rest], target[rest], sigma[rest])
    # NaN coefficients make the residual NaN at every unsolved row
    residuals = np.linalg.norm(target - np.einsum("mik,mk->mi", stack, coeffs), axis=1)
    degenerate = int((defined & ~solvable).sum())
    undefined = int((~defined).sum())
    notes = []
    if degenerate:
        notes.append(f"degenerate basis at {degenerate} point(s)")
    if undefined:
        notes.append(f"undefined expressions at {undefined} point(s)")
    return coeffs, residuals, notes


def span_expand(V: VectorField, basis, points, tol) -> SpanDecomposition:
    """Expand V(p) in the basis columns by least squares at every point.

    Points where the basis is degenerate (smallest singular value below
    the independence tolerance) or where some component is undefined are
    skipped and counted; if no point survives, AllPointsSkippedError.
    """
    points = PointCloud.of(V.chart, points)
    target = V.components_at(points)
    coeffs, residuals, notes = _expand_rows(_basis_stack(basis, points), target, tol)
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


def _span_condition(name, V, basis, points, tol, informative=False):
    """Span expansion as a report condition. Informative conditions
    swallow the all-points-skipped error instead of raising."""
    try:
        decomp = span_expand(V, basis, points, tol)
    except AllPointsSkippedError as exc:
        if not informative:
            raise
        cond = ConditionResult(
            name=name,
            max_residual=None,
            worst_point=None,
            skipped=len(points),
            informative=True,
            notes=(str(exc),),
        )
        return cond, None
    cond = _condition(
        name,
        decomp.residual_values(),
        points,
        informative=informative,
        notes=decomp.notes,
    )
    return cond, decomp


# ---------------------------------------------------------------------------
# Poisson pair / automorphism / compatibility


def check_poisson_pair(X: VectorField, Y: VectorField, cfg: VerifyConfig) -> CriterionReport:
    """Is X ^ Y a Poisson tensor?

    Two routes, both required: the self-Schouten bracket components must
    vanish pointwise, and [X, Y] must lie in the pointwise span of X, Y.
    """
    points = cfg.points()
    self_bracket = schouten_bb(wedge(X, Y), wedge(X, Y))
    schouten_cond = _condition(
        "self-schouten",
        _grid_values(trivector_components_at(self_bracket, points)),
        points,
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
    derivative = lie_derivative_bivector(XH, wedge(X, Y))
    lie_cond = _condition(
        "lie-derivative",
        _grid_values(bivector_components_at(derivative, points)),
        points,
    )
    span_x, _ = _span_condition(
        "bracket-x1-in-span", lie_bracket(XH, X), (X, Y), points, cfg.tol
    )
    span_y, _ = _span_condition(
        "bracket-x2-in-span", lie_bracket(XH, Y), (X, Y), points, cfg.tol
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

    Points where either wedge pair (X1, X2) or (XH, X3) degenerates are
    excluded everywhere; if none survive the check aborts.
    """
    points = cfg.points()
    mask = _independent_mask((X1, X2), points, cfg.tol) & _independent_mask(
        (XH, X3), points, cfg.tol
    )
    usable = points[mask]
    dropped = len(points) - len(usable)
    if not usable:
        raise AllPointsSkippedError(
            "degenerate wedge pair (X1, X2) or (XH, X3) at every sampled point"
        )
    notes = []
    if dropped:
        notes.append(f"dropped {dropped} point(s) with degenerate wedge pairs")

    bracket_tensor = schouten_bb(wedge(X1, X2), wedge(XH, X3))
    conditions = [
        _condition(
            "schouten",
            _grid_values(trivector_components_at(bracket_tensor, usable)),
            usable,
            extra_skipped=dropped,
        )
    ]
    named = {"x1": X1, "x2": X2, "x3": X3, "xh": XH}
    for cond_name, (a, b), basis_names in _COMPAT_SPANS:
        bracket = lie_bracket(named[a], named[b])
        basis = tuple(named[n] for n in basis_names)
        cond, _ = _span_condition(
            cond_name, bracket, basis, usable, cfg.tol, informative=True
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
    conditions = tuple(
        _condition(name, _grid_values(field.components_at(points)), points)
        for name, field in residuals
    )
    return make_report("delta", conditions, len(points), cfg.tol)


def hamiltonian_condition(
    X1: VectorField, X2: VectorField, H: ScalarExpr, cfg: VerifyConfig
) -> tuple[ScalarExpr, CriterionReport]:
    """The second-order condition X1(X2(H)) = 0; returns the expression
    and a report of its max |value| over the sampled points."""
    points = cfg.points()
    expr = X1.apply(X2.apply(H))
    cond = _condition("x1-x2-H", evaluate_at_points(expr, points), points)
    report = make_report(
        "hamiltonian-condition",
        (cond,),
        len(points),
        cfg.tol,
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
    inv1 = _condition("x1-invariance", evaluate_at_points(X1.apply(I1), points), points)
    inv2 = _condition("x2-invariance", evaluate_at_points(X2.apply(I2), points), points)
    for cond in (inv1, inv2):
        if not cond.within(cfg.tol.residual):
            raise PreconditionResidualError(cond.name, cond.max_residual or np.inf)
    commute = _condition(
        "bracket-x1-x2", _grid_values(lie_bracket(X1, X2).components_at(points)), points
    )
    H = (I1 + I2).simplified()
    expr = X1.apply(X2.apply(H))
    main = _condition("x1-x2-H", evaluate_at_points(expr, points), points)
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
    values = evaluate_at_points(h2, points)
    bad = ~np.isfinite(values) | (np.abs(values) < tol.guard_eps)
    if bad.any():
        index = int(np.argmax(bad))
        raise SingularFactorError(
            f"|X2(H)| < {tol.guard_eps:g} (or undefined) at sampled point "
            f"{points[index]}"
        )
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
            (X1, X2),
            (
                ("-C2", "neg-c2-vs-direct", (-c2).simplified()),
                ("B2", "b2-vs-direct", b2),
            ),
        ),
        (
            lie_bracket(xh, X2),
            (X1, X2),
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
                ConditionResult(cond_name, None, None, len(points), True, (str(exc),))
                for _, cond_name, _ in columns
            )
            continue
        for column, (symbol, cond_name, printed) in enumerate(columns):
            printed_values = evaluate_at_points(printed, points)
            deviation = np.abs(printed_values - decomp.coefficient_values(column))
            cond = _condition(cond_name, deviation, points, informative=True)
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
    conditions = [
        _condition(name, evaluate_at_points(expr.simplified(), points), points)
        for name, expr in residuals
    ]
    return make_report("lemma4-residuals", conditions, len(points), cfg.tol)


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
    """
    points = cfg.points()
    mask = _independent_mask((X1, X2), points, cfg.tol)
    usable = points[mask]
    dropped = len(points) - len(usable)
    if not usable:
        raise AllPointsSkippedError(
            "degenerate pair (X1, X2) at every sampled point"
        )
    notes = [f"sign convention sigma = {JACOBI_STRUCTURE_SIGN:+g}"]
    if dropped:
        notes.append(f"dropped {dropped} degenerate point(s)")

    bracket_cond = _condition(
        "bracket-plus-xh",
        _grid_values((lie_bracket(X1, X2) + XH).components_at(usable)),
        usable,
        extra_skipped=dropped,
    )
    span1, decomp1 = _span_condition(
        "bracket-xh-x1-in-span", lie_bracket(XH, X1), (X1, X2), usable, cfg.tol
    )
    span2, decomp2 = _span_condition(
        "bracket-xh-x2-in-span", lie_bracket(XH, X2), (X1, X2), usable, cfg.tol
    )
    if decomp1 is not None and decomp2 is not None:
        trace = decomp1.coefficient_values(0) + decomp2.coefficient_values(1)
        trace_cond = _condition("automorphism-trace", np.abs(trace), usable)
    else:
        trace_cond = ConditionResult(
            "automorphism-trace", None, None, len(usable), False,
            ("span expansion unavailable",),
        )

    lam = wedge(X1, X2)
    residual_tensor = schouten_bb(lam, lam) - wedge3(
        XH, X1, X2, 2.0 * JACOBI_STRUCTURE_SIGN
    )
    direct_cond = _condition(
        "schouten-identity",
        _grid_values(trivector_components_at(residual_tensor, usable)),
        usable,
        extra_skipped=dropped,
    )
    invariance_cond = _condition(
        "invariance",
        _grid_values(
            bivector_components_at(lie_derivative_bivector(XH, lam), usable)
        ),
        usable,
        extra_skipped=dropped,
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
    algebra = _condition(
        "bracket-x3-x1-minus-x1",
        _grid_values((lie_bracket(X3, X1) - X1).components_at(points)),
        points,
    )
    if not algebra.within(cfg.tol.residual):
        raise PreconditionResidualError(
            "[X3,X1] = X1", algebra.max_residual or np.inf
        )
    invariance = _condition(
        "x1-H", evaluate_at_points(X1.apply(H), points), points
    )
    if not invariance.within(cfg.tol.residual):
        raise PreconditionResidualError(
            "X1(H) = 0", invariance.max_residual or np.inf
        )
    rho = X3.apply(H)
    main = _condition("x1-rho", evaluate_at_points(X1.apply(rho), points), points)
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
    residuals = realization.residual_expressions(P)
    conditions = [
        _condition(f"candidate-eq-{i + 1}", evaluate_at_points(expr, points), points)
        for i, expr in enumerate(residuals)
    ]
    return make_report("linear-realization", conditions, len(points), cfg.tol)
