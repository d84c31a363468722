"""Component-major storage of per-point arrays moves no bit.

Per-point component arrays keep their (m, ...) shape but are stored
component-major, and their reductions over components run across
contiguous rows (see the layout note in ``qbhkit.residuals``). Every
result here must equal, bit for bit, a reference that applies the
formulas the arrays had when they were C-ordered (m, ...) arrays. A
9-coordinate chart puts the sums over components above numpy's
8-element switch to pairwise summation, where the order of a sum
depends on the layout it is handed; a 3-coordinate chart stays below it
and also carries a pair whose products overflow. Span residuals are
summed in component order on every chart and for every number of
fields; their reference takes the same order on C-ordered rows. The
Jacobi sweep's sums of components times minors have the bits of a
reference that reads the full trivector, and stay within a rounding
bound of a dense einsum over all its entries.
"""
import functools
from itertools import combinations
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

import qbhkit as qk
import qbhkit.criteria as criteria
import qbhkit.fields as fields_module
import qbhkit.qbh as qbh
from qbhkit.criteria import _FactoredBasis
from qbhkit.fields import TrivectorSum, _as_bivector_sum, independent_components_at
from qbhkit.residuals import condition, values_at

from helpers import basis_columns, make_cfg, random_fields

# ---------------------------------------------------------------------------
# the reference: the formulas on C-ordered (m, ...) arrays


def ref_components(X, points):
    return np.column_stack([c.sample(points) for c in X.components])


def ref_index(n, r):
    return tuple(np.array(list(combinations(range(n), r)), int).reshape(-1, r).T)


def ref_det3(u, v, w, i, j, k):
    return (
        u[:, i] * (v[:, j] * w[:, k] - v[:, k] * w[:, j])
        - u[:, j] * (v[:, i] * w[:, k] - v[:, k] * w[:, i])
        + u[:, k] * (v[:, i] * w[:, j] - v[:, j] * w[:, i])
    )


def ref_independent(M, points):
    n = M.chart.dimension
    if isinstance(M, TrivectorSum):
        i, j, k = ref_index(n, 3)
        out = np.zeros((len(points), len(i)))
        for coeff, (U, V, W) in M.terms:
            c = coeff.sample(points)[:, None]
            u, v, w = (ref_components(F, points) for F in (U, V, W))
            with np.errstate(over="ignore", invalid="ignore"):
                out += c * ref_det3(u, v, w, i, j, k)
        return out, None
    B = _as_bivector_sum(M)
    i, j = ref_index(n, 2)
    out = np.zeros((len(points), len(i)))
    diagonal = np.zeros((len(points), n))
    for coeff, biv in B.terms:
        c = coeff.sample(points)[:, None]
        u = ref_components(biv.left, points)
        v = ref_components(biv.right, points)
        with np.errstate(over="ignore", invalid="ignore"):
            out += c * (u[:, i] * v[:, j] - u[:, j] * v[:, i])
            diagonal += c * (u * v - u * v)
    return out, diagonal


def ref_bivector_components(B, points):
    upper, diagonal = ref_independent(B, points)
    m, n = diagonal.shape
    i, j = ref_index(n, 2)
    out = np.empty((m, n, n))
    out[:, i, j] = upper
    out[:, j, i] = 0.0 - upper
    out[:, range(n), range(n)] = diagonal
    return out


def ref_trivector_components(T, points):
    d, _ = ref_independent(T, points)
    n = T.chart.dimension
    i, j, k = ref_index(n, 3)
    out = np.zeros((len(d), n, n, n))
    out[:, i, j, k] = out[:, j, k, i] = out[:, k, i, j] = d
    out[:, j, i, k] = out[:, i, k, j] = out[:, k, j, i] = 0.0 - d
    return out


def ref_grid_values(arr):
    flat = arr.reshape(arr.shape[0], -1)
    bad = ~np.isfinite(flat).all(axis=1)
    values = np.max(np.abs(flat), axis=1, initial=0.0)
    values[bad] = np.nan
    return values


def ref_values_at(residual, points):
    if isinstance(residual, qk.VectorField):
        return ref_grid_values(ref_components(residual, points))
    components, diagonal = ref_independent(residual, points)
    values = ref_grid_values(components)
    if diagonal is not None:
        values[~np.isfinite(diagonal).all(axis=1)] = np.nan
    return values


def ref_factored(fields, points, tol):
    stack = np.stack([ref_components(X, points) for X in fields], axis=-1)
    return ref_basis(stack, tol)


def ref_basis(stack, tol):
    """The factored basis of a C-ordered (m, n, k) stack."""
    n, k = stack.shape[1:]
    defined = np.isfinite(stack).all(axis=(1, 2))
    smallest = np.full(len(stack), np.nan)
    settled = np.zeros(len(stack), bool)
    factors = None
    if k == 2 and 2 <= n <= criteria._CLOSED_FORM_MAX_N:
        columns = map(np.ascontiguousarray, basis_columns(stack))
        smallest, band, factors = criteria._two_column_factor(*columns)
        with np.errstate(invalid="ignore"):
            settled = defined & (np.abs(smallest - tol.independence) > band)
    singular = criteria._singular_values(basis_columns(stack), defined & ~settled)
    smallest[~settled] = singular[~settled]
    return SimpleNamespace(
        stack=stack,
        defined=defined,
        smallest=smallest,
        settled=settled,
        factors=factors,
        independent=defined & (smallest > tol.independence),
    )


def ref_in_order_norms(rows):
    """The norm of each C-ordered (m, n) row, its squares added one
    component after another; a norm whose squares overflowed is
    recomputed from its row scaled by a power of two."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(functools.reduce(np.add, (rows * rows).T))
    redo = norms == np.inf
    if redo.any():
        huge = rows[redo]
        exponent = np.frexp(np.abs(huge).max(axis=1))[1]
        scaled = ref_in_order_norms(np.ldexp(huge, -exponent[:, None]))
        norms[redo] = np.ldexp(scaled, exponent)
    return norms


def ref_span(V, fields, points, tol):
    """(coefficients, residuals) of the expansion of V in ``fields``."""
    basis = ref_factored(fields, points, tol)
    return ref_expand(basis, ref_components(V, points))


def ref_expand(basis, target):
    """(coefficients, residuals) of the expansion of the C-ordered (m, n)
    ``target`` in ``basis``, a ``ref_basis``."""
    stack = basis.stack
    defined = basis.defined & np.isfinite(target).all(axis=1)
    solvable = defined & basis.independent
    closed = solvable & basis.settled
    coeffs = np.full((len(stack), stack.shape[2]), np.nan)
    if closed.any():
        solved = criteria._two_column_solve(basis.factors, target)
        coeffs = np.where(closed[:, None], solved, np.nan)
    rest = solvable & ~closed
    if rest.any():
        coeffs[rest] = criteria._least_squares(stack[rest], target[rest])
    products = (stack[:, :, j] * coeffs[:, j, None] for j in range(stack.shape[2]))
    with np.errstate(all="ignore"):
        fitted = functools.reduce(np.add, products)
    return coeffs, ref_in_order_norms(target - fitted)


def ref_gradient(f, points):
    return np.column_stack([f.diff(name).sample(points) for name in f.chart.names])


def ref_composite_trivector(B, points):
    """The full (m, n, n, n) [[B,B]] the sweep contracts."""
    B = _as_bivector_sum(B)
    wedges = [qk.wedge(biv.left.scaled(c), biv.right) for c, biv in B.terms]
    tensor = TrivectorSum.zero(B.chart)
    for a in wedges:
        for b in wedges:
            tensor = tensor + qk.schouten_bb(a, b)
    return ref_trivector_components(tensor, points)


def ref_cyclic_sums(B, triples, points):
    """jacobi_identity_check's per-point values: per triple, the entries
    T^{ijk}, i < j < k, of the full [[B,B]] times the determinants of
    the gradients' columns i, j, k, added in ``combinations`` order."""
    T = ref_composite_trivector(B, points)
    n = T.shape[1]
    rows = []
    for F, G, K in triples:
        u, v, w = (ref_gradient(f, points) for f in (F, G, K))
        total = np.zeros(len(points))
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j, k in combinations(range(n), 3):
                det = (
                    u[:, i] * (v[:, j] * w[:, k] - v[:, k] * w[:, j])
                    - u[:, j] * (v[:, i] * w[:, k] - v[:, k] * w[:, i])
                    + u[:, k] * (v[:, i] * w[:, j] - v[:, j] * w[:, i])
                )
                total += T[:, i, j, k] * det
        defined = np.isfinite(np.hstack([u, v, w])).all(axis=1)
        rows.append(np.where(defined, -0.5 * total, np.nan))
    defined = np.isfinite(ref_values_at(B, points))
    return np.where(defined, np.abs(np.vstack(rows)).max(axis=0), np.nan)


def einsum_cyclic_sums(B, triples, points):
    """(values, bounds): the per-point values of the sweep with each
    cyclic sum taken as ``np.einsum("mijk,mi,mj,mk->m", ...)`` over all
    n^3 entries of the full [[B,B]], and a bound on their distance from
    the sweep's values at each point where both are finite.

    A cyclic sum is -1/2 of a sum of the n(n-1)(n-2) products
    T^{ijk} dF_i dG_j dK_k with distinct indices. Each product passes
    through at most n^3 + 2 roundings in einsum (3 multiplications, the
    n^3 - 1 additions) and C(n,3) + 5 in the sweep (2 multiplications
    and 3 additions in a minor, the factor T, the C(n,3) - 1 additions
    over the components). By recursive summation (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 4.2), the two
    differ by at most (gamma_{n^3+2} + gamma_{C(n,3)+5}) times
    1/2 sum |T^{ijk} dF_i dG_j dK_k|, with gamma_r = r u / (1 - r u)
    and u = eps / 2. The bound taken, (n^3 + C(n,3) + 8) eps times the
    sum of magnitudes, is larger than that; the maximum over triples
    moves a value by no more than the largest of the triples' bounds."""
    T = ref_composite_trivector(B, points)
    n = T.shape[1]
    factor = (n**3 + comb(n, 3) + 8) * np.finfo(float).eps
    values, bounds = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for F, G, K in triples:
            dF, dG, dK = (ref_gradient(f, points) for f in (F, G, K))
            values.append(-0.5 * np.einsum("mijk,mi,mj,mk->m", T, dF, dG, dK))
            magnitude = np.einsum(
                "mijk,mi,mj,mk->m", np.abs(T), np.abs(dF), np.abs(dG), np.abs(dK)
            )
            bounds.append(factor * magnitude)
    defined = np.isfinite(ref_values_at(B, points))
    values = np.where(defined, np.abs(np.vstack(values)).max(axis=0), np.nan)
    return values, np.vstack(bounds).max(axis=0)


# ---------------------------------------------------------------------------
# problems


def layout_problem(case):
    """(cfg, fields X, Y, Z, W, coefficient, test functions) on a
    3-coordinate chart, or on one of as many coordinates as ``case``
    names. X has a component sqrt(x1) + xn, undefined at about half of
    the points. In the "overflow" case X, Y and the coefficient have a
    component exp(700 x1), finite on the box, whose products overflow
    where x1 > 0.507."""
    n = int(case) if case.isdigit() else 3
    names = tuple(f"x{i}" for i in range(1, n + 1))
    chart = qk.CoordinateChart(names)
    cfg = make_cfg(chart, samples=300, seed=11 + n)
    rng = np.random.default_rng(5 + n)
    X, Y, Z, W = random_fields(chart, rng, degree=1 if n > 3 else 2, count=4)
    coeff = qk.random_polynomial(chart, rng, degree=1)
    root = qk.parse_expression(f"sqrt(x1) + {names[-1]}", chart)
    X = qk.VectorField(chart, (X.components[0], root) + X.components[2:])
    if case == "overflow":
        huge = qk.parse_expression("exp(700 * x1)", chart)
        X = qk.VectorField(chart, (huge,) + X.components[1:])
        Y = qk.VectorField(chart, (huge,) + Y.components[1:])
        coeff = (coeff * huge).simplified()
    triples = [
        tuple(qk.random_polynomial(chart, rng, degree=2) for _ in range(3))
        for _ in range(2)
    ]
    return cfg, (X, Y, Z, W), coeff, triples


CASES = ("3", "9", "overflow")


def residual_kinds(fields, coeff):
    X, Y, Z, W = fields
    chart = X.chart
    bivectors = qk.BivectorSum(
        chart, ((coeff, qk.wedge(X, Y)), (chart.constant(2.0), qk.wedge(Z, W)))
    )
    trivectors = qk.TrivectorSum(
        chart,
        ((coeff, (X, Y, Z)), (chart.constant(-1.5), (Y, Z, W)), (coeff, (W, X, Y))),
    )
    return {
        "field": X,
        "bracket": qk.lie_bracket(Y, Z),
        "bivector-sum": bivectors,
        "trivector-sum": trivectors,
    }


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("case", CASES)
def test_values_and_conditions_match_the_reference(case):
    cfg, fields, coeff, _ = layout_problem(case)
    points = cfg.points()
    masks = [np.ones(len(points), bool)]
    masks += [np.random.default_rng(s).random(len(points)) < 0.7 for s in (1, 2)]
    for name, residual in residual_kinds(fields, coeff).items():
        want = ref_values_at(residual, points)
        assert_same_bits(values_at(residual, points), want)
        if name != "bracket":
            assert np.isnan(want).any(), name
        for usable in masks:
            assert condition(name, residual, points, usable=usable) == condition(
                name, want, points, usable=usable
            )


@pytest.mark.parametrize("case", CASES)
def test_multivector_components_match_the_reference(case):
    cfg, fields, coeff, _ = layout_problem(case)
    points = cfg.points()
    kinds = residual_kinds(fields, coeff)
    B, T = kinds["bivector-sum"], kinds["trivector-sum"]
    assert_same_bits(qk.bivector_components_at(B, points), ref_bivector_components(B, points))
    got = qk.trivector_components_at(T, points)
    assert got.flags.c_contiguous
    assert_same_bits(got, ref_trivector_components(T, points))
    assert_same_bits(fields[0].components_at(points), ref_components(fields[0], points))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("k", [2, 3])
def test_factored_bases_match_the_reference(case, k):
    cfg, (X, Y, Z, W), _, _ = layout_problem(case)
    points = cfg.points()
    basis = (X, Y, Z)[:k]
    got = _FactoredBasis.of(basis, points, cfg.tol)
    want = ref_factored(basis, points, cfg.tol)
    # the basis holds its fields' rows as the cloud holds them
    cloud = qk.PointCloud.of(X.chart, points)
    for column, X_j, want_column in zip(got.columns, basis, basis_columns(want.stack)):
        assert column is fields_module.component_rows(X_j, cloud)
        assert_same_bits(column, want_column)
    for name in ("defined", "smallest", "settled", "independent"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    assert want.independent.any() and not want.defined.all()


@pytest.mark.parametrize("case", CASES + ("7", "8"))
@pytest.mark.parametrize("k", [2, 3])
def test_span_expansions_match_the_reference(case, k):
    cfg, (X, Y, Z, W), _, _ = layout_problem(case)
    points = cfg.points()
    tol = cfg.tol
    for target, basis in ((X, (Y, Z, W)[:k]), (W, (X, Y, Z)[:k])):
        got = criteria.span_expand(target, basis, points, tol)
        coeffs, residuals = ref_span(target, basis, points, tol)
        assert_same_bits(got.coefficient_array, coeffs)
        assert_same_bits(got.residual_array, residuals)
        assert np.isnan(residuals).any() and not np.isnan(residuals).all()
        if case in ("7", "8", "9"):
            # no residual vanishes, so the order of every sum shows
            assert np.nanmin(residuals) > 0


def sweep_values(monkeypatch, B, triples, cfg):
    """jacobi_identity_check's per-point values and its report."""
    seen = []

    def recording_condition(name, residual, *args, **kwargs):
        seen.append(residual)
        return condition(name, residual, *args, **kwargs)

    monkeypatch.setattr(qbh, "condition", recording_condition)
    report = qbh.jacobi_identity_check(B, triples, cfg)
    (got,) = seen
    return got, report


@pytest.mark.parametrize("case", CASES)
def test_jacobi_identity_check_matches_the_reference(case, monkeypatch):
    cfg, fields, coeff, triples = layout_problem(case)
    points = cfg.points()
    B = residual_kinds(fields, coeff)["bivector-sum"]
    got, report = sweep_values(monkeypatch, B, triples, cfg)
    want = ref_cyclic_sums(B, triples, points)
    assert_same_bits(got, want)
    assert report.conditions == (condition("cyclic-sum", want, points),)
    assert np.isfinite(want).any()


def assert_near_the_einsum(B, triples, points, got):
    """``got`` is finite where the dense einsum is, and within its
    bound there (see ``einsum_cyclic_sums``)."""
    want, bound = einsum_cyclic_sums(B, triples, points)
    finite = np.isfinite(want)
    assert_same_bits(np.isfinite(got), finite)
    assert (np.abs(got[finite] - want[finite]) <= bound[finite]).all()


@pytest.mark.parametrize("case", CASES)
def test_jacobi_identity_check_is_near_a_dense_einsum(case, monkeypatch):
    cfg, fields, coeff, triples = layout_problem(case)
    B = residual_kinds(fields, coeff)["bivector-sum"]
    got, _ = sweep_values(monkeypatch, B, triples, cfg)
    assert_near_the_einsum(B, triples, cfg.points(), got)


def contraction_problem(n, samples):
    """(B, triple sets, cfg) on n coordinates. One test function, in
    each place of a triple, is undefined where x1 < 0; products with
    the gradient of exp(700 x1), about 7e306 at x1 = 1, overflow. Each
    triple comes alone too, so that no triple's NaN hides another's."""
    chart = qk.CoordinateChart(tuple(f"x{i}" for i in range(1, n + 1)))
    rng = np.random.default_rng(20 + n)
    fields = random_fields(chart, rng, degree=1 if n > 3 else 2, count=4)
    coeff = qk.random_polynomial(chart, rng, degree=1)
    B = residual_kinds(fields, coeff)["bivector-sum"]
    p, q, r = (qk.random_polynomial(chart, rng, degree=2) for _ in range(3))
    root = qk.parse_expression(f"sqrt(x1) + {chart.names[-1]}", chart)
    huge = qk.parse_expression("exp(700 * x1)", chart)
    triples = [(p, q, r), (root, p, huge), (huge, huge, q), (q, root, r), (r, p, root)]
    cfg = make_cfg(chart, samples=samples, seed=40 + n)
    return B, [triples] + [[triple] for triple in triples], cfg


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("samples", [1, 7, 200])
def test_the_contraction_sums_minors_in_combinations_order(n, samples, monkeypatch):
    """The sweep adds T^{ijk} det[dF, dG, dK]_{ijk} over i < j < k in
    ``combinations`` order, with the reference's bits."""
    B, triple_sets, cfg = contraction_problem(n, samples)
    for chosen in triple_sets:
        want = ref_cyclic_sums(B, chosen, cfg.points())
        got, report = sweep_values(monkeypatch, B, chosen, cfg)
        assert_same_bits(got, want)
        assert report.conditions == (condition("cyclic-sum", want, cfg.points()),)
    if samples == 200:
        assert np.isnan(got).any() and np.isfinite(got).any()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("samples", [1, 7, 200])
def test_the_contraction_is_near_a_dense_einsum(n, samples, monkeypatch):
    B, triple_sets, cfg = contraction_problem(n, samples)
    for chosen in triple_sets:
        got, _ = sweep_values(monkeypatch, B, chosen, cfg)
        assert_near_the_einsum(B, chosen, cfg.points(), got)


def test_the_sweep_reads_the_84_independent_components_on_9_coordinates(monkeypatch):
    """On 9 coordinates the sweep contracts the C(9,3) = 84 components
    i < j < k of [[B,B]], not the 9^3 entries of the full array, which
    it never builds; no einsum runs."""
    cfg, fields, coeff, triples = layout_problem("9")
    B = residual_kinds(fields, coeff)["bivector-sum"]
    want = ref_cyclic_sums(B, triples, cfg.points())
    read = []

    def recording(tensor, points):
        components, diagonal = independent_components_at(tensor, points)
        read.append(components.shape)
        return components, diagonal

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a full array or ran an einsum")

    monkeypatch.setattr(qbh, "independent_components_at", recording)
    monkeypatch.setattr(fields_module, "trivector_components_at", refuse)
    monkeypatch.setattr(qk, "trivector_components_at", refuse)
    monkeypatch.setattr(np, "einsum", refuse)
    got, _ = sweep_values(monkeypatch, B, triples, cfg)
    assert_same_bits(got, want)
    assert read == [(len(cfg.points()), 84)]


# ---------------------------------------------------------------------------
# planted span systems


def planted_systems(n, m=600, seed=0):
    """C-ordered (m, n, 2) stacks and (m, n) targets: rows whose smallest
    singular value lies within 1e-13 of the independence tolerance, so
    the closed form leaves them to LAPACK; rows whose residual is about
    2^600, so its sum of squares overflows; undefined entries; exactly
    dependent columns; and well-conditioned rows."""
    rng = np.random.default_rng(seed + n)
    tol = qk.ToleranceConfig()
    stack = rng.uniform(-1.0, 1.0, size=(m, n, 2))
    target = rng.uniform(-1.0, 1.0, size=(m, n))
    for i in range(40):
        u, _, vh = np.linalg.svd(rng.standard_normal((n, 2)), full_matrices=False)
        smallest = tol.independence * (1 + rng.uniform(-1e-13, 1e-13))
        stack[i] = (u * [10 ** rng.uniform(-1, 1), smallest]) @ vh
    target[40:80] = np.ldexp(target[40:80], 600)
    stack[80:84, rng.integers(n), 0] = np.nan
    target[84:88, rng.integers(n)] = np.inf
    stack[88:100, :, 1] = 2.0 * stack[88:100, :, 0]
    return stack, target, tol


def component_major(arr):
    """``arr`` with its shape, stored as the transposed view of a
    C-ordered array, as the library stores per-point arrays."""
    return np.ascontiguousarray(arr.T).T


@pytest.mark.parametrize("layout", ["component-major", "C-ordered"])
@pytest.mark.parametrize("n", [2, 3, 7, 8, 9])
def test_planted_two_column_expansions_match_the_reference(n, layout):
    """Rows solved by LAPACK and residuals rescaled after their squares
    overflowed, on either layout."""
    stack, target, tol = planted_systems(n)
    want = ref_basis(stack, tol)
    want_c, want_r = ref_expand(want, target)
    if layout == "component-major":
        stack, target = component_major(stack), component_major(target)
    columns = basis_columns(stack)
    basis = _FactoredBasis(columns, tol)
    # a column handed in another layout is copied once into C order
    copied = [mine is not given for mine, given in zip(basis.columns, columns)]
    assert copied == [layout == "C-ordered"] * 2
    coeffs, residuals, notes = criteria._expand_rows(basis, target)
    assert_same_bits(coeffs, want_c)
    assert_same_bits(residuals, want_r)
    # LAPACK solves some rows, the closed form others
    rest = basis.independent & ~basis.settled
    assert rest.any() and (basis.independent & basis.settled).any()
    assert np.isfinite(residuals[rest]).all()
    # some residuals are finite only thanks to the rescale
    assert np.nanmax(residuals) > np.sqrt(np.finfo(float).max)
    defined = want.defined & np.isfinite(target).all(axis=1)
    assert notes == [
        f"degenerate basis at {(defined & ~want.independent).sum()} point(s)",
        "undefined expressions at 8 point(s)",
    ]
