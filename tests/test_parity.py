"""Array code against the per-point loops it replaced.

The references below are the sequential implementations: the sampler
drew one candidate at a time and tested it alone (``_passes_guards``,
a one-row guard mask), and span expansion and the independence test
ran one SVD (and one lstsq) per point. The batched versions must give bit-identical
points and identical skip decisions and notes; least-squares
coefficients come from another factorisation, so they are compared
within 1e-12 in units of each system's condition number times the size
of its solution.
"""
import numpy as np
import pytest

import qbhkit as qk
from qbhkit.chart import Point
from qbhkit.criteria import _expand_rows, _independent_rows
from qbhkit.sampling import _REJECTION_BUDGET, _passes_guards

from helpers import rotation_cfg

CHART = qk.CoordinateChart(("x1", "x2", "x3"))
TOL = qk.ToleranceConfig()


# ---------------------------------------------------------------------------
# sampling


def sequential_sample_points(domain):
    """One candidate per draw, each tested alone."""
    rng = np.random.default_rng(domain.seed)
    lows = np.array([lo for lo, _ in domain.box])
    highs = np.array([hi for _, hi in domain.box])
    points = []
    attempts = 0
    budget = _REJECTION_BUDGET * domain.samples
    while len(points) < domain.samples:
        if attempts >= budget:
            raise qk.GuardTooRestrictiveError(
                f"rejected {attempts} candidate points while looking for "
                f"{domain.samples}; guards are too restrictive for the box"
            )
        attempts += 1
        point = Point(domain.chart, tuple(rng.uniform(lows, highs)))
        if _passes_guards(point, domain.guards):
            points.append(point)
    return points


def guard(text, min_abs=None):
    return qk.Guard(qk.parse_expression(text, CHART), min_abs)


def rotation_domain(samples, seed):
    return rotation_cfg(samples=samples, seed=seed)[4].domain


def cube(guards, samples, seed, lo=0.0, hi=1.0):
    return qk.SampleDomain.cube(CHART, lo, hi, guards=guards, samples=samples, seed=seed)


DOMAINS = {
    "no-guard": lambda: cube((), 300, 11, -1.0, 1.0),
    "rotation-guard": lambda: rotation_domain(300, 42),
    "undefined-on-half-the-box": lambda: cube((guard("sqrt(x1 - 0.5)"),), 200, 9),
    "two-guards-with-limit": lambda: cube(
        (guard("ln(x2 + 0.2)", 0.3), guard("x1 - x3", 0.1)), 150, 5
    ),
    "rare-acceptance": lambda: cube((guard("sqrt(x1 - 0.97)"),), 40, 3),
}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_sampler_matches_sequential_reference(name):
    domain = DOMAINS[name]()
    got = qk.sample_points(domain)
    want = sequential_sample_points(domain)
    assert len(got) == domain.samples
    assert [p.values for p in got] == [p.values for p in want]


@pytest.mark.parametrize(
    "guards, samples",
    [
        ((guard("0 * x1"),), 5),  # rejects every candidate
        ((guard("sqrt(x1 - 0.999)"),), 20),  # accepts a few, not enough
    ],
)
def test_unsatisfiable_guard_raises_like_reference(guards, samples):
    domain = cube(guards, samples, 3)
    with pytest.raises(qk.GuardTooRestrictiveError) as want:
        sequential_sample_points(domain)
    with pytest.raises(qk.GuardTooRestrictiveError) as got:
        qk.sample_points(domain)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# batched SVD and least squares


def sequential_independent(stack, tol):
    mask = np.zeros(len(stack), dtype=bool)
    for i, matrix in enumerate(stack):
        if not np.isfinite(matrix).all():
            continue
        mask[i] = np.linalg.svd(matrix, compute_uv=False)[-1] > tol.independence
    return mask


def sequential_expand(stack, target, tol):
    """(coefficients, residuals, skipped, notes) from one SVD and one
    lstsq per point."""
    coeffs = np.full((len(stack), stack.shape[2]), np.nan)
    residuals = np.full(len(stack), np.nan)
    skipped = []
    degenerate = undefined = 0
    for i, (matrix, v) in enumerate(zip(stack, target)):
        if not (np.isfinite(matrix).all() and np.isfinite(v).all()):
            undefined += 1
            skipped.append(i)
            continue
        if np.linalg.svd(matrix, compute_uv=False)[-1] <= tol.independence:
            degenerate += 1
            skipped.append(i)
            continue
        c, *_ = np.linalg.lstsq(matrix, v, rcond=None)
        coeffs[i] = c
        residuals[i] = np.linalg.norm(v - matrix @ c)
    notes = []
    if degenerate:
        notes.append(f"degenerate basis at {degenerate} point(s)")
    if undefined:
        notes.append(f"undefined expressions at {undefined} point(s)")
    return coeffs, residuals, skipped, notes


def planted_stack(rng, m, n, k):
    """Random (m, n, k) systems with some undefined rows, exactly
    rank-deficient rows, rows near the independence threshold and
    numerically rank-deficient rows that lstsq truncates."""
    stack = rng.uniform(-1.0, 1.0, size=(m, n, k))
    target = rng.uniform(-1.0, 1.0, size=(m, n))
    rows = rng.permutation(m)
    stack[rows[0:8], rng.integers(n), rng.integers(k)] = np.nan
    target[rows[8:12], rng.integers(n)] = np.nan
    if k > 1:
        # last column a multiple of the first: rank k - 1 exactly
        stack[rows[12:24], :, -1] = 2.0 * stack[rows[12:24], :, 0]
        for i, scale in zip(rows[24:40], np.geomspace(1e-11, 1e-9, 16)):
            # smallest singular value near the independence tolerance
            u, _, vh = np.linalg.svd(rng.standard_normal((n, k)), full_matrices=False)
            s = np.linspace(1.0, scale, min(n, k))
            stack[i] = (u * s) @ vh
        for i in rows[40:44]:
            # well above the tolerance, but below lstsq's relative cutoff
            u, _, vh = np.linalg.svd(rng.standard_normal((n, k)), full_matrices=False)
            s = np.linspace(1e6, 2e-10, min(n, k))
            stack[i] = (u * s) @ vh
    return stack, target


SHAPES = [(3, 2), (2, 2), (3, 3), (4, 2), (2, 3), (3, 1)]


@pytest.mark.parametrize("n, k", SHAPES)
def test_independent_rows_match_per_point_svd(n, k):
    stack, _ = planted_stack(np.random.default_rng(100 * n + k), 400, n, k)
    np.testing.assert_array_equal(
        _independent_rows(stack, TOL), sequential_independent(stack, TOL)
    )


@pytest.mark.parametrize("n, k", SHAPES)
def test_expand_rows_match_per_point_lstsq(n, k):
    stack, target = planted_stack(np.random.default_rng(10 * n + k), 400, n, k)
    want_c, want_r, want_skipped, want_notes = sequential_expand(stack, target, TOL)
    got_c, got_r, got_notes = _expand_rows(stack, target, TOL)
    assert np.flatnonzero(np.isnan(got_r)).tolist() == want_skipped
    assert got_notes == want_notes
    assert np.isnan(got_c).all(axis=1).tolist() == np.isnan(want_c).all(axis=1).tolist()
    # two backward-stable solvers may differ by about eps * cond(A) * |c|
    # (cond up to 1e10 on the rows planted near the independence
    # tolerance), so differences are measured in units of cond(A) * |c|
    ok = ~np.isnan(want_r)
    sigma = np.linalg.svd(stack[ok], compute_uv=False)
    size = np.maximum(1.0, np.abs(want_c[ok]).max(axis=1))
    scale = sigma[:, 0] / sigma[:, -1] * size
    np.testing.assert_allclose(
        got_c[ok] / scale[:, None], want_c[ok] / scale[:, None], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(got_r[ok] / scale, want_r[ok] / scale, rtol=0, atol=1e-12)


def test_span_expand_keeps_per_point_views():
    chart, x1, x2, x3, cfg = rotation_cfg(samples=50)
    bracket = qk.lie_bracket(x3, x1)
    decomp = qk.span_expand(bracket, (x1, x2), cfg.points(), cfg.tol)
    assert len(decomp.points) == len(decomp.coefficients) == len(decomp.residuals) == 50
    for i, (coeffs, residual) in enumerate(zip(decomp.coefficients, decomp.residuals)):
        assert residual == decomp.residual_values()[i]
        assert coeffs == (decomp.coefficient_values(0)[i], decomp.coefficient_values(1)[i])
    assert decomp.max_residual() == max(decomp.residuals)
