"""Algebraic criteria: span expansion, Poisson/automorphism/compatibility
checks, the structure-coefficient machinery, Jacobi structures, the
first-order reduction, and linear realizations."""
import dataclasses
import functools
import math

import numpy as np
import pytest

import qbhkit as qk
from qbhkit.criteria import _FactoredBasis

from helpers import (
    exp_cfg,
    exp_triple,
    fresh_runs,
    make_cfg,
    non_poisson_pair,
    rotation_cfg,
    rotation_triple,
)


# ---------------------------------------------------------------------------
# span_expand


def test_span_recovers_basis_element():
    chart, x1, x2, x3, cfg = exp_cfg()
    points = cfg.points()
    decomp = qk.span_expand(x1, (x1, x2), points, cfg.tol)
    for coeffs, residual in zip(decomp.coefficients, decomp.residuals):
        assert coeffs == pytest.approx((1.0, 0.0), abs=1e-12)
        assert residual <= 1e-12


def test_span_exp_bracket_coefficients():
    chart, x1, x2, x3, cfg = exp_cfg()
    points = cfg.points()
    bracket = qk.lie_bracket(x3, x1)
    decomp = qk.span_expand(bracket, (x1, x2), points, cfg.tol)
    for coeffs, residual in zip(decomp.coefficients, decomp.residuals):
        assert coeffs == pytest.approx((1.0, -1.0), abs=1e-12)
        assert residual <= 1e-12


def test_span_orthogonal_direction_residual_one():
    chart = qk.CoordinateChart(("x", "y", "z"))
    cfg = make_cfg(chart, samples=20, seed=5)
    points = cfg.points()
    decomp = qk.span_expand(
        qk.coordinate_field(chart, "z"),
        (qk.coordinate_field(chart, "x"), qk.coordinate_field(chart, "y")),
        points,
        cfg.tol,
    )
    for residual in decomp.residuals:
        assert residual == pytest.approx(1.0, abs=1e-12)


def test_span_reconstruction_identity():
    # |V(p) - sum c_i basis_i(p)| equals the reported residual
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(3)
    V = qk.VectorField(
        chart, tuple(qk.random_polynomial(chart, rng, degree=2) for _ in range(3))
    )
    basis = (qk.coordinate_field(chart, "x"), qk.coordinate_field(chart, "y"))
    cfg = make_cfg(chart, samples=15, seed=6)
    points = cfg.points()
    decomp = qk.span_expand(V, basis, points, cfg.tol)
    for p, coeffs, residual in zip(points, decomp.coefficients, decomp.residuals):
        recon = V.at(p) - sum(
            c * b.at(p) for c, b in zip(coeffs, basis)
        )
        assert np.linalg.norm(recon) == pytest.approx(residual, abs=1e-12)


def test_span_all_points_degenerate_raises():
    chart = qk.CoordinateChart(("x", "y", "z"))
    cfg = make_cfg(chart, samples=10, seed=7)
    with pytest.raises(qk.AllPointsSkippedError):
        qk.span_expand(
            qk.coordinate_field(chart, "x"),
            (qk.coordinate_field(chart, "y"), qk.zero_field(chart)),
            cfg.points(),
            cfg.tol,
        )


def test_span_skips_individual_degenerate_points():
    chart = qk.CoordinateChart(("x", "y"))
    # basis (d/dx, x d/dy) degenerates exactly at x = 0
    basis = (
        qk.coordinate_field(chart, "x"),
        qk.VectorField.from_mapping(chart, {"y": chart.coordinate("x")}),
    )
    points = [chart.point(0.0, 0.3), chart.point(1.0, 0.5), chart.point(2.0, -1.0)]
    decomp = qk.span_expand(
        qk.coordinate_field(chart, "y"), basis, points, qk.ToleranceConfig()
    )
    assert decomp.skipped == (0,)
    assert decomp.coefficients[0] is None
    assert decomp.residuals[1] <= 1e-12


def _span_fields():
    """A cloud and fields on it: (d/dx, half) is degenerate where
    x <= 0, root is undefined where y < 0, poly is defined everywhere."""
    chart = qk.CoordinateChart(("x", "y", "z"))
    cfg = make_cfg(chart, samples=200, seed=13)

    def e(text):
        return qk.parse_expression(text, chart)

    fields = {
        "dx": qk.coordinate_field(chart, "x"),
        "half": qk.VectorField.from_mapping(chart, {"y": e("x + sqrt(x^2)")}),
        "root": qk.VectorField(chart, (e("z"), e("1 + sqrt(y)"), e("x * y"))),
        "poly": qk.VectorField(chart, (e("x * z - 1"), e("y^2"), e("2 + x"))),
    }
    return cfg, fields


@pytest.mark.parametrize(
    "names",
    [
        ("dx", "half"),
        ("dx", "root"),
        ("poly", "root"),
        ("dx", "poly", "root"),
        ("poly",),
    ],
)
def test_span_expand_in_a_factored_basis_is_that_in_its_fields(names):
    cfg, fields = _span_fields()
    points = cfg.points()
    basis = tuple(fields[n] for n in names)
    factored = _FactoredBasis.of(basis, points, cfg.tol)
    for V in (*fields.values(), qk.lie_bracket(fields["poly"], fields["root"])):
        got = qk.span_expand(V, factored, points, cfg.tol)
        want = qk.span_expand(V, basis, points, cfg.tol)
        assert got.coefficient_array.tobytes() == want.coefficient_array.tobytes()
        assert got.residual_array.tobytes() == want.residual_array.tobytes()
        assert (got.skipped, got.notes) == (want.skipped, want.notes)


def test_span_expand_in_a_basis_degenerate_everywhere_raises_either_way():
    cfg, fields = _span_fields()
    points = cfg.points()
    basis = (fields["dx"], fields["dx"].scaled(2.0))
    factored = _FactoredBasis.of(basis, points, cfg.tol)
    with pytest.raises(qk.AllPointsSkippedError) as got:
        qk.span_expand(fields["poly"], factored, points, cfg.tol)
    with pytest.raises(qk.AllPointsSkippedError) as want:
        qk.span_expand(fields["poly"], basis, points, cfg.tol)
    assert str(got.value) == str(want.value)


# (span bases factored, span expansions) in one `example run`: the checks
# factor each basis once per point cloud, shared by every check that
# spans the same fields on it, and expand every bracket in it
DECISIONS = {
    "exp-realization": (4, 9),
    "rotation": (4, 9),
    "so3-jacobi": (1, 2),
    "heisenberg-jacobi": (1, 2),
    "linear-abelian": (0, 0),
    "hojman-2d": (0, 0),
}


# component rows materialized in one `example run`: one per distinct
# field per cloud, however many checks read it
ROWS = {
    "exp-realization": 6,
    "rotation": 10,
    "so3-jacobi": 6,
    "heisenberg-jacobi": 5,
    "linear-abelian": 2,
    "hojman-2d": 1,
}


# (node derivatives built by ``expr._ndiff``, composite values computed
# by ``expr._combine``) in one `example run` in a fresh interpreter:
# interning, the derivative caches, the cloud's value cache and the
# Jacobi sweep's term-wise gradients keep these down, so a change that
# loses a share of them changes a count. Rotation at 5 000 samples
# evaluates more composites, factors more bases and materializes more
# rows than at 200, because its cloud reaches ``MAX_CACHED_VALUES``.
NODE_WORK = {
    "exp-realization": (77, 5),
    "rotation": (84, 69),
    "so3-jacobi": (30, 3),
    "heisenberg-jacobi": (16, 0),
    "linear-abelian": (15, 16),
    "hojman-2d": (14, 0),
}
# (node derivatives, composite evaluations, bases factored, rows
# materialized)
ROTATION_5K_WORK = (84, 97, 6, 21)


def example_argv(name, *options):
    return ["example", "run", name, "--format", "json", *options]


@functools.cache
def fresh_counts(name):
    """What tests/fresh_runs.py counts for two default runs of fixture
    ``name``, one after the other, in a fresh interpreter: interned
    nodes are shared with whatever trees this process holds."""
    argv = example_argv(name)
    return fresh_runs([argv, argv])


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_each_span_basis_is_factored_once_per_cloud(name):
    for run in fresh_counts(name)["runs"]:
        assert tuple(run[3:5]) == DECISIONS[name]


@pytest.mark.parametrize("name", sorted(ROWS))
def test_each_field_is_materialized_once_per_cloud(name):
    for run in fresh_counts(name)["runs"]:
        assert run[5] == ROWS[name]


@pytest.mark.parametrize("name", sorted(NODE_WORK))
def test_each_run_differentiates_and_evaluates_a_fixed_number_of_nodes(name):
    # no node of a run outlives it, so a second run evaluates as many
    # composites; it may build fewer derivatives, those of ZERO and
    # ONE, which every tree shares
    counts = fresh_counts(name)
    (first, combined, live, *_), (_, again, live_again, *_) = counts["runs"]
    assert (first, combined) == NODE_WORK[name]
    assert again == combined
    assert live == live_again == counts["live_before"]


def test_rotation_at_5000_samples_does_a_fixed_amount_of_node_work():
    argv = example_argv("rotation", "--samples", "5000")
    (run,) = fresh_runs([argv])["runs"]
    derivatives, evaluations, _, bases, _, rows = run
    assert (derivatives, evaluations, bases, rows) == ROTATION_5K_WORK


# ---------------------------------------------------------------------------
# check_poisson_pair


def test_poisson_pair_rotation_passes():
    chart, x1, x2, x3, cfg = rotation_cfg()
    report = qk.check_poisson_pair(x1, x2, cfg)
    assert report.passed


def test_poisson_pair_exp_passes_exactly():
    chart, x1, x2, x3, cfg = exp_cfg()
    report = qk.check_poisson_pair(x1, x2, cfg)
    assert report.passed
    assert report.condition("bracket-in-span").max_residual <= 1e-12


def test_poisson_pair_counterexample_fails_with_magnitude_two():
    chart, X, Y = non_poisson_pair()
    cfg = make_cfg(chart, samples=40, seed=11)
    report = qk.check_poisson_pair(X, Y, cfg)
    assert not report.passed
    assert report.condition("self-schouten").max_residual == pytest.approx(
        2.0, abs=1e-9
    )


# ---------------------------------------------------------------------------
# check_automorphism


def test_automorphism_exp_fixture():
    chart, x1, x2, _ = exp_triple()
    xh = qk.VectorField.from_mapping(chart, {"x": -qk.exp(chart.coordinate("z"))})
    cfg = make_cfg(chart, samples=40, seed=3)
    assert qk.check_automorphism(xh, x1, x2, cfg).passed


def test_automorphism_of_own_wedge_with_commuting_partner():
    chart = qk.CoordinateChart(("x", "y", "z"))
    X = qk.VectorField.from_mapping(chart, {"x": chart.coordinate("x")})
    Y = qk.coordinate_field(chart, "y")
    cfg = make_cfg(chart, lo=0.5, hi=1.5, samples=30, seed=4)
    assert qk.check_automorphism(X, X, Y, cfg).passed


def test_automorphism_failure_residual_is_exponential():
    chart = qk.CoordinateChart(("x", "y", "z"))
    ez = qk.VectorField.from_mapping(chart, {"x": qk.exp(chart.coordinate("z"))})
    dy = qk.coordinate_field(chart, "y")
    dz = qk.coordinate_field(chart, "z")
    cfg = make_cfg(chart, samples=30, seed=5)
    report = qk.check_automorphism(dz, ez, dy, cfg)
    assert not report.passed
    points = cfg.points()
    expected = max(math.exp(p["z"]) for p in points)
    assert report.condition("lie-derivative").max_residual == pytest.approx(
        expected, rel=1e-12
    )


# ---------------------------------------------------------------------------
# check_compatibility


def test_compatibility_exp_fixture():
    chart, x1, x2, x3, cfg = exp_cfg()
    xh = qk.contract_hamiltonian(chart.coordinate("y"), qk.wedge(x1, x2))
    report = qk.check_compatibility(x1, x2, xh, x3, cfg)
    assert report.passed
    for cond in report.conditions:
        if cond.max_residual is not None:
            assert cond.max_residual <= 1e-12


def test_compatibility_zero_x3_degenerates():
    chart, x1, x2, _, cfg = exp_cfg()
    xh = qk.contract_hamiltonian(chart.coordinate("y"), qk.wedge(x1, x2))
    with pytest.raises(qk.AllPointsSkippedError):
        qk.check_compatibility(x1, x2, xh, qk.zero_field(chart), cfg)


def test_compatibility_rotation_fixture():
    chart, x1, x2, x3, cfg = rotation_cfg()
    xh = qk.contract_hamiltonian(chart.coordinate("x3"), qk.wedge(x1, x2))
    report = qk.check_compatibility(x1, x2, xh, x3, cfg)
    assert report.passed
    assert report.condition("schouten").max_residual <= 1e-9


def test_delta_plus_hamiltonian_implies_compatibility():
    # the construction chain: delta algebra + X1(X2(H)) = 0 with nonvanishing
    # X2(H) yields compatible tensors, on both shipped realizations
    for build in (exp_cfg, rotation_cfg):
        chart, x1, x2, x3, cfg = build()
        H = chart.coordinate(chart.names[-1] if build is rotation_cfg else "y")
        assert qk.check_delta(x1, x2, x3, cfg).passed
        _, ham = qk.hamiltonian_condition(x1, x2, H, cfg)
        assert ham.passed
        xh = qk.contract_hamiltonian(H, qk.wedge(x1, x2))
        assert qk.check_compatibility(x1, x2, xh, x3, cfg).passed


# ---------------------------------------------------------------------------
# check_delta


def test_delta_exp_fixture_exact():
    chart, x1, x2, x3, cfg = exp_cfg()
    report = qk.check_delta(x1, x2, x3, cfg)
    assert report.passed
    for cond in report.conditions:
        assert cond.max_residual <= 1e-12


def test_delta_rotation_fixture():
    chart, x1, x2, x3, cfg = rotation_cfg()
    report = qk.check_delta(x1, x2, x3, cfg)
    assert report.passed


def test_delta_zero_x3_fails_with_pointwise_residual():
    chart, x1, x2, _ = rotation_triple()
    cfg = make_cfg(chart, samples=30, seed=9)
    report = qk.check_delta(x1, x2, qk.zero_field(chart), cfg)
    assert not report.passed
    points = cfg.points()
    target = x1 - x2
    expected = float(np.max(np.abs(target.components_at(points))))
    cond = report.condition("bracket-x3-x1-minus-target")
    assert cond.max_residual == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# hamiltonian_condition and separable solutions


def test_hamiltonian_condition_rotation_operator_form():
    # for the rotation pair the condition reduces to
    # x1 d^2H/dx2 dx3 - x2 d^2H/dx1 dx3
    chart, x1, x2, _ = rotation_triple()
    H = qk.parse_expression("x1^2*x3 + x2*x3^2 + x1*x2", chart)
    cfg = make_cfg(chart, samples=25, seed=10)
    expr, _ = qk.hamiltonian_condition(x1, x2, H, cfg)
    c1, c2 = chart.coordinate("x1"), chart.coordinate("x2")
    operator_form = c1 * H.diff("x2").diff("x3") - c2 * H.diff("x1").diff("x3")
    for p in cfg.points():
        assert expr.at(p) == pytest.approx(operator_form.at(p), abs=1e-10)


def test_hamiltonian_condition_exp_fixture_passes():
    chart, x1, x2, x3, cfg = exp_cfg()
    expr, report = qk.hamiltonian_condition(x1, x2, chart.coordinate("y"), cfg)
    assert expr.is_zero()
    assert report.passed


def test_hamiltonian_condition_failing_candidate():
    # H = x3*x1: the operator form gives x1 * d2H/dx2dx3 - x2 * d2H/dx1dx3
    # = -x2, nonzero away from x2 = 0, so the check fails on the annulus
    chart, x1, x2, x3, cfg = rotation_cfg()
    H = qk.parse_expression("x3 * x1", chart)
    expr, report = qk.hamiltonian_condition(x1, x2, H, cfg)
    assert not report.passed
    expected = qk.parse_expression("-x2", chart)
    for p in cfg.points()[:20]:
        assert expr.at(p) == pytest.approx(expected.at(p), abs=1e-10)


def test_separable_hamiltonian_rotation():
    chart, x1, x2, _ = rotation_triple()
    cfg = make_cfg(chart, lo=0.2, hi=1.0, samples=25, seed=11)
    I1 = qk.parse_expression("x1^2 + x2^2", chart)
    H, report = qk.separable_hamiltonian(I1, chart.constant(0.0), x1, x2, cfg)
    assert report.passed


def test_separable_hamiltonian_exp():
    chart, x1, x2, _ = exp_triple()
    cfg = make_cfg(chart, samples=25, seed=12)
    I1 = qk.parse_expression("x - y * exp(z)", chart)
    H, report = qk.separable_hamiltonian(I1, chart.constant(0.0), x1, x2, cfg)
    assert report.passed
    for p in cfg.points()[:5]:
        assert H.at(p) == pytest.approx(I1.at(p), abs=1e-12)


def test_separable_hamiltonian_invalid_invariant():
    chart, x1, x2, _ = exp_triple()
    cfg = make_cfg(chart, samples=25, seed=13)
    with pytest.raises(qk.PreconditionResidualError):
        qk.separable_hamiltonian(
            chart.coordinate("x"), chart.constant(0.0), x1, x2, cfg
        )


# ---------------------------------------------------------------------------
# structure coefficients


def delta_free(chart, x1, x2, H):
    return qk.delta_structure_functions(x1, x2, H)


def test_lemma4_exp_printed_values():
    chart, x1, x2, x3, cfg = exp_cfg()
    H = chart.coordinate("y")
    free = (chart.constant(0.0), chart.constant(-1.0), chart.constant(0.0),
            chart.constant(0.0), chart.constant(0.0))
    result = qk.lemma4_coefficients(x1, x2, x3, H, free, cfg)
    coeffs = result.coefficients
    assert coeffs.c1.is_zero()
    assert coeffs.c2.is_zero()
    assert coeffs.b2.is_zero()
    assert coeffs.n2.is_zero()
    p = cfg.points()[0]
    assert coeffs.a1.at(p) == pytest.approx(1.0, abs=1e-12)
    assert coeffs.a2.at(p) == pytest.approx(0.0, abs=1e-12)


def test_lemma4_comparison_flags_a1_sign():
    # printed A1 evaluates to +1 while the direct span expansion of
    # [XH, X3] in (XH, X3) gives -1: the discrepancy must be flagged
    chart, x1, x2, x3, cfg = exp_cfg()
    free = delta_free(chart, x1, x2, chart.coordinate("y"))
    result = qk.lemma4_coefficients(x1, x2, x3, chart.coordinate("y"), free, cfg)
    cond = result.comparison.condition("a1-vs-direct")
    assert cond.informative
    assert cond.max_residual == pytest.approx(2.0, abs=1e-9)
    assert any("A1" in note for note in result.comparison.notes)


def test_lemma4_singular_guard():
    chart, x1, x2, x3, cfg = exp_cfg()
    H = chart.coordinate("x")  # X2(H) = 0 everywhere
    free = delta_free(chart, x1, x2, chart.coordinate("y"))
    with pytest.raises(qk.SingularFactorError):
        qk.lemma4_coefficients(x1, x2, x3, H, free, cfg)


def test_lemma4_singular_guard_names_the_first_sampled_point():
    chart, x1, x2, x3, cfg = exp_cfg()
    free = delta_free(chart, x1, x2, chart.coordinate("y"))
    with pytest.raises(qk.SingularFactorError) as err:
        qk.lemma4_coefficients(x1, x2, x3, chart.coordinate("x"), free, cfg)
    assert str(err.value) == (
        f"|X2(H)| < 1e-06 (or undefined) at sampled point {cfg.points()[0]}"
    )


def test_lemma4_residuals_vanish_on_fixtures():
    for build, hname in ((exp_cfg, "y"), (rotation_cfg, "x3")):
        chart, x1, x2, x3, cfg = build()
        H = chart.coordinate(hname)
        free = delta_free(chart, x1, x2, H)
        result = qk.lemma4_coefficients(x1, x2, x3, H, free, cfg)
        report = qk.lemma4_residuals(result.coefficients, x1, x2, x3, H, cfg)
        assert report.passed
        for cond in report.conditions:
            assert cond.max_residual <= 1e-12


def test_lemma4_residuals_detect_perturbation():
    chart, x1, x2, x3, cfg = exp_cfg()
    H = chart.coordinate("y")
    free = delta_free(chart, x1, x2, H)
    coeffs = qk.lemma4_coefficients(x1, x2, x3, H, free, cfg).coefficients
    perturbed = dataclasses.replace(coeffs, c2=coeffs.c2 + 1.0)
    report = qk.lemma4_residuals(perturbed, x1, x2, x3, H, cfg)
    assert not report.passed
    assert report.condition("consistency-c2").max_residual == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# check_jacobi


def so3_fields():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    c1, c2, c3 = (chart.coordinate(n) for n in chart.names)
    x1 = qk.VectorField.from_mapping(chart, {"x2": -c3, "x3": c2})
    x2 = qk.VectorField.from_mapping(chart, {"x1": c3, "x3": -c1})
    xh = qk.VectorField.from_mapping(chart, {"x1": -c2, "x2": c1})
    return chart, x1, x2, xh


def test_jacobi_so3_passes():
    chart, x1, x2, xh = so3_fields()
    cfg = make_cfg(chart, lo=0.3, hi=1.0, samples=40, seed=14)
    report = qk.check_jacobi(x1, x2, xh, cfg)
    assert report.passed
    assert any("commutation-rule form pass: True" in n for n in report.notes)
    assert any("direct-identity form pass: True" in n for n in report.notes)


def test_jacobi_heisenberg_passes():
    chart = qk.CoordinateChart(("x", "y", "z"))
    x1 = qk.coordinate_field(chart, "x")
    x2 = qk.VectorField.from_mapping(
        chart, {"y": chart.constant(1.0), "z": chart.coordinate("x")}
    )
    xh = qk.VectorField.from_mapping(chart, {"z": chart.constant(-1.0)})
    cfg = make_cfg(chart, samples=40, seed=15)
    assert qk.check_jacobi(x1, x2, xh, cfg).passed


def test_jacobi_commuting_fields_with_zero_structure_field():
    chart = qk.CoordinateChart(("x", "y", "z"))
    cfg = make_cfg(chart, samples=30, seed=16)
    report = qk.check_jacobi(
        qk.coordinate_field(chart, "x"),
        qk.coordinate_field(chart, "y"),
        qk.zero_field(chart),
        cfg,
    )
    assert report.passed


def test_jacobi_forms_fail_together():
    chart, X, Y = non_poisson_pair()
    cfg = make_cfg(chart, samples=30, seed=17)
    report = qk.check_jacobi(X, Y, qk.zero_field(chart), cfg)
    assert not report.passed
    assert any("commutation-rule form pass: False" in n for n in report.notes)
    assert any("direct-identity form pass: False" in n for n in report.notes)


# ---------------------------------------------------------------------------
# hojman_check


def hojman_fields():
    chart = qk.CoordinateChart(("x", "y"))
    x1 = qk.coordinate_field(chart, "x")
    x3 = qk.VectorField.from_mapping(
        chart, {"x": -chart.coordinate("x"), "y": chart.constant(1.0)}
    )
    return chart, x1, x3


def test_hojman_linear_hamiltonian():
    chart, x1, x3 = hojman_fields()
    cfg = make_cfg(chart, samples=30, seed=18)
    result = qk.hojman_check(x1, x3, chart.coordinate("y"), cfg)
    assert result.report.passed
    p = chart.point(0.4, -0.7)
    assert result.rho.at(p) == pytest.approx(1.0, abs=1e-12)
    assert result.report.condition("x1-rho").max_residual <= 1e-12


def test_hojman_rejects_noninvariant_hamiltonian():
    chart, x1, x3 = hojman_fields()
    cfg = make_cfg(chart, samples=30, seed=19)
    with pytest.raises(qk.PreconditionResidualError):
        qk.hojman_check(x1, x3, chart.coordinate("x"), cfg)


def test_hojman_quadratic_hamiltonian():
    chart, x1, x3 = hojman_fields()
    cfg = make_cfg(chart, samples=30, seed=20)
    H = qk.parse_expression("y^2", chart)
    result = qk.hojman_check(x1, x3, H, cfg)
    assert result.report.passed
    p = chart.point(0.1, 0.6)
    assert result.rho.at(p) == pytest.approx(1.2, abs=1e-12)


def test_hojman_invariant_under_perturbations():
    # any X3 = -x d/dx + a(y) d/dy keeps [X3,X1] = X1, and any H = h(y)
    # keeps X1(H) = 0; the rho residual must stay within 10x tolerance
    chart, x1, _ = hojman_fields()
    rng = np.random.default_rng(23)
    cfg = make_cfg(chart, samples=25, seed=21)
    y = chart.coordinate("y")
    for _ in range(3):
        a = sum(
            (float(rng.uniform(-1, 1)) * y ** k for k in range(3)),
            chart.constant(0.0),
        )
        h = sum(
            (float(rng.uniform(-1, 1)) * y ** k for k in range(1, 4)),
            chart.constant(0.0),
        )
        x3 = qk.VectorField(chart, (-chart.coordinate("x"), a.simplified()))
        result = qk.hojman_check(x1, x3, h.simplified(), cfg)
        assert result.report.condition("x1-rho").max_residual <= 10 * cfg.tol.residual


# ---------------------------------------------------------------------------
# linear_realization


def test_linear_realization_log_candidate():
    chart = qk.CoordinateChart(("x1", "x2"))
    realization = qk.linear_realization(((1.0,),), chart)
    P = (
        qk.parse_expression("-x1 * ln(x1)", chart),
        qk.parse_expression("ln(x1)", chart),
    )
    cfg = make_cfg(chart, box=((0.5, 2.0), (-1.0, 1.0)), samples=40, seed=22)
    report = qk.check_linear_realization(realization, P, cfg)
    assert report.passed
    for cond in report.conditions:
        assert cond.max_residual <= 1e-12
    # the candidate really completes the algebra
    x3 = qk.VectorField(chart, P)
    assert qk.check_delta(
        realization.linear_field, realization.shift_field, x3, cfg
    ).passed


def test_linear_realization_zero_candidate_residuals():
    chart = qk.CoordinateChart(("x1", "x2"))
    realization = qk.linear_realization(((1.0,),), chart)
    zero = chart.constant(0.0)
    residuals = realization.residual_expressions((zero, zero))
    cfg = make_cfg(chart, box=((0.5, 2.0), (-1.0, 1.0)), samples=10, seed=23)
    for p in cfg.points():
        assert residuals[0].at(p) == pytest.approx(p["x1"], abs=1e-12)
        assert residuals[1].at(p) == pytest.approx(-1.0, abs=1e-12)


def test_linear_realization_zero_matrix_unsolvable():
    chart = qk.CoordinateChart(("x1", "x2"))
    realization = qk.linear_realization(((0.0,),), chart)
    assert realization.linear_field.is_zero()
    candidate = (chart.coordinate("x1"), chart.coordinate("x1"))
    residuals = realization.residual_expressions(candidate)
    # the last equation X_A(P_n) = 1 is unsolvable: residual is -1
    p = chart.point(1.5, 0.0)
    assert residuals[-1].at(p) == pytest.approx(-1.0, abs=1e-12)


def test_linear_realization_dimension_mismatch():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    with pytest.raises(ValueError):
        qk.linear_realization(((1.0,),), chart)
    realization = qk.linear_realization(((1.0, 0.0), (0.0, 1.0)), chart)
    with pytest.raises(ValueError):
        realization.residual_expressions((chart.constant(0.0),))


def test_linear_realization_rejects_last_coordinate_dependence():
    chart = qk.CoordinateChart(("x1", "x2"))
    realization = qk.linear_realization(((1.0,),), chart)
    with pytest.raises(ValueError):
        realization.residual_expressions(
            (chart.coordinate("x2"), chart.constant(0.0))
        )


def test_linear_realization_equivalence_fails_together():
    # a candidate violating the realization equations also fails the
    # commutation-algebra check, matching the stated equivalence
    chart = qk.CoordinateChart(("x1", "x2"))
    realization = qk.linear_realization(((1.0,),), chart)
    zero = chart.constant(0.0)
    cfg = make_cfg(chart, box=((0.5, 2.0), (-1.0, 1.0)), samples=20, seed=25)
    report = qk.check_linear_realization(realization, (zero, zero), cfg)
    assert not report.passed
    x3 = qk.zero_field(chart)
    assert not qk.check_delta(
        realization.linear_field, realization.shift_field, x3, cfg
    ).passed
