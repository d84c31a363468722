"""Quasi-bi-Hamiltonian assembly, Hamiltonian vector fields of bivector
sums, and the cyclic Jacobi-identity check."""
import numpy as np
import pytest

import qbhkit as qk
import qbhkit.expr as expr
import qbhkit.fixtures as fixtures
import qbhkit.qbh as qbh
from qbhkit.residuals import condition

from helpers import (
    exp_cfg,
    make_cfg,
    max_field_deviation,
    nested_cyclic_sums,
    non_poisson_pair,
    random_fields,
)
from test_layout import ref_cyclic_sums


def exp_system(F_text, **kwargs):
    chart, x1, x2, x3, cfg = exp_cfg(**kwargs)
    H = chart.coordinate("y")
    F = qk.parse_expression(F_text, chart)
    return chart, x1, x2, x3, H, F, cfg


# ---------------------------------------------------------------------------
# build_qbh


def test_build_exact_system():
    chart, x1, x2, x3, H, F, cfg = exp_system("y + z^2")
    system = qk.build_qbh(x1, x2, x3, H, F, cfg)
    assert system.exact
    assert not system.bi_hamiltonian
    assert system.report.passed
    points = cfg.points()
    # rho = -2z pointwise
    rho = qk.evaluate_at_points(system.rho, points)
    z = np.array([p["z"] for p in points])
    np.testing.assert_allclose(rho, -2.0 * z, atol=1e-12)
    # XF = rho * XH componentwise
    assert max_field_deviation(system.xf, system.xh.scaled(system.rho), points) <= 1e-9
    # XF = 2z e^z d/dx
    expected = qk.VectorField.from_mapping(
        chart,
        {"x": qk.parse_expression("2 * z * exp(z)", chart)},
    )
    assert max_field_deviation(system.xf, expected, points) <= 1e-12
    assert system.report.condition("xf-of-F").max_residual <= 1e-9


def test_build_bi_hamiltonian_degeneration():
    chart, x1, x2, x3, H, F, cfg = exp_system("y - z")
    system = qk.build_qbh(x1, x2, x3, H, F, cfg)
    assert system.exact
    assert system.bi_hamiltonian
    points = cfg.points()
    assert max_field_deviation(system.xf, system.xh, points) <= 1e-12
    rho = qk.evaluate_at_points(system.rho, points)
    np.testing.assert_allclose(rho, 1.0, atol=1e-12)


def test_build_rejects_vanishing_rho():
    chart, x1, x2, x3, H, F, cfg = exp_system("y")
    with pytest.raises(qk.NonVanishingRhoError):
        qk.build_qbh(x1, x2, x3, H, F, cfg)


def test_vanishing_rho_message_names_the_first_sampled_point():
    chart, x1, x2, x3, H, F, cfg = exp_system("y")
    with pytest.raises(qk.NonVanishingRhoError) as err:
        qk.build_qbh(x1, x2, x3, H, F, cfg)
    assert str(err.value) == (
        f"|rho| < 1e-06 (or undefined) at sampled point {cfg.points()[0]}"
    )


def test_build_rejects_sign_changing_rho():
    chart, x1, x2, x3, _ = exp_cfg()
    H = chart.coordinate("y")
    F = qk.parse_expression("y + z^2", chart)
    guard = qk.Guard(chart.coordinate("z"), 0.1)
    cfg = make_cfg(chart, samples=60, seed=9, guards=(guard,))  # z in [-1, 1]
    with pytest.raises(qk.NonVanishingRhoError):
        qk.build_qbh(x1, x2, x3, H, F, cfg)


def test_build_rejects_non_integral():
    chart, x1, x2, x3, H, F, cfg = exp_system("x")
    with pytest.raises(qk.NotAnIntegralError):
        qk.build_qbh(x1, x2, x3, H, F, cfg)


def test_build_inexact_still_verifies_identity():
    # with exactness not required, the contraction identity and the
    # skew consequence XF(F) = 0 still hold for a non-integral F
    chart, x1, x2, x3, H, F, cfg = exp_system("x")
    system = qk.build_qbh(x1, x2, x3, H, F, cfg, require_exact=False)
    assert not system.exact
    assert system.report.passed
    assert system.report.condition("contraction-identity").max_residual <= 1e-9
    assert system.report.condition("xf-of-F").max_residual <= 1e-9


def test_build_rejects_broken_algebra():
    chart, x1, x2, _, H, F, cfg = exp_system("y + z^2")
    with pytest.raises(qk.DeltaViolatedError):
        qk.build_qbh(x1, x2, qk.zero_field(chart), H, F, cfg)


def test_build_rejects_bad_hamiltonian():
    chart, x1, x2, x3, _, F, cfg = exp_system("y + z^2")
    # X2(x*y) = x and X1(x) = e^z, so the second-order condition fails
    H = qk.parse_expression("x * y", chart)
    with pytest.raises(qk.HamiltonianConditionViolatedError):
        qk.build_qbh(x1, x2, x3, H, F, cfg)


def test_composite_bivector_shape():
    chart, x1, x2, x3, H, F, cfg = exp_system("y + z^2")
    system = qk.build_qbh(x1, x2, x3, H, F, cfg)
    assert len(system.composite.terms) == 2


# ---------------------------------------------------------------------------
# hamiltonian_vector_field


def test_hvf_constant_hamiltonian():
    chart, x1, x2, _, _, _, _ = exp_system("y")
    system = qk.HamiltonianSystem(
        chart, qk.wedge(x1, x2).as_sum(), chart.constant(3.0)
    )
    assert qk.hamiltonian_vector_field(system).is_zero()


def test_hvf_rotation():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    c1, c2 = chart.coordinate("x1"), chart.coordinate("x2")
    x1 = qk.VectorField.from_mapping(chart, {"x1": -c2, "x2": c1})
    x2 = qk.coordinate_field(chart, "x3")
    system = qk.HamiltonianSystem(
        chart, qk.wedge(x1, x2).as_sum(), chart.coordinate("x3")
    )
    field = qk.hamiltonian_vector_field(system)
    points = make_cfg(chart, samples=15, seed=3).points()
    assert max_field_deviation(field, -x1, points) <= 1e-12


def test_hvf_linear_over_terms():
    chart, x1, x2, x3, H, F, cfg = exp_system("y + z^2")
    system = qk.build_qbh(x1, x2, x3, H, F, cfg)
    composite_system = qk.HamiltonianSystem(chart, system.composite, F)
    total = qk.hamiltonian_vector_field(composite_system)
    part1 = qk.contract_hamiltonian(F, qk.wedge(x1, x2))
    part2 = qk.contract_hamiltonian(F, qk.wedge(system.xh, x3))
    points = cfg.points()
    assert max_field_deviation(total, part1 + part2, points) <= 1e-10


# ---------------------------------------------------------------------------
# jacobi_identity_check


def test_cyclic_sum_degenerate_triple():
    chart, x1, x2, _, _, _, cfg = exp_system("y")
    B = qk.wedge(x1, x2).as_sum()
    F = qk.parse_expression("x + y*z", chart)
    report = qk.jacobi_identity_check(B, [(F, F, F)], cfg)
    assert report.passed
    assert report.condition("cyclic-sum").max_residual <= 1e-15


def test_cyclic_sum_composite_poisson():
    chart, x1, x2, x3, H, F, cfg = exp_system("y + z^2", samples=50, seed=5)
    system = qk.build_qbh(x1, x2, x3, H, F, cfg)
    rng = np.random.default_rng(71)
    triples = [
        tuple(qk.random_polynomial(chart, rng) for _ in range(3))
        for _ in range(4)
    ]
    report = qk.jacobi_identity_check(system.composite, triples, cfg)
    assert report.passed
    assert report.condition("cyclic-sum").max_residual <= 1e-9


def test_cyclic_sum_detects_non_poisson():
    chart, X, Y = non_poisson_pair()
    cfg = make_cfg(chart, samples=30, seed=6)
    coords = tuple(chart.coordinate(n) for n in chart.names)
    report = qk.jacobi_identity_check(qk.wedge(X, Y).as_sum(), [coords], cfg)
    assert not report.passed
    assert report.condition("cyclic-sum").max_residual == pytest.approx(
        1.0, abs=1e-9
    )


def test_cyclic_sum_accepts_a_decomposable_bivector():
    chart, X, Y = non_poisson_pair()
    cfg = make_cfg(chart, samples=30, seed=6)
    coords = chart.coordinates()
    single = qk.jacobi_identity_check(qk.wedge(X, Y), [coords], cfg)
    assert single == qk.jacobi_identity_check(qk.wedge(X, Y).as_sum(), [coords], cfg)


@pytest.mark.parametrize(
    "names", [("x", "y"), ("x", "y", "z"), ("x", "y", "z", "w")], ids=["2d", "3d", "4d"]
)
def test_cyclic_sum_matches_nested_brackets(names):
    # a non-Poisson sum whose ln(x) coefficient is undefined on about
    # half the box: the Schouten contraction must give the nested
    # brackets' maximum and skip the same points
    chart = qk.CoordinateChart(names)
    rng = np.random.default_rng(len(names))
    a, b, c, d = random_fields(chart, rng, degree=1, count=4)
    B = qk.wedge(a, b).as_sum(qk.ln(chart.coordinate("x"))) + qk.wedge(c, d).as_sum()
    cfg = make_cfg(chart, samples=60, seed=11)
    triples = [tuple(qk.random_polynomial(chart, rng, degree=2) for _ in range(3))]
    oracle = np.abs(nested_cyclic_sums(B, triples, cfg.points())).max(axis=0)
    defined = np.isfinite(oracle)
    cond = qk.jacobi_identity_check(B, triples, cfg).condition("cyclic-sum")
    assert 0 < cond.skipped == int((~defined).sum()) < 60
    if len(names) < 3:
        # every bivector on a 2-D chart is Poisson
        assert cond.max_residual == 0.0
        assert oracle[defined].max() <= 1e-12
    else:
        assert oracle[defined].max() > 1.0
        assert cond.max_residual == pytest.approx(oracle[defined].max(), rel=1e-9)


def test_cyclic_sum_skips_where_the_bivector_is_undefined():
    # the Schouten bracket of ln(x) d/dy ^ d/dz has no terms at all, but
    # the points with x <= 0 are still skipped
    chart = qk.CoordinateChart(("x", "y", "z"))
    B = qk.wedge(
        qk.coordinate_field(chart, "y"), qk.coordinate_field(chart, "z")
    ).as_sum(qk.ln(chart.coordinate("x")))
    cfg = make_cfg(chart, samples=40, seed=3)
    cond = qk.jacobi_identity_check(B, [chart.coordinates()], cfg).condition(
        "cyclic-sum"
    )
    assert cond.skipped == sum(p["x"] <= 0 for p in cfg.points()) > 0
    assert cond.max_residual == 0.0


def test_cyclic_sum_requires_triples():
    chart, x1, x2, _, _, _, cfg = exp_system("y")
    with pytest.raises(ValueError):
        qk.jacobi_identity_check(qk.wedge(x1, x2).as_sum(), [], cfg)


@pytest.mark.parametrize(
    "sizes", [(2, 4), (3, 2), (4,), (3, 3, 1)], ids=["2+4", "3+2", "4", "3+3+1"]
)
def test_cyclic_sum_requires_triples_of_three_functions(sizes):
    # six functions as a pair and a quadruple would otherwise stack like
    # two triples
    chart, x1, x2, _, _, _, cfg = exp_system("y")
    f = chart.coordinate("x")
    with pytest.raises(ValueError, match="three functions"):
        qk.jacobi_identity_check(
            qk.wedge(x1, x2).as_sum(), [(f,) * size for size in sizes], cfg
        )


def test_composite_terms_are_poisson_pairs():
    # HamiltonianSystem invariant: each decomposable term of the
    # composite passes the Poisson-pair check at fixture tolerance
    chart, x1, x2, x3, H, F, cfg = exp_system("y + z^2")
    system = qk.build_qbh(x1, x2, x3, H, F, cfg)
    for _, biv in system.composite.terms:
        assert qk.check_poisson_pair(biv.left, biv.right, cfg).passed


def test_skip_fraction_gates_pass():
    # a condition that skips more than max_skip_fraction of the points
    # fails the criterion even when its defined residuals are tiny
    from qbhkit.residuals import condition
    from qbhkit.reports import make_report

    chart = qk.CoordinateChart(("x",))
    points = [chart.point(float(i)) for i in range(10)]
    values = np.zeros(10)
    values[:3] = np.nan  # 30% undefined
    cond = condition("residual", values, points)
    assert cond.skipped == 3
    tol = qk.ToleranceConfig()
    report = make_report("demo", (cond,), len(points), tol)
    assert not report.passed
    relaxed = qk.ToleranceConfig(max_skip_fraction=0.5)
    assert make_report("demo", (cond,), len(points), relaxed).passed


def test_rotation_composite_jacobi_identity():
    # the rotation realization's composite bivector is Poisson too
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    c1, c2 = chart.coordinate("x1"), chart.coordinate("x2")
    theta = qk.atan2(c2, c1)
    x1 = qk.VectorField.from_mapping(chart, {"x1": -c2, "x2": c1})
    x2 = qk.coordinate_field(chart, "x3")
    x3 = qk.VectorField(
        chart, ((theta * c2).simplified(), (-(theta * c1)).simplified(), theta)
    )
    xh = qk.contract_hamiltonian(chart.coordinate("x3"), qk.wedge(x1, x2))
    composite = qk.wedge(x1, x2).as_sum() + qk.wedge(xh, x3).as_sum()
    guard = qk.Guard(qk.parse_expression("sqrt(x1^2 + x2^2 - 0.25)", chart))
    cfg = make_cfg(
        chart,
        box=((0.1, 1.5), (-1.2, 1.2), (-1.0, 1.0)),
        samples=40,
        seed=17,
        guards=(guard,),
    )
    rng = np.random.default_rng(5)
    triples = [
        tuple(qk.random_polynomial(chart, rng, degree=2) for _ in range(3))
        for _ in range(3)
    ]
    report = qk.jacobi_identity_check(composite, triples, cfg)
    assert report.passed


# ---------------------------------------------------------------------------
# the exp-realization fixture's Jacobi sweep


def tree_nodes(roots):
    """Every node of the trees under ``roots``."""
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.args)
    return list(seen.values())


@pytest.mark.parametrize("samples", [None, 5000])
def test_exp_realization_sweep_differentiates_no_test_function(monkeypatch, samples):
    # the fixture's test functions are random polynomials, so their
    # gradients come from their terms; a silent fallback to the symbolic
    # route would build derivatives of their nodes. The sweep's per-point
    # cyclic sums equal, bit for bit, those of the symbolic gradients.
    differentiated = []
    sweeps = []
    cyclic_sums = []
    ndiff = expr._ndiff
    check = qbh.jacobi_identity_check

    def recording_ndiff(node, coord):
        differentiated.append(node)
        return ndiff(node, coord)

    def recording_check(B, triples, cfg):
        start = len(differentiated)
        report = check(B, triples, cfg)
        sweeps.append((B, triples, cfg, differentiated[start:]))
        return report

    def recording_condition(name, residual, *args, **kwargs):
        if name == "cyclic-sum":
            cyclic_sums.append(residual)
        return condition(name, residual, *args, **kwargs)

    monkeypatch.setattr(expr, "_ndiff", recording_ndiff)
    monkeypatch.setattr(fixtures, "jacobi_identity_check", recording_check)
    monkeypatch.setattr(qbh, "condition", recording_condition)
    spec = fixtures.load_fixture("exp-realization")
    cfg = spec.config(samples=samples)
    fixtures.FIXTURES["exp-realization"].runner(spec, cfg)

    ((B, triples, sweep_cfg, built),) = sweeps
    assert sweep_cfg is cfg and len(triples) == 3
    test_nodes = {id(node) for node in tree_nodes(f.node for t in triples for f in t)}
    assert not [node for node in built if id(node) in test_nodes]
    (got,) = cyclic_sums
    points = cfg.points()
    assert len(got) == len(points) == (samples or spec.domain.samples)
    want = ref_cyclic_sums(B, triples, points)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(want).all()


def test_the_sweep_keeps_simplified_fields_at_coefficient_one(monkeypatch):
    # a term of coefficient 1 wedges its own left field, with the brackets
    # cached on it, when each of its components is simplified; a field
    # with a component that is not is rebuilt. Either way the cyclic sums
    # are those of a sweep that rebuilds every field.
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(12)
    X, Y, Z = random_fields(chart, rng, degree=1, count=3)
    U = qk.VectorField(
        chart, tuple(qk.parse_expression(t, chart) for t in ("x + x", "1", "y*z"))
    )
    one = chart.constant(1.0)
    B = qk.BivectorSum(chart, ((one, qk.wedge(X, Y)), (one, qk.wedge(U, Z))))
    triples = [tuple(qk.random_polynomial(chart, rng) for _ in range(3))]
    cfg = make_cfg(chart, samples=50, seed=3)

    lefts, cyclic_sums = [], []
    schouten = qbh.schouten_bb

    def recording_schouten(b1, b2):
        lefts.append(b1.left)
        return schouten(b1, b2)

    def recording_condition(name, residual, *args, **kwargs):
        cyclic_sums.append(residual)
        return condition(name, residual, *args, **kwargs)

    monkeypatch.setattr(qbh, "schouten_bb", recording_schouten)
    monkeypatch.setattr(qbh, "condition", recording_condition)
    qk.jacobi_identity_check(B, triples, cfg)
    assert X.scaled(one) is X and U.scaled(one) is not U
    kept = [f for f in lefts if f is X]
    rebuilt = [f for f in lefts if f is not X]
    assert kept and rebuilt and not [f for f in rebuilt if f is U]
    assert [str(c) for c in rebuilt[0].components] == ["2.0 * x", "1.0", "y * z"]

    def rebuilding_scaled(field, factor):
        return qk.VectorField(
            field.chart, tuple((factor * c).simplified() for c in field.components)
        )

    monkeypatch.setattr(qk.VectorField, "scaled", rebuilding_scaled)
    qk.jacobi_identity_check(B, triples, cfg)
    kept_sums, rebuilt_sums = cyclic_sums
    assert kept_sums.tobytes() == rebuilt_sums.tobytes()
    assert np.nanmax(kept_sums) > 1e-3


@pytest.mark.parametrize(
    "components",
    [("-0.0", "x"), ("2", "x"), ("-(2*x)", "y")],
    ids=["negative-zero", "int", "negated-product"],
)
def test_a_factor_one_keeps_a_field_only_where_it_leaves_each_component(components):
    # 1 * c simplifies to c itself, or to a constant of c's type, value
    # and sign, except for these components, whose fields are rebuilt
    chart = qk.CoordinateChart(("x", "y"))
    nodes = [
        expr.Const(-0.0) if t == "-0.0" else expr.Const(2) if t == "2"
        else qk.parse_expression(t, chart).node
        for t in components
    ]
    field = qk.VectorField(chart, tuple(qk.ScalarExpr(chart, n) for n in nodes))
    assert all(c.simplified().node is c.node for c in field.components)
    scaled = field.scaled(1.0)
    assert scaled is not field
    assert scaled.scaled(1.0) is scaled
