"""Multivector algebra: derivation action, Lie brackets, contractions,
Lie derivatives of bivectors, Schouten brackets, pointwise components."""
import gc
import weakref

import numpy as np
import pytest

import qbhkit as qk

from helpers import (
    exp_triple,
    fresh_copy,
    generated_problem_text,
    make_cfg,
    max_field_deviation,
    non_poisson_pair,
    random_fields,
    rotation_cfg,
    rotation_triple,
)


# ---------------------------------------------------------------------------
# apply_field


def test_apply_coordinate_field():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    X = qk.coordinate_field(chart, "x3")
    f = chart.coordinate("x3")
    result = qk.apply_field(X, f)
    assert qk.structurally_equal(result, chart.constant(1.0))


def test_rotation_annihilates_radius():
    chart, x1, _, _ = rotation_triple()
    r2 = qk.parse_expression("x1^2 + x2^2", chart)
    assert qk.apply_field(x1, r2).is_zero()


def test_apply_exp_field():
    chart, x1, _, _ = exp_triple()
    result = qk.apply_field(x1, chart.coordinate("y"))
    assert qk.structurally_equal(result, chart.constant(1.0))


def test_apply_field_leibniz():
    chart, x1, _, _ = exp_triple()
    rng = np.random.default_rng(2)
    f = qk.random_polynomial(chart, rng, degree=2)
    g = qk.random_polynomial(chart, rng, degree=2)
    lhs = qk.apply_field(x1, f * g)
    rhs = f * qk.apply_field(x1, g) + g * qk.apply_field(x1, f)
    for p in make_cfg(chart, samples=25, seed=4).points():
        assert lhs.at(p) == pytest.approx(rhs.at(p), abs=1e-9, rel=1e-9)


def test_apply_field_matches_fd_oracle():
    chart, x1, _, _ = exp_triple()
    rng = np.random.default_rng(8)
    f = qk.random_polynomial(chart, rng)
    sym = qk.apply_field(x1, f)
    for p in make_cfg(chart, samples=25, seed=5).points():
        assert sym.at(p) == pytest.approx(qk.fd_apply_field(x1, f, p), abs=1e-5)


# ---------------------------------------------------------------------------
# lie_bracket


def test_bracket_with_itself_vanishes():
    # [X, X] is the zero field without building anything; the copy
    # takes the symbolic route, which must simplify to syntactic zero
    _, x1, _, _ = exp_triple()
    assert qk.lie_bracket(x1, x1).is_zero()
    assert qk.lie_bracket(x1, fresh_copy(x1)).is_zero()


def _problems():
    for name in qk.fixture_names():
        yield name, qk.load_fixture(name)
    for index in range(40):
        yield f"generated-{index}", qk.parse_problem(generated_problem_text(1, index))


def test_every_problem_field_bracketed_with_a_copy_of_itself_vanishes():
    # the short cut [X, X] = 0 must agree with the symbolic route on
    # every field of the six fixtures and of 40 generated problems. The
    # route simplifies to syntactic zero on all of them but rotation's
    # X3, where X3(X3^i) is a sum and the simplifier does not cancel a
    # sum against its negation; those values are exactly zero instead
    for name, spec in _problems():
        points = spec.config().points()
        for field_name, X in spec.fields.items():
            bracket = qk.lie_bracket(X, fresh_copy(X))
            if (name, field_name) == ("rotation", "X3"):
                assert not np.any(bracket.components_at(points))
            else:
                assert bracket.is_zero(), (name, field_name)


def test_a_bracket_is_built_once_per_pair_of_fields():
    chart = qk.CoordinateChart(("x", "y", "z"))
    X, Y = random_fields(chart, np.random.default_rng(5), degree=2, count=2)
    XY = qk.lie_bracket(X, Y)
    assert qk.lie_bracket(X, Y) is XY
    YX = qk.lie_bracket(Y, X)
    assert qk.lie_bracket(Y, X) is YX
    for got, want in zip(YX.components, XY.components):
        assert qk.structurally_equal(got, -want)


def test_negation_keeps_each_zero_component_node():
    # a reversed cached bracket is a negation; its zeros stay the nodes
    # they were instead of becoming fresh -0.0 constants
    chart, x1, x2, x3 = exp_triple()
    for X in (x1, x2, x3, qk.lie_bracket(x3, x1)):
        zeros = [i for i, c in enumerate(X.components) if c.is_zero()]
        assert zeros
        negated = -X
        for i in zeros:
            assert negated.components[i] is X.components[i]
        for got, want in zip(negated.components, X.components):
            if not want.is_zero():
                assert qk.structurally_equal(got, -want)


def test_the_self_schouten_bracket_is_one_wedge_on_the_cached_bracket():
    # [[X^Y, X^Y]] = 2 [X,Y]^X^Y, not the four-term expansion
    chart = qk.CoordinateChart(("x", "y", "z"))
    X, Y = random_fields(chart, np.random.default_rng(7), degree=2, count=2)
    P = qk.wedge(X, Y)
    ((coeff, (U, V, W)),) = qk.schouten_bb(P, P).terms
    assert qk.structurally_equal(coeff, chart.constant(2.0))
    assert U is qk.lie_bracket(X, Y) and V is X and W is Y


def test_the_bracket_cache_keeps_no_field_alive():
    # the cache is keyed weakly by the other field and holds no cycle,
    # so each field is freed as soon as its last reference goes
    chart = qk.CoordinateChart(("x", "y", "z"))
    X, Y = random_fields(chart, np.random.default_rng(6), degree=2, count=2)
    gc.disable()
    try:
        qk.lie_bracket(X, Y)
        qk.lie_bracket(Y, X)
        y_ref = weakref.ref(Y)
        del Y
        assert y_ref() is None
        x_ref = weakref.ref(X)
        del X
        assert x_ref() is None
    finally:
        gc.enable()


def test_rotation_fields_commute():
    _, x1, x2, _ = rotation_triple()
    assert qk.lie_bracket(x1, x2).is_zero()


def test_corrected_third_field_bracket():
    # [X3, X1] = X1 - X2 for the closed-form rotation realization;
    # verified symbolically against the target and against the
    # finite-difference bracket oracle at 100 annulus points
    chart, x1, x2, x3, cfg = rotation_cfg(samples=100, seed=13)
    bracket = qk.lie_bracket(x3, x1)
    target = x1 - x2
    points = cfg.points()
    assert max_field_deviation(bracket, target, points) <= 1e-12
    for p in points[:25]:
        fd = qk.fd_lie_bracket(x3, x1, p)
        np.testing.assert_allclose(bracket.at(p), fd, atol=1e-5)


def test_bracket_antisymmetry_and_jacobi():
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(21)
    X, Y = random_fields(chart, rng, degree=2, count=2)
    (Z,) = random_fields(chart, rng, degree=2, count=1)
    points = make_cfg(chart, samples=20, seed=3).points()

    # the reverse bracket is built on a copy of Y, so it is computed
    # symbolically instead of read back negated from the cache
    anti = qk.lie_bracket(X, Y) + qk.lie_bracket(fresh_copy(Y), X)
    assert max_field_deviation(anti, qk.zero_field(chart), points) <= 1e-9

    jacobi = (
        qk.lie_bracket(X, qk.lie_bracket(Y, Z))
        + qk.lie_bracket(Y, qk.lie_bracket(Z, X))
        + qk.lie_bracket(Z, qk.lie_bracket(X, Y))
    )
    assert max_field_deviation(jacobi, qk.zero_field(chart), points) <= 1e-8


# a problem of the generated-poisson benchmark workload (seed 1, index 0)
GENERATED_POISSON = """
[space]
coordinates = x y z

[field X1]
x = -1.111*exp(0.257*(cos(-0.425*x*x + 0.856*x - 0.453)))*(2.037 + cos((-0.256*x*x - 0.670*z)*cos(0.397*y - 0.720*x)))*exp(0.424*(-0.560*y - 0.322 - 0.625*y*y + 0.168*x*x))

[field X2]
y = 0.753*exp(0.294*((0.811 - 0.353*x + 0.775*x)*cos(-0.869*z + 0.656*y + 0.316*y*z + 0.759*y*y)))*exp(0.398*((0.729 + 0.211*y - 0.306*x + 0.812*z*y)*cos(0.204*y*x + 0.390*x - 0.349 + 0.522)))

[domain]
box = x:-1:1 y:-1:1 z:-1:1
guard = sqrt(x^2 + y^2 - 0.6826)
samples = 200
seed = 952999278
"""


def test_check_poisson_builds_the_bracket_of_its_fields_once(monkeypatch):
    # the self-Schouten bracket and the span condition share one [X, Y]:
    # one derivation per component of each field, 2 x dimension in all
    spec = qk.parse_problem(GENERATED_POISSON)
    X, Y = spec.fields["X1"], spec.fields["X2"]
    applied = []
    apply = qk.VectorField.apply

    def counted(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(qk.VectorField, "apply", counted)
    report = qk.check_poisson_pair(X, Y, spec.config())
    assert report.passed
    assert len(applied) <= 2 * spec.chart.dimension
    assert qk.lie_bracket(X, Y) is qk.lie_bracket(X, Y)


def test_a_bracket_reuses_the_values_its_reverse_left_on_the_cloud():
    spec = qk.parse_problem(GENERATED_POISSON)
    X, Y = spec.fields["X1"], spec.fields["X2"]
    points = spec.config().points()
    qk.lie_bracket(Y, X).components_at(points)
    before = len(points.cache)
    warm = qk.lie_bracket(X, Y).components_at(points)
    fresh = qk.PointCloud(spec.chart, points.values)
    cold = qk.lie_bracket(X, Y).components_at(fresh)
    assert warm.tobytes() == cold.tobytes()
    assert len(points.cache) - before < len(fresh.cache)


# ---------------------------------------------------------------------------
# contraction with dH


def test_contract_constant_hamiltonian():
    chart, x1, x2, _ = exp_triple()
    result = qk.contract_hamiltonian(chart.constant(5.0), qk.wedge(x1, x2))
    assert result.is_zero()


def test_contract_exp_fixture():
    chart, x1, x2, _ = exp_triple()
    result = qk.contract_hamiltonian(chart.coordinate("y"), qk.wedge(x1, x2))
    expected = qk.VectorField.from_mapping(
        chart, {"x": -qk.exp(chart.coordinate("z"))}
    )
    points = make_cfg(chart, samples=15, seed=1).points()
    assert max_field_deviation(result, expected, points) <= 1e-12


def test_contract_rotation_fixture():
    chart, x1, x2, _ = rotation_triple()
    result = qk.contract_hamiltonian(chart.coordinate("x3"), qk.wedge(x1, x2))
    points = make_cfg(chart, samples=15, seed=1).points()
    assert max_field_deviation(result, -x1, points) <= 1e-12


# ---------------------------------------------------------------------------
# poisson_bracket


def test_poisson_bracket_self_vanishes():
    chart, x1, x2, _ = exp_triple()
    rng = np.random.default_rng(5)
    F = qk.random_polynomial(chart, rng)
    assert qk.poisson_bracket(qk.wedge(x1, x2), F, F).is_zero()


def test_poisson_bracket_fundamental_value():
    chart, x1, x2, _ = exp_triple()
    bracket = qk.poisson_bracket(
        qk.wedge(x1, x2), chart.coordinate("x"), chart.coordinate("y")
    )
    assert qk.structurally_equal(bracket, qk.exp(chart.coordinate("z")))


def test_poisson_bracket_of_integral_vanishes():
    chart, x1, x2, _ = exp_triple()
    H = chart.coordinate("y")
    F = qk.parse_expression("y + z^2", chart)
    assert qk.poisson_bracket(qk.wedge(x1, x2), H, F).is_zero()


def test_poisson_bracket_antisymmetry_and_contraction_identity():
    chart, x1, x2, _ = exp_triple()
    B = qk.wedge(x1, x2)
    rng = np.random.default_rng(9)
    F = qk.random_polynomial(chart, rng, degree=2)
    G = qk.random_polynomial(chart, rng, degree=2)
    fg = qk.poisson_bracket(B, F, G)
    gf = qk.poisson_bracket(B, G, F)
    xf_of_g = qk.apply_field(qk.contract_hamiltonian(F, B), G)
    for p in make_cfg(chart, samples=20, seed=2).points():
        assert fg.at(p) == pytest.approx(-gf.at(p), abs=1e-10, rel=1e-10)
        assert fg.at(p) == pytest.approx(xf_of_g.at(p), abs=1e-10, rel=1e-10)


def test_poisson_bracket_leibniz():
    chart, x1, x2, _ = exp_triple()
    B = qk.wedge(x1, x2)
    rng = np.random.default_rng(10)
    F, G, K = (qk.random_polynomial(chart, rng, degree=2) for _ in range(3))
    lhs = qk.poisson_bracket(B, F, G * K)
    rhs = G * qk.poisson_bracket(B, F, K) + K * qk.poisson_bracket(B, F, G)
    for p in make_cfg(chart, samples=15, seed=6).points():
        assert lhs.at(p) == pytest.approx(rhs.at(p), abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# lie_derivative_bivector


def test_lie_derivative_commuting_fields():
    chart = qk.CoordinateChart(("x", "y", "z"))
    X = qk.coordinate_field(chart, "x")
    Y = qk.coordinate_field(chart, "y")
    Z = qk.coordinate_field(chart, "z")
    assert qk.lie_derivative_bivector(X, qk.wedge(Y, Z)).is_zero()


def test_lie_derivative_exp_automorphism():
    chart, x1, x2, _ = exp_triple()
    xh = qk.VectorField.from_mapping(chart, {"x": -qk.exp(chart.coordinate("z"))})
    assert qk.lie_derivative_bivector(xh, qk.wedge(x1, x2)).is_zero()


def test_lie_derivative_nontrivial():
    chart = qk.CoordinateChart(("x", "y", "z"))
    ez = qk.VectorField.from_mapping(chart, {"x": qk.exp(chart.coordinate("z"))})
    dy = qk.coordinate_field(chart, "y")
    dz = qk.coordinate_field(chart, "z")
    derived = qk.lie_derivative_bivector(dz, qk.wedge(ez, dy))
    points = make_cfg(chart, samples=15, seed=8).points()
    got = qk.bivector_components_at(derived, points)
    expected = qk.bivector_components_at(qk.wedge(ez, dy).as_sum(), points)
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# schouten_bb and trivector components


def test_schouten_self_bracket_commuting_wedge():
    chart = qk.CoordinateChart(("x", "y", "z"))
    B = qk.wedge(qk.coordinate_field(chart, "x"), qk.coordinate_field(chart, "y"))
    assert qk.schouten_bb(B, B).is_zero()


def test_schouten_self_bracket_rotation_pair():
    _, x1, x2, _ = rotation_triple()
    B = qk.wedge(x1, x2)
    assert qk.schouten_bb(B, B).is_zero()


def test_schouten_counterexample_component():
    chart, X, Y = non_poisson_pair()
    B = qk.wedge(X, Y)
    T = qk.schouten_bb(B, B)
    points = make_cfg(chart, samples=20, seed=4).points()
    comps = qk.trivector_components_at(T, points)
    # component T^{123} is 2 at every point under the fixed convention
    np.testing.assert_allclose(comps[:, 0, 1, 2], 2.0, atol=1e-12)


def test_schouten_matches_minus_two_wedge_identity():
    # [[X^Y, X^Y]] = -2 X ^ [X,Y] ^ Y
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(14)
    X, Y = random_fields(chart, rng, degree=2, count=2)
    lhs = qk.schouten_bb(qk.wedge(X, Y), qk.wedge(X, Y))
    rhs = qk.wedge3(X, qk.lie_bracket(X, Y), Y, -2.0)
    points = make_cfg(chart, samples=15, seed=9).points()
    np.testing.assert_allclose(
        qk.trivector_components_at(lhs, points),
        qk.trivector_components_at(rhs, points),
        atol=1e-8,
    )


def test_schouten_graded_symmetry():
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(15)
    X, Y, Z, W = random_fields(chart, rng, degree=2, count=4)
    forward = qk.schouten_bb(qk.wedge(X, Y), qk.wedge(Z, W))
    backward = qk.schouten_bb(qk.wedge(Z, W), qk.wedge(X, Y))
    points = make_cfg(chart, samples=15, seed=10).points()
    np.testing.assert_allclose(
        qk.trivector_components_at(forward, points),
        qk.trivector_components_at(backward, points),
        atol=1e-8,
    )


def test_trivector_of_coordinate_frame():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    T = qk.wedge3(
        qk.coordinate_field(chart, "x1"),
        qk.coordinate_field(chart, "x2"),
        qk.coordinate_field(chart, "x3"),
    )
    arr = qk.trivector_at(T, chart.point(0.3, -0.4, 0.9))
    assert arr[0, 1, 2] == 1.0
    assert arr[1, 0, 2] == -1.0
    assert arr[2, 0, 1] == 1.0
    assert arr[0, 0, 1] == 0.0


def test_trivector_zero_sum():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    arr = qk.trivector_at(qk.TrivectorSum.zero(chart), chart.point(1, 2, 3))
    assert not arr.any()


def test_trivector_counterexample_at_origin():
    chart, X, Y = non_poisson_pair()
    T = qk.schouten_bb(qk.wedge(X, Y), qk.wedge(X, Y))
    arr = qk.trivector_at(T, chart.point(0.0, 0.0, 0.0))
    assert abs(arr[0, 1, 2]) == pytest.approx(2.0, abs=1e-12)


def test_trivector_antisymmetry_random():
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(16)
    U, V, W = random_fields(chart, rng, degree=1, count=3)
    arr = qk.trivector_at(qk.wedge3(U, V, W), chart.point(0.2, 0.5, -0.7))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert arr[i, j, k] == pytest.approx(-arr[j, i, k], abs=1e-12)
                assert arr[i, j, k] == pytest.approx(-arr[i, k, j], abs=1e-12)


def test_vector_field_dimension_check():
    chart = qk.CoordinateChart(("x", "y"))
    with pytest.raises(ValueError):
        qk.VectorField(chart, (chart.constant(1.0),))
    with pytest.raises(ValueError):
        qk.VectorField.from_mapping(chart, {"w": chart.constant(1.0)})


def test_wedge_chart_mismatch():
    a = qk.CoordinateChart(("x", "y"))
    b = qk.CoordinateChart(("u", "v"))
    with pytest.raises(qk.ChartMismatchError):
        qk.wedge(qk.coordinate_field(a, "x"), qk.coordinate_field(b, "u"))


def _chart_fields(names):
    """(chart, X, Y, f) on a chart of ``names``: two linear fields that
    do not commute and a function."""
    chart = qk.CoordinateChart(names)
    a, b, c = (chart.coordinate(name) for name in names)
    X = qk.VectorField(chart, (b, a, chart.constant(1.0)))
    Y = qk.VectorField(chart, (chart.constant(0.0), c, a * b))
    return chart, X, Y, a * c + b


# every field operation, given one argument of another chart
MISMATCHED = {
    "apply": lambda X, Y, f, U, V, g: X.apply(g),
    "lie_bracket": lambda X, Y, f, U, V, g: qk.lie_bracket(X, U),
    "scaled": lambda X, Y, f, U, V, g: X.scaled(g),
    "add": lambda X, Y, f, U, V, g: X + U,
    "sub": lambda X, Y, f, U, V, g: X - U,
    "contract_hamiltonian": lambda X, Y, f, U, V, g: qk.contract_hamiltonian(
        g, qk.wedge(X, Y)
    ),
    "poisson_bracket": lambda X, Y, f, U, V, g: qk.poisson_bracket(qk.wedge(X, Y), f, g),
    "lie_derivative_bivector": lambda X, Y, f, U, V, g: qk.lie_derivative_bivector(
        U, qk.wedge(X, Y)
    ),
    "schouten_bb": lambda X, Y, f, U, V, g: qk.schouten_bb(qk.wedge(X, Y), qk.wedge(U, V)),
    "wedge3": lambda X, Y, f, U, V, g: qk.wedge3(X, Y, U),
    "wedge3-coefficient": lambda X, Y, f, U, V, g: qk.wedge3(X, Y, Y, g),
    "BivectorSum": lambda X, Y, f, U, V, g: qk.BivectorSum(
        X.chart, ((f, qk.wedge(X, Y)), (g, qk.wedge(X, Y)))
    ),
    "TrivectorSum": lambda X, Y, f, U, V, g: qk.TrivectorSum(
        X.chart, ((f, (X, Y, X)), (f, (X, Y, U)))
    ),
    "sum-add": lambda X, Y, f, U, V, g: qk.wedge3(X, Y, X) + qk.wedge3(U, V, U),
    "sum-scaled": lambda X, Y, f, U, V, g: qk.wedge(X, Y).as_sum().scaled(g),
    "as_sum": lambda X, Y, f, U, V, g: qk.wedge(X, Y).as_sum(g),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED))
def test_every_field_operation_refuses_another_chart(name):
    _, *own = _chart_fields(("x", "y", "z"))
    _, *other = _chart_fields(("u", "v", "w"))
    operation = MISMATCHED[name]
    operation(*own, *own)
    with pytest.raises(qk.ChartMismatchError):
        operation(*own, *other)


def test_a_sum_of_another_grade_is_a_type_error():
    chart, X, Y, f = _chart_fields(("x", "y", "z"))
    bivectors = qk.wedge(X, Y).as_sum(f)
    trivectors = qk.wedge3(X, Y, qk.lie_bracket(X, Y))
    with pytest.raises(TypeError):
        bivectors + trivectors
    with pytest.raises(TypeError):
        trivectors + bivectors
    with pytest.raises(TypeError):
        trivectors - bivectors


def test_a_field_plus_a_number_is_a_type_error():
    _, X, _, _ = _chart_fields(("x", "y", "z"))
    with pytest.raises(TypeError):
        X + 1
    with pytest.raises(TypeError):
        X - 1.0


def test_a_component_that_is_no_expression_is_a_type_error():
    chart = qk.CoordinateChart(("x", "y", "z"))
    with pytest.raises(TypeError, match="component 'x'"):
        qk.VectorField(chart, (1.0, 2.0, 3.0))
    with pytest.raises(TypeError, match="component 'z'"):
        qk.VectorField(chart, (chart.constant(1.0), chart.coordinate("x"), 3))


NO_CHART = {
    "wedge(X, 1)": lambda X: qk.wedge(X, 1),
    "X.apply(1.0)": lambda X: X.apply(1.0),
    "lie_bracket(X, 1)": lambda X: qk.lie_bracket(X, 1),
    "wedge3(X, X, 1)": lambda X: qk.wedge3(X, X, 1),
    "contract_hamiltonian(1, wedge(X, X))": lambda X: qk.contract_hamiltonian(
        1, qk.wedge(X, X)
    ),
}


@pytest.mark.parametrize("name", NO_CHART)
def test_an_argument_with_no_chart_is_a_type_error(name):
    _, X, _, _ = _chart_fields(("x", "y", "z"))
    # named by its type and value, not "'int' object has no attribute 'chart'"
    with pytest.raises(TypeError, match=r"on a chart, got (int 1|float 1\.0)$"):
        NO_CHART[name](X)


@pytest.mark.parametrize(
    "other",
    [("x", "y"), ("a", "b", "c"), ("x", "y", "z", "w")],
    ids=["fewer", "renamed", "more"],
)
def test_points_of_another_chart_are_refused(other):
    # before the check, an expression on (x, y, z) sampled on a cloud of
    # (x, y, z, w) read the first three columns and returned values
    chart = qk.CoordinateChart(("x", "y", "z"))
    f = qk.parse_expression("x*y + z", chart)
    X, Y, Z = random_fields(chart, np.random.default_rng(2), degree=1, count=3)
    B = qk.wedge(X, Y)
    entry_points = (
        f.sample,
        X.components_at,
        lambda points: qk.expr.gradient_at([f], points),
        lambda points: qk.span_expand(X, (Y, Z), points, qk.ToleranceConfig()),
        lambda points: qk.fields.independent_components_at(B, points),
        lambda points: qk.fields.independent_components_at(
            qk.schouten_bb(B, B), points
        ),
    )
    own = make_cfg(chart, samples=5, seed=1).points()
    cloud = make_cfg(qk.CoordinateChart(other), samples=5, seed=1).points()
    for call in entry_points:
        call(own)
        call(list(own))
        for points in (cloud, list(cloud)):
            with pytest.raises(qk.ChartMismatchError):
                call(points)
    # a test function of another chart in the Jacobi sweep
    g = qk.parse_expression(" + ".join(other), qk.CoordinateChart(other))
    cfg = make_cfg(chart, samples=5, seed=1)
    qk.jacobi_identity_check(B, [(f, f, f)], cfg)
    with pytest.raises(qk.ChartMismatchError):
        qk.jacobi_identity_check(B, [(f, g, f)], cfg)
