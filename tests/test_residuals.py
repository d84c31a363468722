"""Residual conditions: ``condition`` evaluates what must vanish, and the
checks that restrict themselves to points where pairs of fields are
independent count the points they drop."""
import itertools

import numpy as np
import pytest

import qbhkit as qk
import qbhkit.criteria as criteria
import qbhkit.qbh as qbh
import qbhkit.residuals as residuals
from qbhkit.criteria import _FactoredBasis, _span_condition
from qbhkit.fixtures import fixture_names, load_fixture, run_fixture
from qbhkit.residuals import condition, grid_values, values_at

from helpers import make_cfg


def _half_undefined():
    """A chart, sampled points and fields whose components include
    sqrt(x), undefined at about half of the points."""
    chart = qk.CoordinateChart(("x", "y", "z"))
    points = make_cfg(chart, samples=80, seed=3).points()
    root = qk.parse_expression("sqrt(x) * y + z", chart)
    X = qk.VectorField.from_mapping(chart, {"x": root, "y": chart.coordinate("z")})
    Y = qk.VectorField.from_mapping(chart, {"z": qk.exp(chart.coordinate("x"))})
    Z = qk.coordinate_field(chart, "y")
    return chart, points, root, X, Y, Z


def test_condition_evaluates_each_residual_kind_as_its_array_route():
    chart, points, root, X, Y, Z = _half_undefined()
    B = qk.wedge(X, Y)
    S = qk.BivectorSum(chart, ((root, B), (chart.constant(2.0), qk.wedge(Y, Z))))
    T = qk.wedge3(X, Y, Z, 3.0) + qk.schouten_bb(B, qk.wedge(Y, Z))
    routes = (
        (root, qk.evaluate_at_points(root, points)),
        (X, grid_values(X.components_at(points))),
        (B, grid_values(qk.bivector_components_at(B, points))),
        (S, grid_values(qk.bivector_components_at(S, points))),
        (T, grid_values(qk.trivector_components_at(T, points))),
    )
    for residual, values in routes:
        assert 0 < np.isnan(values).sum() < len(points)
        # the mask leaves out two points where the residual is defined
        usable = np.ones(len(points), dtype=bool)
        usable[np.flatnonzero(np.isfinite(values))[:2]] = False
        for informative in (False, True):
            got = condition("r", residual, points, informative, usable)
            want = condition("r", values, points, informative, usable)
            assert got == want
            assert got.skipped == np.isnan(values).sum() + 2


def test_a_field_condition_is_its_worst_component_at_its_worst_point():
    chart, points, root, X, _, _ = _half_undefined()
    components = X.components_at(points)
    cond = condition("field", X, points)
    usable = np.isfinite(components).all(axis=1)
    worst = np.where(usable, np.abs(components).max(axis=1), -np.inf).argmax()
    assert cond.max_residual == np.abs(components[usable]).max()
    assert cond.worst_point == points[worst]
    assert cond.skipped == (~usable).sum()
    assert cond.notes == (f"{cond.skipped} point(s) skipped",)


# ---------------------------------------------------------------------------
# partial drops: X2 = (x + sqrt(x^2)) d/dy vanishes where x <= 0, so the
# pair (d/dx, X2) is degenerate on about half of the box


def _half_degenerate():
    chart = qk.CoordinateChart(("x", "y", "z"))
    cfg = make_cfg(chart, samples=200, seed=42)
    x1 = qk.coordinate_field(chart, "x")
    x2 = qk.VectorField.from_mapping(
        chart, {"y": qk.parse_expression("x + sqrt(x^2)", chart)}
    )
    dropped = sum(p["x"] <= 0 for p in cfg.points())
    return chart, cfg, x1, x2, dropped


def test_jacobi_counts_the_points_where_the_pair_degenerates():
    chart, cfg, x1, x2, dropped = _half_degenerate()
    assert dropped == 98
    xh = -qk.lie_bracket(x1, x2)
    report = qk.check_jacobi(x1, x2, xh, cfg)
    assert report.notes == (
        "sign convention sigma = -1",
        "dropped 98 degenerate point(s)",
        "commutation-rule form pass: True",
        "direct-identity form pass: True",
    )
    # every condition counts the dropped points as skipped; the spans
    # expand in the pair itself, which is degenerate there
    for cond in report.conditions:
        assert cond.skipped == 98
        assert cond.max_residual == 0.0
    assert report.condition("bracket-xh-x1-in-span").notes == (
        "degenerate basis at 98 point(s)",
    )
    assert report.condition("automorphism-trace").notes == ("98 point(s) skipped",)
    # more than the allowed tenth of the points is skipped
    assert not report.passed


def test_compatibility_counts_the_points_where_a_wedge_pair_degenerates():
    chart, cfg, x1, x2, _ = _half_degenerate()
    x3 = qk.coordinate_field(chart, "z")
    report = qk.check_compatibility(x1, x2, x1, x3, cfg)
    assert report.notes == ("dropped 98 point(s) with degenerate wedge pairs",)
    skipped = {c.name: c.skipped for c in report.conditions}
    assert skipped == {
        "schouten": 98,
        "span-x1-x2-bracket": 98,
        "span-xh-x3-bracket": 98,
        "span-xh-x1-bracket": 98,
        "span-xh-x2-bracket": 98,
        "span-x3-x1-bracket": 98,
        "span-x3-x2-bracket": 200,
    }
    # [[X1^X2, X1^X3]] = 2 d/dy^d/dx^d/dz wherever x > 0
    schouten = report.condition("schouten")
    assert schouten.notes == ("98 point(s) skipped",)
    assert schouten.max_residual == 2.0
    # the basis (XH, X1) = (X1, X1) of that expansion is degenerate at
    # every sampled point
    assert report.condition("span-x3-x2-bracket").notes == (
        "span expansion skipped every sampled point: degenerate basis at 200 point(s)",
    )
    assert not report.passed


def test_a_pair_degenerate_everywhere_ends_the_check_naming_the_pair():
    chart, cfg, x1, _, _ = _half_degenerate()
    zero = qk.zero_field(chart)
    with pytest.raises(qk.AllPointsSkippedError) as jacobi:
        qk.check_jacobi(x1, zero, zero, cfg)
    assert str(jacobi.value) == "degenerate pair (X1, X2) at every sampled point"
    with pytest.raises(qk.AllPointsSkippedError) as compatibility:
        qk.check_compatibility(x1, x1, x1, zero, cfg)
    assert str(compatibility.value) == (
        "degenerate wedge pair (X1, X2) or (XH, X3) at every sampled point"
    )


# ---------------------------------------------------------------------------
# a mask on the sampled cloud against the sub-cloud of the points it keeps:
# the checks leave out the points they drop by a mask on the cloud they
# sampled, which must give at every kept point what that point gives alone


def _same_worst(got, want):
    return (got.max_residual, got.worst_point) == (want.max_residual, want.worst_point)


@pytest.mark.parametrize("name", fixture_names())
def test_a_mask_on_the_sampled_cloud_gives_what_its_sub_cloud_gives(name):
    spec = load_fixture(name)
    cfg = spec.config()
    points = cfg.points()
    fields = list(spec.fields.values())
    pairs = list(itertools.combinations(fields, 2))
    brackets = [qk.lie_bracket(X, Y) for X, Y in pairs]
    residuals = fields + brackets + [qk.wedge(X, Y) for X, Y in pairs]
    residuals += [
        qk.schouten_bb(qk.wedge(*p), qk.wedge(*q)) for p, q in zip(pairs, pairs[1:])
    ]
    rng = np.random.default_rng(len(fields))
    for keep in (0.9, 0.5, 0.1):
        mask = rng.random(len(points)) < keep
        sub = points[mask]
        dropped = int((~mask).sum())
        for residual in residuals:
            want = values_at(residual, sub)
            assert want.tobytes() == values_at(residual, points)[mask].tobytes()
            got = condition("r", residual, points, usable=mask)
            want = condition("r", residual, sub)
            assert _same_worst(got, want)
            assert got.skipped == want.skipped + dropped
        for pair in pairs:
            full = _FactoredBasis.of(pair, points, cfg.tol)
            part = _FactoredBasis.of(pair, sub, cfg.tol)
            assert part.smallest.tobytes() == full.smallest[mask].tobytes()
            assert part.independent.tolist() == full.independent[mask].tolist()
            for V in brackets:
                got, _ = _span_condition(
                    "s", V, full, points, cfg.tol, mask, informative=True
                )
                want, _ = _span_condition("s", V, part, sub, cfg.tol, informative=True)
                assert _same_worst(got, want)
                assert got.skipped == want.skipped + dropped


# ---------------------------------------------------------------------------
# independent components against the full arrays


def reference_bivector_components(B, points):
    """B^{ij} with every entry accumulated from its own products."""
    B = B.as_sum() if isinstance(B, qk.DecomposableBivector) else B
    n = B.chart.dimension
    out = np.zeros((len(points), n, n))
    for coeff, biv in B.terms:
        c = qk.evaluate_at_points(coeff, points)
        u = biv.left.components_at(points)
        v = biv.right.components_at(points)
        with np.errstate(over="ignore", invalid="ignore"):
            out += c[:, None, None] * (
                u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None]
            )
    return out


def reference_trivector_components(T, points):
    """T^{ijk} with every entry accumulated from its own determinants."""
    n = T.chart.dimension
    out = np.zeros((len(points), n, n, n))
    for coeff, (U, V, W) in T.terms:
        c = qk.evaluate_at_points(coeff, points)
        u, v, w = (F.components_at(points) for F in (U, V, W))
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j, k in itertools.combinations(range(n), 3):
                d = c * (
                    u[:, i] * (v[:, j] * w[:, k] - v[:, k] * w[:, j])
                    - u[:, j] * (v[:, i] * w[:, k] - v[:, k] * w[:, i])
                    + u[:, k] * (v[:, i] * w[:, j] - v[:, j] * w[:, i])
                )
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    out[:, a, b, e] += d
                    out[:, b, a, e] -= d
    return out


def assert_components_match_full_arrays(residual, points, rng):
    """The scattered full array equals the reference byte for byte, and
    ``values_at`` and ``condition`` give what the full array gives,
    also under three random masks."""
    if isinstance(residual, qk.TrivectorSum):
        got = qk.trivector_components_at(residual, points)
        full = reference_trivector_components(residual, points)
    else:
        got = qk.bivector_components_at(residual, points)
        full = reference_bivector_components(residual, points)
    assert got.tobytes() == full.tobytes()
    want = grid_values(full)
    assert values_at(residual, points).tobytes() == want.tobytes()
    for keep in (1.0, 0.9, 0.5, 0.1):
        usable = rng.random(len(points)) < keep
        assert condition("r", residual, points, usable=usable) == condition(
            "r", want, points, usable=usable
        )


def _multivectors_the_checks_build(name, monkeypatch):
    """(residual, points) for every bivector and trivector that a run of
    fixture ``name`` evaluates."""
    seen = []
    kinds = (qk.DecomposableBivector, qk.BivectorSum, qk.TrivectorSum)

    def recording(original):
        def record(residual, points):
            if isinstance(residual, kinds):
                seen.append((residual, points))
            return original(residual, points)

        return record

    for module in (residuals, criteria, qbh):
        monkeypatch.setattr(module, "values_at", recording(values_at))
    monkeypatch.setattr(
        qbh, "independent_components_at", recording(qbh.independent_components_at)
    )
    run_fixture(name)
    monkeypatch.undo()
    return seen


def test_independent_components_give_the_full_arrays(monkeypatch):
    seen = {
        name: _multivectors_the_checks_build(name, monkeypatch)
        for name in fixture_names()
    }
    # five trivectors (one contracted by jacobi_identity_check) and
    # three bivectors
    assert [len(built) for built in seen.values()] == [3, 1, 2, 2, 0, 0]
    rng = np.random.default_rng(14)
    for built in seen.values():
        for residual, points in built:
            assert_components_match_full_arrays(residual, points, rng)


@pytest.mark.parametrize("names", [("x",), ("x", "y")])
def test_a_trivector_on_fewer_than_three_coordinates_is_zero(names):
    chart = qk.CoordinateChart(names)
    points = make_cfg(chart, samples=40, seed=2).points()
    rng = np.random.default_rng(3)
    X = qk.VectorField(chart, tuple(qk.exp(c) for c in chart.coordinates()))
    Y = qk.VectorField(chart, tuple(c * c for c in chart.coordinates()))
    B = qk.wedge(X, Y)
    for residual in (B, qk.schouten_bb(B, B), qk.wedge3(X, Y, X)):
        assert_components_match_full_arrays(residual, points, rng)
    values = values_at(qk.schouten_bb(B, B), points)
    assert values.tobytes() == np.zeros(len(points)).tobytes()


def test_an_overflowing_product_skips_the_points_the_full_array_skips():
    # 1e200 d/dx ^ (d/dy + x d/dz): its Schouten bracket overflows. And
    # in 1e200 d/dx ^ (1e200 d/dx + d/dy) only the diagonal product
    # 1e200 * 1e200 overflows, which the one independent component
    # 1e200 * 1 does not show
    chart = qk.CoordinateChart(("x", "y", "z"))
    points = make_cfg(chart, samples=50, seed=1).points()
    rng = np.random.default_rng(5)
    X1 = qk.VectorField.from_mapping(chart, {"x": chart.constant(1e200)})
    X2 = qk.VectorField.from_mapping(
        chart, {"y": chart.constant(1.0), "z": chart.coordinate("x")}
    )
    X3 = qk.VectorField.from_mapping(
        chart, {"x": chart.constant(1e200), "y": chart.constant(1.0)}
    )
    B = qk.wedge(X1, X2)
    cases = (qk.schouten_bb(B, B), qk.wedge(X1, X3), qk.wedge(X1, X2))
    for residual in cases:
        assert_components_match_full_arrays(residual, points, rng)
    skipped = [condition("r", residual, points).skipped for residual in cases]
    assert skipped == [50, 50, 0]
