"""Residual conditions: ``condition`` evaluates what must vanish, and the
checks that restrict themselves to points where pairs of fields are
independent count the points they drop."""
import numpy as np
import pytest

import qbhkit as qk
from qbhkit.residuals import condition, grid_values

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
        for informative in (False, True):
            got = condition("r", residual, points, informative, extra_skipped=2)
            want = condition("r", values, points, informative, extra_skipped=2)
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
    # the conditions restricted to the usable points count the dropped
    # ones; the span expansions and the trace over them do not
    skipped = {c.name: c.skipped for c in report.conditions}
    assert skipped == {
        "bracket-plus-xh": 98,
        "bracket-xh-x1-in-span": 0,
        "bracket-xh-x2-in-span": 0,
        "automorphism-trace": 0,
        "schouten-identity": 98,
        "invariance": 98,
    }
    for cond in report.conditions:
        assert cond.max_residual == 0.0
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
        "span-x1-x2-bracket": 0,
        "span-xh-x3-bracket": 0,
        "span-xh-x1-bracket": 0,
        "span-xh-x2-bracket": 0,
        "span-x3-x1-bracket": 0,
        "span-x3-x2-bracket": 102,
    }
    # [[X1^X2, X1^X3]] = 2 d/dy^d/dx^d/dz wherever x > 0
    schouten = report.condition("schouten")
    assert schouten.notes == ("98 point(s) skipped",)
    assert schouten.max_residual == 2.0
    # the basis (XH, X1) = (X1, X1) of that expansion is degenerate at
    # each of the 102 usable points
    assert report.condition("span-x3-x2-bracket").notes == (
        "span expansion skipped every sampled point: degenerate basis at 102 point(s)",
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
