"""Expression core: parsing, printing, differentiation, evaluation,
simplification. The derivative oracle is a central finite difference
with step h * max(1, |p_c|)."""
import math

import numpy as np
import pytest

import qbhkit as qk
from qbhkit.expr import Call, Coord

from helpers import make_cfg

CHART = qk.CoordinateChart(("x", "y", "z"))
CHART_N = qk.CoordinateChart(("x1", "x2", "x3"))

# expression corpus reused by round-trip / derivative sweeps; sampled
# on [0.3, 1.2] so every function stays comfortably inside its domain
CORPUS = [
    "0",
    "7",
    "x + 2*y - 3*z",
    "x*y*z - x^3 + 2.5",
    "x / (y + 2) + z^2",
    "sin(x) * cos(y) + tan(z/4)",
    "exp(x - y) + ln(x + 2)",
    "sqrt(x + 1) * atan(y)",
    "atan2(y, x) + x^2",
    "x^y",
    "2^-2 + x^-1",
    "-x^2 + (-x)^2",
    "exp(sin(x) + cos(y)^2)",
    "(x + y)^3 / (1 + z^2)",
]


def corpus_points(count=40, seed=3):
    return make_cfg(CHART, lo=0.3, hi=1.2, samples=count, seed=seed).points()


# ---------------------------------------------------------------------------
# parsing


def test_parse_zero_constant():
    e = qk.parse_expression("0", CHART)
    assert e.is_zero()


def test_parse_single_call_node():
    e = qk.parse_expression("exp(z)", CHART)
    assert isinstance(e.node, Call)
    assert e.node.func == "exp"
    assert isinstance(e.node.args[0], Coord)
    assert e.node.args[0].name == "z"


def test_parse_unknown_identifier_names_it():
    text = "atan(x2/x1)+C"
    with pytest.raises(qk.UnknownIdentifierError) as err:
        qk.parse_expression(text, CHART_N)
    assert err.value.identifier == "C"
    assert err.value.offset == text.index("C")


def test_parse_unknown_function():
    with pytest.raises(qk.UnknownIdentifierError) as err:
        qk.parse_expression("foo(x)", CHART)
    assert err.value.identifier == "foo"


def test_parse_arity_error():
    with pytest.raises(qk.ExprSyntaxError):
        qk.parse_expression("atan2(x)", CHART)
    with pytest.raises(qk.ExprSyntaxError):
        qk.parse_expression("sin(x, y)", CHART)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2^3^2", 512.0),  # right associative
        ("-2^2", -4.0),  # unary minus binds below ^
        ("2^-2", 0.25),
        ("(-2)^2", 4.0),
        ("2*3+4*5", 26.0),
        ("2+3*4^2", 50.0),
        ("7/2/2", 1.75),
        ("1 - 2 - 3", -4.0),
        ("1e2 + 2.5e-1", 100.25),
        (".5 * 4", 2.0),
    ],
)
def test_precedence(text, expected):
    e = qk.parse_expression(text, CHART)
    p = CHART.point(1.0, 1.0, 1.0)
    assert e.at(p) == pytest.approx(expected, abs=1e-12)


def test_unary_minus_with_coordinate():
    p = CHART.point(2.0, 0.0, 0.0)
    assert qk.parse_expression("-x^2", CHART).at(p) == -4.0
    assert qk.parse_expression("(-x)^2", CHART).at(p) == 4.0
    assert qk.parse_expression("x^-2", CHART).at(p) == 0.25


def test_syntax_error_reports_byte_offset():
    with pytest.raises(qk.ExprSyntaxError) as err:
        qk.parse_expression("x + + y", CHART)
    assert err.value.offset == 4
    # multibyte character before the error shifts the byte offset
    with pytest.raises(qk.ExprSyntaxError) as err:
        qk.parse_expression("x + é", CHART)
    assert err.value.offset == len("x + ".encode("utf-8"))


def test_trailing_input_rejected():
    with pytest.raises(qk.ExprSyntaxError):
        qk.parse_expression("x y", CHART)


@pytest.mark.parametrize("text", CORPUS)
def test_print_parse_round_trip(text):
    e = qk.parse_expression(text, CHART)
    back = qk.parse_expression(str(e), CHART)
    for p in corpus_points():
        assert back.at(p) == pytest.approx(e.at(p), abs=1e-12, rel=1e-12)


def test_round_trip_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(5):
        e = qk.random_polynomial(CHART, rng)
        back = qk.parse_expression(str(e), CHART)
        for p in corpus_points(10):
            assert back.at(p) == pytest.approx(e.at(p), abs=1e-12)


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_of_constant_is_zero():
    assert qk.differentiate(qk.parse_expression("42", CHART), "x").is_zero()


def test_derivative_of_exp_is_itself():
    e = qk.parse_expression("exp(z)", CHART)
    assert qk.structurally_equal(qk.differentiate(e, "z"), e)


def test_unknown_coordinate_rejected():
    with pytest.raises(qk.UnknownCoordinateError):
        qk.differentiate(qk.parse_expression("x", CHART), "w")


def test_atan2_derivative_closed_form():
    # d/dx1 atan2(x2, x1) = -x2 / (x1^2 + x2^2), oracle: central fd at
    # 100 points with x1^2 + x2^2 >= 0.25
    e = qk.parse_expression("atan2(x2, x1)", CHART_N)
    d = qk.differentiate(e, "x1")
    closed = qk.parse_expression("-x2 / (x1^2 + x2^2)", CHART_N)
    guard = qk.Guard(qk.parse_expression("x1^2 + x2^2", CHART_N), 0.25)
    cfg = make_cfg(CHART_N, samples=100, seed=5, guards=(guard,))
    for p in cfg.points():
        fd = qk.fd_partial(e, p, 0, 1e-5)
        assert d.at(p) == pytest.approx(fd, abs=1e-5)
        assert d.at(p) == pytest.approx(closed.at(p), abs=1e-12)


@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("coord", ["x", "y", "z"])
def test_derivative_matches_finite_difference(text, coord):
    e = qk.parse_expression(text, CHART)
    d = qk.differentiate(e, coord)
    index = CHART.index(coord)
    for p in corpus_points(15):
        fd = qk.fd_partial(e, p, index, 1e-5)
        assert d.at(p) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_constant():
    assert qk.evaluate(qk.parse_expression("7", CHART), CHART.point(9, 9, 9)) == 7.0


def test_divide_by_zero_is_domain_error():
    e = qk.parse_expression("x / y", CHART)
    with pytest.raises(qk.EvaluationDomainError):
        qk.evaluate(e, CHART.point(1.0, 0.0, 0.0))


def test_atan2_value():
    e = qk.parse_expression("atan2(1, 1)", CHART)
    p = CHART.point(0, 0, 0)
    assert e.at(p) == math.atan2(1.0, 1.0)
    assert e.at(p) == pytest.approx(math.pi / 4, abs=1e-15)


@pytest.mark.parametrize(
    "text,point",
    [
        ("ln(x)", (0.0, 1.0, 1.0)),
        ("ln(x)", (-1.0, 1.0, 1.0)),
        ("sqrt(x)", (-1.0, 1.0, 1.0)),
        ("atan2(x, y)", (0.0, 0.0, 1.0)),
        ("exp(x)", (1000.0, 1.0, 1.0)),
        ("x^y", (0.0, -2.0, 1.0)),
    ],
)
def test_domain_errors(text, point):
    e = qk.parse_expression(text, CHART)
    with pytest.raises(qk.EvaluationDomainError):
        qk.evaluate(e, CHART.point(*point))


def test_evaluate_wrong_chart_rejected():
    e = qk.parse_expression("x", CHART)
    with pytest.raises(qk.ChartMismatchError):
        e.at(CHART_N.point(1, 2, 3))


def test_batch_evaluation_marks_undefined_points_nan():
    e = qk.parse_expression("1 / y + x", CHART)
    points = [CHART.point(1, 1, 0), CHART.point(1, 0, 0), CHART.point(2, -1, 0)]
    values = qk.evaluate_at_points(e, points)
    assert values[0] == pytest.approx(2.0)
    assert np.isnan(values[1])
    assert values[2] == pytest.approx(1.0)


def test_batch_evaluation_matches_scalar():
    points = corpus_points(20)
    for text in CORPUS:
        e = qk.parse_expression(text, CHART)
        batch = qk.evaluate_at_points(e, points)
        for value, p in zip(batch, points):
            assert value == pytest.approx(e.at(p), abs=1e-12, rel=1e-12)


@pytest.mark.parametrize(
    "text",
    [
        "1/(exp(400*x)*exp(400*x))",
        "atan(exp(400*x)*exp(400*x))",
        "exp(400*x)*exp(400*x)-exp(400*x)*exp(400*x)",
        "-(exp(400*x)*exp(400*x))",
    ],
)
def test_batch_evaluation_is_nan_where_an_intermediate_overflows(text):
    # exp(400)^2 overflows to inf inside the product; the scalar
    # evaluator raises there, so the array evaluator must not turn the
    # infinity back into a finite value further up
    e = qk.parse_expression(text, CHART)
    p = CHART.point(1.0, 0.0, 0.0)
    with pytest.raises(qk.EvaluationDomainError):
        e.at(p)
    values = e.sample([p, CHART.point(0.1, 0.0, 0.0)])
    assert np.isnan(values[0])
    assert np.isfinite(values[1])


def test_batch_evaluation_shapes_and_ownership():
    points = corpus_points(5)
    constant = qk.parse_expression("7", CHART).sample(points)
    assert constant.shape == (5,) and (constant == 7.0).all()
    x = qk.parse_expression("x", CHART).sample(points)
    x[:] = 0.0  # the result is the caller's, not a view of the points
    assert points[0]["x"] != 0.0
    assert qk.parse_expression("x", CHART).sample(points)[0] == points[0]["x"]


def test_point_cloud_indexing():
    points = corpus_points(6)
    assert isinstance(points, qk.PointCloud)
    assert len(points) == 6 and points.values.shape == (6, 3)
    assert points[2].values == tuple(points.values[2])
    assert points[-1].values == list(points)[-1].values
    assert [p.values for p in points[1:3]] == [points[1].values, points[2].values]
    mask = np.array([True, False, True, False, False, True])
    assert [p.values for p in points[mask]] == [points[i].values for i in (0, 2, 5)]
    assert qk.PointCloud.of(CHART, list(points)).values.tolist() == points.values.tolist()
    with pytest.raises(ValueError):
        points.values[0, 0] = 1.0


# ---------------------------------------------------------------------------
# simplification


def test_simplify_zero_product():
    e = qk.parse_expression("0*x + y", CHART)
    assert qk.structurally_equal(qk.simplify(e), CHART.coordinate("y"))


def test_simplify_cancels_identical_terms():
    e = qk.parse_expression("exp(z) - exp(z)", CHART)
    assert qk.simplify(e).is_zero()


def test_simplify_keeps_pythagorean_identity_for_numerics():
    e = qk.parse_expression("sin(x)^2 + cos(x)^2", CHART)
    s = qk.simplify(e)
    for p in corpus_points(10):
        assert s.at(p) == pytest.approx(1.0, abs=1e-15)


def test_simplify_merges_repeated_terms():
    e = qk.parse_expression("2*x + 2*x + 3*x*y + 3*y*x", CHART)
    s = qk.simplify(e)
    for p in corpus_points(10):
        assert s.at(p) == pytest.approx(e.at(p), abs=1e-12)


@pytest.mark.parametrize("text", CORPUS)
def test_simplify_preserves_values(text):
    e = qk.parse_expression(text, CHART)
    s = qk.simplify(e)
    for p in corpus_points(15):
        assert s.at(p) == pytest.approx(e.at(p), abs=1e-12, rel=1e-12)


def test_simplify_derivatives_of_random_polynomials():
    # regression: grouping of repeated product-rule terms must not
    # merge structurally different monomials
    rng = np.random.default_rng(42)
    e = qk.random_polynomial(CHART, rng)
    d = e.diff("x")
    s = d.simplified()
    for p in corpus_points(10):
        assert s.at(p) == pytest.approx(d.at(p), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# chart and point plumbing


def test_chart_validation():
    with pytest.raises(ValueError):
        qk.CoordinateChart(("x", "x"))
    with pytest.raises(ValueError):
        qk.CoordinateChart(("2bad",))
    with pytest.raises(ValueError):
        qk.CoordinateChart(())


def test_point_validation():
    with pytest.raises(ValueError):
        CHART.point(1.0, 2.0)
    with pytest.raises(ValueError):
        CHART.point(1.0, float("inf"), 0.0)
    p = CHART.point(1, 2, 3)
    assert p["y"] == 2.0
    assert p[2] == 3.0
