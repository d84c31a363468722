"""Expression core: parsing, printing, differentiation, evaluation,
simplification. The derivative oracle is a central finite difference
with step h * max(1, |p_c|)."""
import ast
import copy
import gc
import math
import operator
import pickle
import weakref

import numpy as np
import pytest

import qbhkit as qk
from qbhkit.chart import MAX_CACHED_VALUES
import qbhkit.expr as expr
from qbhkit.expr import (
    MAX_NODE_DEPTH,
    Call,
    Const,
    Coord,
    Neg,
    Product,
    Sum,
    gradient_at,
    node_to_text,
    nprod,
    nsum,
)
from qbhkit.fixtures import FIXTURES, fixture_names, load_fixture

from helpers import DEEP_EXPRESSIONS, make_cfg

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


@pytest.mark.parametrize(
    "text, offset",
    # a no-break space is whitespace of two bytes
    [("1e999*x", 0), ("x + 2*1.8e308", 6), ("x +\u00a01e400", 5)],
)
def test_a_number_too_large_for_a_float_is_a_syntax_error(text, offset):
    # float() would make it inf, which prints as no number the parser reads
    with pytest.raises(qk.ExprSyntaxError, match="too large for a float") as err:
        qk.parse_expression(text, CHART)
    assert err.value.offset == offset
    # the largest float and a literal that underflows to 0 still parse
    assert qk.parse_expression("1.7976931348623157e308", CHART).node.value > 0
    assert qk.parse_expression("1e-999", CHART).node.value == 0.0


# Each folds constants whose sum, product or quotient overflows. A
# quotient's fold is refused; the constants of a sum or product are
# folded left to right as the parser folds them, a new constant started
# wherever the running one would overflow, and follow a sum's other terms
# or lead a product's, so the printed text parses back to the same tree.
OVERFLOWING_FOLDS = {
    "1e300*1e300*x": "1e+300 * 1e+300 * x",
    "1e300/1e-300*x": "1e+300 / 1e-300 * x",
    "1e308+1e308+x": "x + 1e+308 + 1e+308",
    "1e308*x + 1e308*x": "1e+308 * x + 1e+308 * x",
    "x + 1e308 + y + 1e308 - 1e308": "x + y + 1e+308",
    "-(1e300*1e300*x)*2": "(-1e+300) * 2e+300 * x",
    "1e300*1e300*0*x": "0.0",
    "2*(1e300*1e300*x)": "2e+300 * 1e+300 * x",
    "2+(1e308+1e308+x)": "x + 1e+308 + 1e+308",
    "1e300*1e300*1e-300*x": "1e+300 * x",
    "x*1e300*y*1e300*1e-10": "1e+300 * 1e+290 * x * y",
    "1e308+1e308-1e308-1e308+x": "x",
    "1e300*1e300": "1e+300 * 1e+300",
}


def assert_round_trips(f):
    """Print then parse ``f`` gives the same node: the same interned
    composite, or a constant of the same value."""
    g = qk.parse_expression(str(f), f.chart)
    if isinstance(f.node, Const):
        assert isinstance(g.node, Const) and repr(g.node.value) == repr(f.node.value)
    else:
        assert g.node is f.node
    assert str(g) == str(f)


def recorded_constants(monkeypatch):
    """The list of the values of the ``Const`` nodes built from now on."""
    values = []
    init = expr.Const.__init__

    def recording_init(self, value):
        values.append(value)
        init(self, value)

    monkeypatch.setattr(expr.Const, "__init__", recording_init)
    return values


@pytest.mark.parametrize("text, printed", sorted(OVERFLOWING_FOLDS.items()))
def test_a_fold_that_overflows_is_refused(text, printed, monkeypatch):
    values = recorded_constants(monkeypatch)
    f = qk.parse_expression(text, CHART)
    assert str(f) == printed
    assert_round_trips(f)
    assert f.simplified().node is f.node
    assert values and all(math.isfinite(v) for v in values)


OVERFLOWING_CONSTANTS = ("1e308", "1.5e308", "1e300", "3e200", "1e-300", "2", "0.5")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_constant_built_not_finite_stays_as_it_is(value):
    # only the API can build one; the parser refuses such a literal
    x, y = CHART.coordinate("x"), CHART.coordinate("y")
    inf = CHART.constant(value)
    for f in (inf * x, x * inf * y, inf * 2.0, inf + x, x + inf + 2.0):
        assert any(
            isinstance(n, Const) and repr(n.value) == repr(value)
            for n in (f.node, *f.node.args)
        )


def overflowing_product(rng, depth):
    """Random factors joined by ``*``: constants, coordinates and
    parenthesized products and sums."""
    factors = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.random()
        if kind < 0.45:
            factors.append(str(rng.choice(OVERFLOWING_CONSTANTS)))
        elif kind < 0.75 or depth >= 2:
            factors.append(str(rng.choice(["x", "y", "z"])))
        elif kind < 0.9:
            factors.append("(" + overflowing_product(rng, depth + 1) + ")")
        else:
            factors.append("(" + overflowing_text(rng, depth + 1) + ")")
    return "*".join(factors)


def overflowing_text(rng, depth=0):
    """A random sum of constants and products (``overflowing_product``)
    whose folds often overflow. A subtracted term is a constant or a
    product of coordinates: a negated product with a leading constant
    prints as a product with a negative constant."""
    terms = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.random()
        sign = " - " if terms and kind < 0.3 else " + " if terms else ""
        if kind < 0.15:
            names = rng.choice(["x", "y", "z"], size=rng.integers(1, 3))
            term = "*".join(names)
        elif kind < 0.6:
            term = str(rng.choice(OVERFLOWING_CONSTANTS))
        else:
            sign = " + " if terms else ""
            term = overflowing_product(rng, depth)
        terms.append(sign + term)
    return "".join(terms)


@pytest.mark.parametrize("seed", range(8))
def test_print_then_parse_returns_the_same_node(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        f = qk.parse_expression(overflowing_text(rng), CHART)
        assert_round_trips(f)
        assert_round_trips(f.simplified())


def test_like_terms_merge_unless_the_merge_overflows(monkeypatch):
    values = recorded_constants(monkeypatch)
    f = qk.parse_expression("1e308*x + y + 1e307*z + 1e308*x + y + 1e307*z", CHART)
    assert str(f.simplified()) == "1e+308 * x + 2.0 * y + 2e+307 * z + 1e+308 * x"
    assert all(math.isfinite(v) for v in values)


def test_an_unmerged_sum_is_finite_where_its_terms_add_up_finite():
    # 2e308 * x overflows where |x| > 0.8988...
    f = qk.parse_expression("1e308*x + 1e308*x", CHART).simplified()
    points = make_cfg(CHART, samples=200, seed=5).points()
    values = f.sample(points)
    x = points.values[:, 0]
    assert np.array_equal(np.isfinite(values), np.abs(x) < 0.8988)
    assert np.isfinite(values).any() and not np.isfinite(values).all()


def test_trailing_input_rejected():
    with pytest.raises(qk.ExprSyntaxError):
        qk.parse_expression("x y", CHART)


@pytest.mark.parametrize("name", sorted(DEEP_EXPRESSIONS))
def test_parse_rejects_deep_nesting(name):
    with pytest.raises(qk.ExprSyntaxError, match="nested deeper than 100 levels"):
        qk.parse_expression(DEEP_EXPRESSIONS[name], CHART)


NESTINGS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "calls": lambda n: "atan2(1, " * n + "x" + ")" * n,
    "unary-minus": lambda n: "-" * n + "x",
    "powers": lambda n: "x^" * n + "x",
    "left-associative-chain": lambda n: "x" + "/2" * n,
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_parse_depth_limit_is_100(shape):
    deepest = qk.parse_expression(NESTINGS[shape](100), CHART)
    assert math.isfinite(deepest.at(CHART.point(0.5, 0.5, 0.5)))
    with pytest.raises(qk.ExprSyntaxError, match="nested deeper than 100 levels"):
        qk.parse_expression(NESTINGS[shape](101), CHART)


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


# the printed text, fingerprint and simplified x-derivative of each
# input: parenthesisation, operand order, folding and the fingerprint
# tags are part of the output a user sees and compares
@pytest.mark.parametrize(
    "text,printed,fingerprint,dx",
    [
        ("-(x+y)", "-(x + y)", "N(S(Vx+Vy))", "-1.0"),
        ("x - -y", "x + y", "S(Vx+Vy)", "1.0"),
        (
            "(x*y)/(z/x)",
            "x * y / (z / x)",
            "Q(P(Vx*Vy)/Q(Vz/Vx))",
            "(y * z / x - x * y * (-z) / x^2.0) / (z / x)^2.0",
        ),
        ("x^-y", "x^-y", "W(Vx^N(Vy))", "-y * x^(-y - 1.0)"),
        ("(-x)^2", "(-x)^2.0", "W(N(Vx)^C2.0)", "2.0 * x"),
        ("x^y^z", "x^y^z", "W(Vx^W(Vy^Vz))", "y^z * x^(y^z - 1.0)"),
        ("-x^2", "-x^2.0", "N(W(Vx^C2.0))", "-2.0 * x"),
        ("2*x*3", "6.0 * x", "P(C6.0*Vx)", "6.0"),
        (
            "atan2(y, x)*exp(-z)",
            "atan2(y, x) * exp(-z)",
            "P(atan2(Vy,Vx)*exp(N(Vz)))",
            "(-y) / (x^2.0 + y^2.0) * exp(-z)",
        ),
        ("sqrt(x)/2", "sqrt(x) / 2.0", "Q(sqrt(Vx)/C2.0)", "1.0 / (2.0 * sqrt(x)) / 2.0"),
        ("x/(y*z) - 3", "x / (y * z) - 3.0", "S(C-3.0+Q(Vx/P(Vy*Vz)))", "1.0 / (y * z)"),
        ("exp(x*y)", "exp(x * y)", "exp(P(Vx*Vy))", "exp(x * y) * y"),
        ("-(x - y)*z", "-(x - y) * z", "N(P(S(N(Vy)+Vx)*Vz))", "-z"),
        (
            "ln(x)^(y+1)",
            "ln(x)^(y + 1.0)",
            "W(ln(Vx)^S(C1.0+Vy))",
            "(y + 1.0) * ln(x)^y * 1.0 / x",
        ),
    ],
)
def test_printed_forms_are_pinned(text, printed, fingerprint, dx):
    e = qk.parse_expression(text, CHART)
    assert str(e) == printed
    assert e.fingerprint() == fingerprint
    assert str(e.diff("x").simplified()) == dx


def test_a_number_raised_to_an_expression_matches_the_parsed_power():
    x = CHART.coordinate("x")
    parsed = qk.parse_expression("2^x", CHART)
    assert str(2 ** x) == str(parsed)
    assert (2 ** x).fingerprint() == parsed.fingerprint()


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


# An evaluator independent of qbhkit: Python's ``math`` on the Python
# syntax tree of the same text, raising at every undefined or
# non-finite intermediate value.
_MATH = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
    "atan2": math.atan2,
}
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: math.pow,
}


class _Undefined(Exception):
    pass


def math_oracle(text, point):
    env = point.as_dict()

    def ev(node):
        try:
            if isinstance(node, ast.Constant):
                value = float(node.value)
            elif isinstance(node, ast.Name):
                value = env[node.id]
            elif isinstance(node, ast.UnaryOp):
                value = -ev(node.operand)
            elif isinstance(node, ast.BinOp):
                value = _BINARY[type(node.op)](ev(node.left), ev(node.right))
            else:
                args = [ev(a) for a in node.args]
                if node.func.id == "atan2" and args == [0.0, 0.0]:
                    raise _Undefined
                value = _MATH[node.func.id](*args)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise _Undefined from None
        if not math.isfinite(value):
            raise _Undefined
        return value

    # '^' is Python's '**': right associative, binding tighter than a
    # unary minus on its left, as in the expression grammar
    return ev(ast.parse(text.replace("^", "**"), mode="eval").body)


def test_sample_matches_math_oracle():
    # the wide box puts some points outside the domains of x^y and
    # sqrt(x + 1), so undefined points are compared too
    wide = make_cfg(CHART, lo=-1.5, hi=1.5, samples=20).points()
    points = [*corpus_points(20), *wide]
    undefined = 0
    for text in CORPUS:
        values = qk.parse_expression(text, CHART).sample(points)
        for value, p in zip(values, points):
            try:
                want = math_oracle(text, p)
            except _Undefined:
                undefined += 1
                assert np.isnan(value), (text, p)
                continue
            assert value == pytest.approx(want, rel=1e-12, abs=0.0), (text, p)
    assert undefined > 0


@pytest.mark.parametrize("text", CORPUS + ["x / y", "ln(x)"])
def test_at_is_sample_at_one_point(text):
    e = qk.parse_expression(text, CHART)
    points = [
        *make_cfg(CHART, lo=-1.5, hi=1.5, samples=20).points(),
        CHART.point(1.0, 0.0, 1.0),
        CHART.point(0.0, 1.0, 1.0),
    ]
    for p, value in zip(points, e.sample(points)):
        if np.isnan(value):
            with pytest.raises(qk.EvaluationDomainError):
                e.at(p)
        else:
            assert np.float64(e.at(p)).tobytes() == value.tobytes()


@pytest.mark.parametrize(
    "text,point,reason,innermost",
    [
        ("x / y", (1.0, 0.0, 0.0), "division by zero", "x / y"),
        ("ln(x)", (0.0, 1.0, 1.0), "ln of non-positive value", "ln(x)"),
        ("2 + y * sqrt(x - 3)", (1, 1, 1), "sqrt of negative value", "sqrt(x - 3.0)"),
        ("1 + atan2(x, y)^2", (0.0, 0.0, 1.0), "atan2(0, 0)", "atan2(x, y)"),
        ("sin(exp(x) / 2)", (1000.0, 1.0, 1.0), "exp overflow", "exp(x)"),
        ("x^y + z", (0.0, -2.0, 1.0), "power undefined", "x^y"),
        (
            "exp(400*x)*exp(400*x) - 1",
            (1.0, 0.0, 0.0),
            "non-finite value",
            "exp(400.0 * x) * exp(400.0 * x)",
        ),
    ],
)
def test_domain_error_names_innermost_undefined_node(text, point, reason, innermost):
    e = qk.parse_expression(text, CHART)
    with pytest.raises(qk.EvaluationDomainError) as err:
        e.at(CHART.point(*point))
    assert err.value.reason == reason
    assert node_to_text(err.value.node) == innermost


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
    # exp(400)^2 overflows to inf inside the product, so the product is
    # undefined and no later node may turn the infinity back into a
    # finite value
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


def test_samples_on_one_cloud_are_equal_and_the_callers_own():
    points = corpus_points(5)
    for text in ("x", "x * sin(y) + z", "7"):
        e = qk.parse_expression(text, CHART)
        first = e.sample(points)
        second = e.sample(points)
        assert first.tobytes() == second.tobytes()
        first[:] = -1.0  # must not reach the cloud's cached values
        assert e.sample(points).tobytes() == second.tobytes()


def held_values(cloud):
    return sum(np.size(value) for value in cloud.cache.values())


def test_cloud_cache_stays_within_its_bound():
    # At 5 000 points the bound holds 26 node arrays; a constant counts
    # as the one value it holds. The bound is tested once per call, so a
    # call may end past it by at most its own new values, and no call
    # after that keeps anything.
    points = make_cfg(CHART, samples=5000, seed=5).points()
    rng = np.random.default_rng(8)
    for _ in range(12):
        e = qk.random_polynomial(CHART, rng, degree=2)
        before = held_values(points)
        assert points.cached_values == before
        entries = len(points.cache)
        e.sample(points)
        added = held_values(points) - before
        assert points.cached_values == before + added
        if before >= MAX_CACHED_VALUES:
            assert added == 0 and len(points.cache) == entries
        else:
            assert added <= (len(points.cache) - entries) * len(points)
    assert points.cached_values >= MAX_CACHED_VALUES


def test_cached_constants_count_as_one_value():
    points = make_cfg(CHART, samples=5000, seed=5).points()
    qk.parse_expression("7", CHART).sample(points)
    assert points.cached_values == held_values(points) == 1
    # a new constant node, and the arrays of x and of the sum
    qk.parse_expression("x + 7", CHART).sample(points)
    assert points.cached_values == held_values(points) == 2 + 2 * 5000


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
# gradients: polynomials from their terms, anything else symbolically


def chart_of(n):
    return qk.CoordinateChart(tuple(f"x{i}" for i in range(1, n + 1)))


def quadratic(chart, coeffs):
    """A dense polynomial of total degree <= 2, built as random_polynomial
    builds one, with the coefficients ``coeffs`` taken in turn."""
    names = chart.names
    monomials = [()] + [(a,) for a in names]
    monomials += [(a, b) for i, a in enumerate(names) for b in names[i:]]
    terms = [
        nprod([Const(coeffs[k % len(coeffs)])] + [Coord(c) for c in m])
        for k, m in enumerate(monomials)
    ]
    return qk.ScalarExpr(chart, nsum(terms))


def fresh_points(chart, samples=200, seed=3, lo=-1.0, hi=1.0):
    """A new cloud, with an empty cache, of seeded points in the box."""
    cfg = make_cfg(chart, lo, hi, samples, seed)
    return qk.PointCloud(chart, cfg.points().values)


def gradient_and_reference(monkeypatch, functions, points):
    """(gradient_at's value, the stack of the derivatives' values, how
    many node derivatives gradient_at built), on a fresh cloud
    ``points``. Where gradient_at builds no derivative it also caches no
    value. Both values are C-ordered (len(functions), n, len(points))."""
    built = []
    ndiff = expr._ndiff

    def recording_ndiff(node, coord):
        built.append(node)
        return ndiff(node, coord)

    monkeypatch.setattr(expr, "_ndiff", recording_ndiff)
    got = gradient_at(functions, points)
    monkeypatch.setattr(expr, "_ndiff", ndiff)
    assert built or not points.cache
    want = np.array(
        [[f.diff(name).sample(points) for name in f.chart.names] for f in functions]
    )
    assert got.shape == want.shape == (len(functions), want.shape[1], len(points))
    assert got.flags.c_contiguous
    return got, want, len(built)


@pytest.mark.parametrize("n", [1, 3, 9])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_polynomial_gradients_equal_the_symbolic_route(monkeypatch, n, degree):
    chart = chart_of(n)
    rng = np.random.default_rng(10 * n + degree)
    for seed in range(2):
        f = qk.random_polynomial(chart, rng, degree=degree)
        points = fresh_points(chart, seed=seed)
        got, want, built = gradient_and_reference(monkeypatch, [f], points)
        assert got.tobytes() == want.tobytes()
        assert built == 0


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize(
    "coeffs, symbolic",
    [
        ((1.0,), False),
        ((1.0, 0.25, -2.0), False),
        ((-1.0,), True),
        ((0.5, -1.0, 1.0), True),
    ],
)
def test_unit_coefficients_take_their_routes(monkeypatch, n, coeffs, symbolic):
    # nprod drops a coefficient 1.0, which leaves a polynomial term; it
    # turns -1.0 into a Neg term, which only the symbolic route takes
    f = quadratic(chart_of(n), coeffs)
    assert any(isinstance(t, Neg) for t in f.node.args) == symbolic
    got, want, built = gradient_and_reference(
        monkeypatch, [f], fresh_points(f.chart)
    )
    assert got.tobytes() == want.tobytes()
    assert (built > 0) == symbolic


@pytest.mark.parametrize("text", ["x2", "3.5", "0", "x1 * x2 * x2", "2 * x3"])
def test_single_terms_equal_the_symbolic_route(monkeypatch, text):
    f = qk.parse_expression(text, CHART_N)
    got, want, built = gradient_and_reference(monkeypatch, [f], fresh_points(CHART_N))
    assert got.tobytes() == want.tobytes()
    assert built == 0


def test_terms_nprod_would_not_build_equal_the_symbolic_route(monkeypatch):
    # a leading 0, 1 or -1 that nprod would have folded away; a 0 term
    # is dropped, where multiplying would give -0.0 at negative points
    x1, x2, x3 = (Coord(name) for name in CHART_N.names)
    for coeff in (0.0, -0.0, 1.0, -1.0):
        term = Product((Const(coeff), x1, x2))
        for node in (term, Sum((term, x3)), Sum((x3, term, Const(2.0)))):
            f = qk.ScalarExpr(CHART_N, node)
            points = fresh_points(CHART_N)
            got, want, built = gradient_and_reference(monkeypatch, [f], points)
            assert got.tobytes() == want.tobytes()
            assert built == 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_cloud_holds_only_finite_coordinates(bad):
    values = [[1.0, 0.5, 2.0], [1.0, 0.0, 0.0]]
    values[1][1] = bad
    with pytest.raises(ValueError, match="non-finite coordinate value"):
        qk.PointCloud(CHART_N, values)
    cloud = fresh_points(CHART_N, samples=5)
    assert np.array_equal(cloud[1:3].values, cloud.values[1:3])
    mask = cloud.values[:, 0] > 0
    assert np.array_equal(cloud[mask].values, cloud.values[mask])


def test_a_lone_coordinate_derivative_equals_the_symbolic_route(monkeypatch):
    # d(x1*x2)/dx1 is the bare coordinate x2, whose value is its column
    for text in ("x1 * x2", "x1 * x2 + x3", "2 * x1 * x2"):
        f = qk.parse_expression(text, CHART_N)
        got, want, built = gradient_and_reference(
            monkeypatch, [f], fresh_points(CHART_N)
        )
        assert got.tobytes() == want.tobytes()
        assert built == 0


@pytest.mark.parametrize("n", [1, 3, 9])
@pytest.mark.parametrize(
    "coeffs, lo, hi, doubled_fold_overflows",
    [
        ((3e200, -1e200, 3e200, 0.5), -1e108, 1e108, False),
        ((1e200,), -1e120, 1e120, False),
        ((1.5e308, 1.5e308, -1e308), -1.0, 1.0, True),
    ],
)
def test_overflowing_polynomial_gradients_equal_the_symbolic_route(
    monkeypatch, n, coeffs, lo, hi, doubled_fold_overflows
):
    # 1e200 times coordinates up to 1e108 or 1e120 overflows in some
    # products and sums and not in others; in a polynomial summed with
    # itself the fold of the 1.5e308 coefficients overflows, so its
    # derivatives take the symbolic route, which keeps every operand
    chart = chart_of(n)
    f = quadratic(chart, coeffs)
    doubled = qk.ScalarExpr(chart, nsum([f.node, f.node]))
    for g in (f, doubled):
        points = fresh_points(chart, lo=lo, hi=hi, seed=n)
        got, want, built = gradient_and_reference(monkeypatch, [g], points)
        assert got.tobytes() == want.tobytes()
        assert (built > 0) == (g is doubled and doubled_fold_overflows)
    assert np.isnan(got).any()


@pytest.mark.parametrize(
    "text",
    ["1e308*x + -1e308*x*y + 1e308*x", "x*y + 1e308*x + z + -1e308*x*z + 1e308*x - 0*x"],
)
def test_gradients_with_an_overflowing_fold_equal_the_symbolic_route(monkeypatch, text):
    # the constants of d/dx fold to an overflow, so that column is built
    # symbolically, where nsum keeps them unfolded, in order
    f = qk.parse_expression(text, CHART)
    got, want, built = gradient_and_reference(monkeypatch, [f], fresh_points(CHART))
    assert got.tobytes() == want.tobytes()
    assert built > 0
    assert np.isnan(got[0, 0]).any() and np.isfinite(got[0, 0]).any()


@pytest.mark.parametrize("text", ["x^2", "sin(x)", "x*y - x/(y + 2)", "-x*y"])
def test_other_trees_take_the_symbolic_route(monkeypatch, text):
    f = qk.parse_expression(text, CHART)
    got, want, built = gradient_and_reference(monkeypatch, [f], fresh_points(CHART))
    assert got.tobytes() == want.tobytes()
    assert built > 0


def test_gradient_at_takes_points_or_a_cloud():
    f = qk.random_polynomial(CHART, np.random.default_rng(4), degree=3)
    cloud = fresh_points(CHART, samples=7)
    assert gradient_at([f], list(cloud)).tobytes() == gradient_at([f], cloud).tobytes()


def sweep_polynomials():
    """The nine test functions of exp-realization's Jacobi sweep, as
    ``fixtures`` draws them."""
    spec = load_fixture("exp-realization")
    rng = np.random.default_rng(spec.domain.seed)
    return [qk.random_polynomial(spec.chart, rng) for _ in range(9)]


@pytest.mark.parametrize("samples", [1, 7, 200])
def test_the_sweeps_polynomials_take_one_batch_with_the_symbolic_bits(monkeypatch, samples):
    functions = sweep_polynomials()
    chart = functions[0].chart
    got, want, built = gradient_and_reference(
        monkeypatch, functions, fresh_points(chart, samples=samples)
    )
    assert got.tobytes() == want.tobytes()
    assert built == 0


def term(coeff, *names):
    return Product((Const(coeff), *(Coord(name) for name in names)))


def test_a_mixed_batch_equals_the_symbolic_route_row_by_row(monkeypatch):
    # the first three rows have one list of non-zero terms, with an int
    # coefficient, a -0.0 and a 0 one (terms of no list); then rows of
    # other lists, a row whose constant fold in d/dx1 overflows beside
    # one of its list whose fold does not, a tree that is no polynomial,
    # and a row whose fold in d/dx1 is 0 beside one whose fold is not,
    # where d/dx1 has a single product that underflows to -0.0
    x3 = Coord("x3")
    doubled = [
        qk.ScalarExpr(CHART_N, nsum([f.node, f.node]))
        for f in (
            quadratic(CHART_N, (1.5e308, 1.5e308, -1e308)),
            quadratic(CHART_N, (0.75, -2.0)),
        )
    ]
    rng = np.random.default_rng(8)
    functions = [
        Sum((term(2, "x1", "x2"), term(0.5, "x1"), x3, Const(3.0))),
        Sum((term(1.5, "x1", "x2"), term(-0.0, "x2", "x2"), term(0.5, "x1"), x3)),
        Sum((term(-4.0, "x1", "x2"), term(0.25, "x1"), term(0.0, "x3", "x3"), x3)),
        qk.random_polynomial(CHART_N, rng, degree=2),
        doubled[0],
        qk.parse_expression("sin(x1) * x2 + x3", CHART_N),
        qk.random_polynomial(CHART_N, rng, degree=3),
        doubled[1],
        qk.random_polynomial(CHART_N, rng, degree=2),
        Sum((term(-5e-324, "x1", "x2"), term(0.5, "x1"), term(-0.5, "x1"))),
        Sum((term(-5e-324, "x1", "x2"), term(0.5, "x1"), term(0.25, "x1"))),
    ]
    functions = [
        f if isinstance(f, qk.ScalarExpr) else qk.ScalarExpr(CHART_N, f)
        for f in functions
    ]
    lists = [
        [names for _, names in expr._monomials(f.node)]
        for f in functions[:5] + functions[6:]
    ]
    assert lists[0] == lists[1] == lists[2] == [("x1", "x2"), ("x1",), ("x3",)]
    assert lists[4] == lists[6] != lists[3]
    got, want, built = gradient_and_reference(monkeypatch, functions, fresh_points(CHART_N))
    assert got.tobytes() == want.tobytes()
    assert built > 0
    # the overflowing row is NaN where its symbolic route is, the other
    # doubled row is finite
    assert np.isnan(got[4, 0]).any() and np.isfinite(got[7]).all()
    assert np.signbit(got[9, 0][got[9, 0] == 0.0]).any()
    assert (got[10, 0] > 0.0).all()
    for r, f in enumerate(functions):
        alone, _, _ = gradient_and_reference(monkeypatch, [f], fresh_points(CHART_N))
        assert alone[0].tobytes() == got[r].tobytes()


# ---------------------------------------------------------------------------
# nprod of a constant and coordinates


@pytest.mark.parametrize("value", [2, 2.5, -3.0, -7, 1e-300, 1, 1.0, -1, -1.0, 0, 0.0, -0.0])
@pytest.mark.parametrize("rest", ["coordinates", "one coordinate", "a call"])
def test_nprod_of_a_constant_and_coordinates_builds_the_general_tree(value, rest):
    x, y = Coord("x"), Coord("y")
    others = {
        "coordinates": [x, y, x],
        "one coordinate": [y],
        "a call": [x, expr.ncall("sin", (y,))],
    }[rest]
    got = nprod([Const(value), *others])
    # a leading 1.0 sends nprod down its general path, whose fold is
    # 1.0 * 1.0 * value, the same float as 1.0 * value
    general = nprod([Const(1.0), Const(value), *others])
    assert type(got) is type(general)
    if isinstance(got, Const):
        assert repr(got.value) == repr(general.value)
    else:
        assert got is general
    assert node_to_text(got) == node_to_text(general)
    assert expr._fingerprint(got) == expr._fingerprint(general)
    constants = [a for a in got.args if isinstance(a, Const)]
    assert all(type(c.value) is float for c in constants)


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


@pytest.mark.parametrize("text", CORPUS)
def test_simplified_and_derivatives_are_built_once(text):
    e = qk.parse_expression(text, CHART)
    assert e.simplified().node is e.simplified().node
    for coord in CHART.names:
        assert e.diff(coord).node is e.diff(coord).node


def test_a_simplified_node_is_its_own_simplified_form():
    e = qk.parse_expression("x * sin(y)", CHART)
    assert e.simplified().node is e.node


@pytest.mark.parametrize("text", CORPUS + ["3*x*y - 2*sin(x) + 1", "-(2*x)"])
def test_simplifying_a_simplified_tree_builds_nothing(text):
    s = qk.parse_expression(text, CHART).simplified()
    assert s.simplified().node is s.node


def test_a_composite_is_one_object_per_structure():
    x, y = Coord("x"), Coord("y")
    assert Coord("x") is x
    assert Sum((x, y)) is Sum((x, y))
    assert Sum((x, y)) is not Sum((y, x))
    assert Call("sin", (x,)) is Call("sin", (x,))
    assert Call("sin", (x,)) is not Call("cos", (x,))
    assert (CHART.coordinate("x") * 2).node is (2 * CHART.coordinate("x")).node


def test_a_constant_operand_counts_by_its_type_value_and_sign():
    x = Coord("x")
    # constants themselves are not interned
    assert Const(2.0) is not Const(2.0)
    assert Product((Const(2.0), x)) is Product((Const(2.0), x))
    # they print apart, so they are kept apart
    assert Product((Const(-0.0), x)) is not Product((Const(0.0), x))
    assert Product((Const(2), x)) is not Product((Const(2.0), x))
    assert str(qk.ScalarExpr(CHART, Product((Const(2), x)))) == "2 * x"


@pytest.mark.parametrize(
    "copy_of",
    [copy.copy, copy.deepcopy, lambda node: pickle.loads(pickle.dumps(node))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_node_is_the_node_of_its_structure(copy_of):
    e = qk.parse_expression("sin(x*y) + 2*atan2(y, x)^z", CHART)
    e.diff("x")  # derivatives are held weakly, and are not copied
    assert copy_of(e.node) is e.node


def test_the_table_of_nodes_keeps_none_alive():
    before = len(expr._NODES)
    e = Sum((Coord("table_u"), Neg((Coord("table_v"),))))
    assert len(expr._NODES) == before + 4
    del e
    assert len(expr._NODES) == before


@pytest.mark.parametrize(
    "e",
    [
        CHART.coordinate("x"),
        CHART.constant(2.5),
        qk.parse_expression("x * sin(y)", CHART),
    ],
)
def test_a_node_that_is_its_own_simplified_form_keeps_no_reference_to_itself(e):
    assert e.simplified().node is e.node
    assert e.simplified().node is e.node  # read back from the cache
    assert all(value is not e.node for value in vars(e.node).values())


# coordinates no other test uses, so that no tree another test holds
# shares a node with the trees built over them
FREED = qk.CoordinateChart(("freed_u", "freed_v"))


@pytest.mark.parametrize(
    "text, second",
    [
        ("exp(freed_u*freed_v)", "freed_u"),
        ("sqrt(freed_u*freed_v)", "freed_u"),
        ("freed_u^freed_v", "freed_u"),
        ("sin(freed_u*freed_v)", "freed_u"),
        # sin -> cos -> -sin: the second derivative leads back to sin
        ("cos(freed_u*freed_v)", "freed_v"),
    ],
    ids=["exp(x*y)", "sqrt(x*y)", "x^y", "sin(x*y)", "cos(x*y)"],
)
def test_a_differentiated_tree_is_freed_without_the_cycle_collector(text, second):
    # the derivatives of exp(u), sqrt(u) and b^e contain the node itself,
    # and those of cos(u) lead back to it through sin(u), so a node holds
    # its derivatives weakly and its caches make no cycle
    e = qk.parse_expression(text, FREED)
    node = weakref.ref(e.node)
    gc.disable()
    try:
        e.diff("freed_u").diff(second).simplified()
        e.diff("freed_v").simplified()
        del e
        assert node() is None
    finally:
        gc.enable()


def strongly_held_nodes(node):
    """The nodes ``node`` holds by strong reference: in its instance
    dict, directly or inside a tuple, list or dict there. A weak
    reference is not followed."""
    held, stack = [], list(vars(node).values())
    while stack:
        value = stack.pop()
        if isinstance(value, expr.Node):
            held.append(value)
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    return held


def assert_no_node_reaches_itself(roots):
    """Walk every node reachable from ``roots`` through strong
    references (operands, simplified forms, cached derivatives) and
    fail on a cycle; return the number of nodes walked."""
    state = {}  # id -> True while on the walk's path, False when done
    for root in roots:
        if id(root) in state:
            continue
        state[id(root)] = True
        path = [(root, iter(strongly_held_nodes(root)))]
        while path:
            node, children = path[-1]
            child = next(children, None)
            if child is None:
                state[id(node)] = False
                path.pop()
            elif state.get(id(child)) is True:
                raise AssertionError(f"{node_to_text(child)} reaches itself")
            elif id(child) not in state:
                state[id(child)] = True
                path.append((child, iter(strongly_held_nodes(child))))
    return len(state)


@pytest.mark.parametrize("name", fixture_names())
def test_no_node_of_a_fixture_run_reaches_itself(name):
    # the roots are the problem's expressions, every node evaluated on
    # the run's cloud and every node keying the rows and bases it holds;
    # their derivatives and simplified forms are filled by the run, and
    # derivatives are walked where held strongly
    spec = load_fixture(name)
    cfg = spec.config()
    FIXTURES[name].runner(spec, cfg)
    roots = [c.node for X in spec.fields.values() for c in X.components]
    roots += [f.node for f in spec.functions.values()]
    roots += list(cfg.points().cache)
    keys = list(cfg.points().derived)
    while keys:
        key = keys.pop()
        if isinstance(key, tuple):
            keys.extend(key)
        elif isinstance(key, expr.Node):
            roots.append(key)
    assert any("derivatives" in vars(node) for node in roots)
    assert assert_no_node_reaches_itself(roots) >= len(set(map(id, roots)))


def test_the_walk_finds_a_node_that_reaches_itself():
    x = Coord("walk_w")
    e = expr.ncall("exp", (x,))
    e.__dict__["cached"] = {"walk_w": nprod([e, x])}
    with pytest.raises(AssertionError, match="reaches itself"):
        assert_no_node_reaches_itself([e])
    del e.__dict__["cached"]
    assert assert_no_node_reaches_itself([e]) == 2


# ---------------------------------------------------------------------------
# expression depth

X, Y = CHART.coordinate("x"), CHART.coordinate("y")

# one level of each shape of chain the walks recurse through, built
# through the public API
CHAINS = {
    "sin": qk.sin,
    "atan2": lambda e: qk.atan2(e, X + 2.0),
    "quotient": lambda e: X / (e + 2.0),
    "power": lambda e: (e * Y + 2.0) ** X,
    "difference": lambda e: X - e,
}


def deepest_chain(shape):
    """The deepest chain of ``shape`` that can be built."""
    e = X
    while True:
        try:
            e = CHAINS[shape](e)
        except qk.ExpressionTooDeepError:
            return e


def test_node_depth_counts_the_longest_path_to_a_leaf():
    assert X.node.depth == CHART.constant(2.0).node.depth == 1
    assert qk.sin(X).node.depth == 2
    assert (qk.sin(qk.sin(X)) + Y).node.depth == 4


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_deep_api_chain_ends_in_the_depth_error(shape):
    e = X
    with pytest.raises(qk.ExpressionTooDeepError) as err:
        for _ in range(10_000):
            e = CHAINS[shape](e)
    assert err.value.limit == MAX_NODE_DEPTH
    assert err.value.depth == MAX_NODE_DEPTH + 1


@pytest.mark.parametrize("shape", sorted(CHAINS))
def test_every_walk_handles_a_chain_at_the_depth_bound(shape):
    # the bound must leave room for the caller's frames in each walk
    e = deepest_chain(shape)
    assert e.node.depth > MAX_NODE_DEPTH - 5
    point = CHART.point(0.5, 0.5, 0.5)
    assert str(e.simplified())
    assert str(e)
    assert qk.structurally_equal(e, e)
    assert np.isfinite(e.sample([point])).all()
    assert math.isfinite(e.at(point))
    try:
        d = e.diff("x")
    except qk.ExpressionTooDeepError:
        pass  # the derivative is deeper than the bound
    else:
        assert str(d.simplified())


def nested_quotients(count):
    """The text ``y/(y/(...(y/x)))`` with ``count`` quotients."""
    text = "x"
    for _ in range(count):
        text = f"y/({text})"
    return text


@pytest.mark.parametrize("name, deepest", [("x", 66), ("y", 50)])
def test_nested_quotients_differentiate_up_to_the_measured_count(name, deepest):
    # the counts the README states
    chart = qk.CoordinateChart(("x", "y"))
    e = qk.parse_expression(nested_quotients(deepest), chart)
    assert e.diff(name).node.depth <= MAX_NODE_DEPTH
    deeper = qk.parse_expression(nested_quotients(deepest + 1), chart)
    with pytest.raises(qk.ExpressionTooDeepError):
        deeper.diff(name)


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
