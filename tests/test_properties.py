"""Property tests of the expression core on generated expression trees.

Trees are grown from the grammar (coordinates, constants, unary minus,
the four arithmetic operators, '^' and every function) through the
public constructors, so the smart constructors' folding and flattening
are part of what is tested. Hypothesis runs derandomized with a fixed
example budget, so every run checks the same trees.

Values are compared within 1e-9 of the largest intermediate value at
each point, the scale at which regrouped sums round differently.
"""
import operator

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbhkit as qk
from qbhkit.expr import ScalarExpr, operands

from helpers import make_cfg

CHART = qk.CoordinateChart(("x", "y", "z"))
# the narrow box keeps most generated trees defined, for the derivative
# oracle; the wide one also has points outside ln, sqrt and '^' domains
NARROW = make_cfg(CHART, lo=0.3, hi=1.2, samples=6, seed=21).points()
WIDE = make_cfg(CHART, lo=-1.5, hi=1.5, samples=12, seed=22).points()

X, Y, Z = CHART.coordinates()

UNARY = [operator.neg, qk.sin, qk.cos, qk.tan, qk.exp, qk.ln, qk.sqrt, qk.atan]
BINARY = [
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
    operator.pow,
    qk.atan2,
]

LEAVES = st.one_of(
    st.sampled_from((X, Y, Z)),
    st.floats(-3.0, 3.0, allow_nan=False).map(CHART.constant),
)


def _grow(children):
    return st.one_of(
        st.builds(lambda f, a: f(a), st.sampled_from(UNARY), children),
        st.builds(
            lambda f, a, b: f(a, b), st.sampled_from(BINARY), children, children
        ),
    )


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=6)
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def scale(e, points):
    """Per point, the largest |value| of any subexpression of ``e``."""
    nodes, stack, seen = [], [e.node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(operands(node))
    values = np.abs([ScalarExpr(CHART, n).sample(points) for n in nodes])
    return np.max(np.where(np.isnan(values), 0.0, values), axis=0)


def assert_close(got, want, bound):
    assert (np.abs(got - want) <= 1e-9 * np.maximum(bound, 1.0)).all()


@PROPERTY
@given(EXPRESSIONS)
def test_derivative_matches_finite_difference(e):
    # the gap between central differences at steps h and 2h is three
    # times the truncation error of the first, so it bounds that error
    for index, coord in enumerate(CHART.names):
        d = e.diff(coord)
        for p in NARROW:
            try:
                exact = d.at(p)
                fd = qk.fd_partial(e, p, index, 1e-5)
                coarse = qk.fd_partial(e, p, index, 2e-5)
                value = e.at(p)
            except qk.EvaluationDomainError:
                continue
            slack = 1e-7 * max(1.0, abs(value), abs(exact)) + 2.0 * abs(fd - coarse)
            assert abs(exact - fd) <= slack, (str(e), coord, p)


@PROPERTY
@given(EXPRESSIONS)
# nestings where the printer must parenthesise, rarely drawn at random
@example((X**Y) ** Z)
@example(X / (Y / Z))
@example(X - (Y - Z))
@example(X ** -(Y + Z))
@example((-X) ** Y)
def test_print_parse_round_trip(e):
    back = qk.parse_expression(str(e), CHART)
    got, want = back.sample(WIDE), e.sample(WIDE)
    assert (np.isnan(got) == np.isnan(want)).all()
    defined = ~np.isnan(want)
    assert_close(got[defined], want[defined], scale(e, WIDE)[defined])


@PROPERTY
@given(EXPRESSIONS)
def test_simplify_preserves_values(e):
    # simplification may cancel an undefined subterm (ln(x) - ln(x) is
    # 0), so it is checked where the original is defined
    got, want = e.simplified().sample(WIDE), e.sample(WIDE)
    defined = ~np.isnan(want)
    assert not np.isnan(got[defined]).any()
    assert_close(got[defined], want[defined], scale(e, WIDE)[defined])
