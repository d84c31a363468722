"""Property tests of the expression core on generated expression trees,
and of the brackets on generated polynomial vector fields.

Trees are grown from the grammar (coordinates, constants, unary minus,
the four arithmetic operators, '^' and every function) through the
public constructors, so the smart constructors' folding and flattening
are part of what is tested. Hypothesis runs derandomized with a fixed
example budget, so every run checks the same trees.

Values are compared within 1e-9 of the largest intermediate value at
each point, the scale at which regrouped sums round differently.

Vector fields have polynomial components of degree at most 1 or 2
with small integer coefficients, so every bracket is defined
everywhere; bracket identities are compared within 1e-9 of the largest
value involved.
"""
import dataclasses
import operator
import random
from itertools import combinations_with_replacement

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbhkit as qk
from qbhkit.expr import Coord, Node, ScalarExpr, operands

from helpers import fresh_copy, make_cfg, nested_cyclic_sums

CHART = qk.CoordinateChart(("x", "y", "z"))
# the same coordinates under other names, whose trees share no node
# with those over CHART
COLD = qk.CoordinateChart(("cold_x", "cold_y", "cold_z"))
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


def subtrees(root):
    """Every distinct node of the tree under ``root``, root first."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(operands(node))
    return nodes


def scale(e, points):
    """Per point, the largest |value| of any subexpression of ``e``."""
    values = np.abs([ScalarExpr(CHART, n).sample(points) for n in subtrees(e.node)])
    return np.max(np.where(np.isnan(values), 0.0, values), axis=0)


def renamed_copy(node, names, copies):
    """``node``'s tree built anew through the node classes, with its
    coordinates renamed by ``names``, so that it shares no interned node
    with the original; ``copies`` maps the ids of copied nodes to their
    copies."""
    if id(node) not in copies:
        values = []
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, Node):
                value = renamed_copy(value, names, copies)
            elif isinstance(value, tuple):
                value = tuple(renamed_copy(v, names, copies) for v in value)
            elif isinstance(node, Coord):
                value = names[value]
            values.append(value)
        copies[id(node)] = type(node)(*values)
    return copies[id(node)]


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


@PROPERTY
@given(EXPRESSIONS)
def test_simplifying_a_simplified_tree_returns_it(e):
    s = e.simplified()
    assert s.simplified().node is s.node


@PROPERTY
@given(EXPRESSIONS, st.randoms(use_true_random=False))
def test_cached_results_do_not_depend_on_earlier_calls(e, rng):
    # nodes keep their simplified forms and derivatives: a tree whose
    # subtrees were simplified and differentiated first, in any order,
    # must give the same results as a cold copy of it. Equal structures
    # are one node, so the cold copy is built over other coordinates.
    cold = ScalarExpr(COLD, renamed_copy(e.node, dict(zip(CHART.names, COLD.names)), {}))
    warm = e
    steps = [
        (ScalarExpr(CHART, node), coord)
        for node in subtrees(warm.node)
        for coord in (None,) + CHART.names
    ]
    rng.shuffle(steps)
    for sub, coord in steps:
        if coord is None:
            sub.simplified().diff(rng.choice(CHART.names))
        else:
            sub.diff(coord).simplified()

    def renamed(text):
        return text.replace("cold_", "")

    assert str(warm.simplified()) == renamed(str(cold.simplified()))
    assert warm.fingerprint() == renamed(cold.fingerprint())
    for coord in CHART.names:
        cold_coord = "cold_" + coord
        assert str(warm.diff(coord)) == renamed(str(cold.diff(cold_coord)))
        assert str(warm.diff(coord).simplified()) == renamed(
            str(cold.diff(cold_coord).simplified())
        )
        assert str(warm.simplified().diff(coord)) == renamed(
            str(cold.simplified().diff(cold_coord))
        )


@PROPERTY
@given(EXPRESSIONS, st.randoms(use_true_random=False))
# subtrees undefined at some points of the cloud, under a defined root
@example(-qk.ln(X) + Y, random.Random(0))
@example(qk.atan(1.0 / (X - X)) + Z, random.Random(0))
def test_values_cached_on_a_cloud_do_not_depend_on_earlier_calls(e, rng):
    # a cloud keeps the value of every node evaluated on it: a cloud
    # warmed by the root's proper subtrees, in any order, must give the
    # root's values bit for bit as a fresh cloud of the same points does
    warm = qk.PointCloud(CHART, WIDE.values)
    nodes = subtrees(e.node)[1:]
    rng.shuffle(nodes)
    for node in nodes:
        ScalarExpr(CHART, node).sample(warm)
    cold = qk.PointCloud(CHART, WIDE.values)
    got, want = e.sample(warm), e.sample(cold)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).tolist() == np.isnan(want).tolist()


@PROPERTY
@given(EXPRESSIONS)
def test_depends_on_is_the_coordinates_of_the_tree(e):
    # the cached coordinate sets of shared nodes must agree with a walk
    for f in (e, e.simplified(), e.diff("x"), e.diff("y").simplified()):
        walk = {n.name for n in subtrees(f.node) if isinstance(n, Coord)}
        assert f.depends_on() == walk


# ---------------------------------------------------------------------------
# brackets of polynomial vector fields

BRACKET_CFG = make_cfg(CHART, samples=8, seed=23)
BRACKET_POINTS = BRACKET_CFG.points()
BRACKET_PROPERTY = settings(
    max_examples=6, derandomize=True, database=None, deadline=None
)


def polynomials(degree):
    """Polynomials of total degree <= degree with coefficients in -3..3."""
    monomials = [
        combo
        for total in range(degree + 1)
        for combo in combinations_with_replacement(CHART.coordinates(), total)
    ]

    def build(coefficients):
        terms = [CHART.constant(float(c)) for c in coefficients]
        for i, combo in enumerate(monomials):
            for coordinate in combo:
                terms[i] = terms[i] * coordinate
        return sum(terms[1:], terms[0]).simplified()

    size = len(monomials)
    return st.lists(st.integers(-3, 3), min_size=size, max_size=size).map(build)


def fields(degree):
    component = polynomials(degree)
    return st.tuples(component, component, component).map(
        lambda comps: qk.VectorField(CHART, comps)
    )


LINEAR = fields(1)
QUADRATIC = fields(2)


def assert_all_close(got, want):
    bound = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= 1e-9 * bound


@BRACKET_PROPERTY
@given(QUADRATIC, QUADRATIC)
def test_lie_bracket_is_antisymmetric(X, Y):
    # the reverse bracket is built on a copy of Y, so it is computed
    # symbolically instead of read back negated from the cache
    assert_all_close(
        qk.lie_bracket(X, Y).components_at(BRACKET_POINTS),
        -qk.lie_bracket(fresh_copy(Y), X).components_at(BRACKET_POINTS),
    )


@BRACKET_PROPERTY
@given(LINEAR, QUADRATIC, QUADRATIC)
def test_lie_bracket_jacobi_identity(X, Y, Z):
    terms = [
        qk.lie_bracket(U, qk.lie_bracket(V, W)).components_at(BRACKET_POINTS)
        for U, V, W in ((X, Y, Z), (Y, Z, X), (Z, X, Y))
    ]
    scale = max(1.0, float(np.max(np.abs(terms))))
    assert np.max(np.abs(sum(terms))) <= 1e-9 * scale


@BRACKET_PROPERTY
@given(QUADRATIC, QUADRATIC, LINEAR, LINEAR)
def test_schouten_bracket_of_bivectors_is_symmetric(X, Y, Z, W):
    P, Q = qk.wedge(X, Y), qk.wedge(Z, W)
    assert_all_close(
        qk.trivector_components_at(qk.schouten_bb(P, Q), BRACKET_POINTS),
        qk.trivector_components_at(qk.schouten_bb(Q, P), BRACKET_POINTS),
    )


@BRACKET_PROPERTY
@given(QUADRATIC, QUADRATIC)
def test_closed_form_self_schouten_matches_the_four_term_expansion(X, Y):
    # wedging copies makes schouten_bb expand all four terms
    P = qk.wedge(X, Y)
    expanded = qk.schouten_bb(P, qk.wedge(fresh_copy(X), fresh_copy(Y)))
    assert_all_close(
        qk.trivector_components_at(qk.schouten_bb(P, P), BRACKET_POINTS),
        qk.trivector_components_at(expanded, BRACKET_POINTS),
    )


@BRACKET_PROPERTY
@given(polynomials(1), LINEAR, LINEAR, LINEAR, LINEAR)
def test_schouten_route_matches_nested_brackets(c, X, Y, Z, W):
    # c X^Y + Z^W with a polynomial coefficient c; the coordinate triple
    # picks out the one independent component of [[B,B]] on a 3-D chart
    B = qk.wedge(X, Y).as_sum(c) + qk.wedge(Z, W).as_sum()
    triple = CHART.coordinates()
    oracle = np.abs(nested_cyclic_sums(B, [triple], BRACKET_POINTS)).max()
    got = qk.jacobi_identity_check(B, [triple], BRACKET_CFG).condition("cyclic-sum")
    assert got.skipped == 0
    assert abs(got.max_residual - oracle) <= 1e-9 * max(1.0, oracle)
