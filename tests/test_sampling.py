"""Sampling determinism, guards, one cloud per domain, and the
finite-difference oracles."""
import gc
import weakref
from itertools import combinations_with_replacement

import numpy as np
import pytest

import qbhkit as qk
import qbhkit.expr as expr
import qbhkit.fields as fields
import qbhkit.residuals as residuals
import qbhkit.sampling as sampling
from qbhkit.chart import MAX_CACHED_VALUES
from qbhkit.expr import Const, Coord, nprod, nsum
from qbhkit.fixtures import FIXTURES, fixture_names, load_fixture, run_fixture
from qbhkit.sampling import MAX_SAMPLE_VALUES

from helpers import exp_triple, make_cfg, rotation_cfg, same_tree

CHART = qk.CoordinateChart(("x1", "x2", "x3"))


def test_sampling_is_deterministic():
    domain = qk.SampleDomain.cube(CHART, 0.0, 1.0, samples=10, seed=42)
    first = qk.sample_points(domain)
    second = qk.sample_points(domain)
    assert len(first) == 10
    assert [p.values for p in first] == [p.values for p in second]


def test_different_seeds_differ():
    a = qk.sample_points(qk.SampleDomain.cube(CHART, 0.0, 1.0, samples=5, seed=1))
    b = qk.sample_points(qk.SampleDomain.cube(CHART, 0.0, 1.0, samples=5, seed=2))
    assert [p.values for p in a] != [p.values for p in b]


def test_guard_is_respected():
    guard = qk.Guard(CHART.coordinate("x1"), 0.5)
    domain = qk.SampleDomain.cube(CHART, -1.0, 1.0, guards=(guard,), samples=50, seed=3)
    for p in qk.sample_points(domain):
        assert abs(p["x1"]) >= 0.5


def test_guard_too_restrictive():
    guard = qk.Guard(CHART.coordinate("x1"), 2.0)
    domain = qk.SampleDomain.cube(CHART, 0.0, 1.0, guards=(guard,), samples=5, seed=3)
    with pytest.raises(qk.GuardTooRestrictiveError):
        qk.sample_points(domain)


def test_guard_rejects_undefined_points():
    # a guard that is undefined off its domain rejects those points
    guard = qk.Guard(qk.parse_expression("sqrt(x1 - 0.5)", CHART))
    domain = qk.SampleDomain.cube(CHART, 0.0, 1.0, guards=(guard,), samples=40, seed=9)
    for p in qk.sample_points(domain):
        assert p["x1"] >= 0.5


def test_domain_validation():
    with pytest.raises(ValueError):
        qk.SampleDomain(CHART, ((1.0, 1.0),) * 3)
    with pytest.raises(ValueError):
        qk.SampleDomain(CHART, ((0.0, 1.0),) * 2)
    with pytest.raises(ValueError):
        qk.SampleDomain.cube(CHART, samples=0)


def test_samples_times_dimension_is_capped_before_sampling():
    # only the domains are built: nothing of this size is allocated
    limit = MAX_SAMPLE_VALUES // CHART.dimension
    assert qk.SampleDomain.cube(CHART, samples=limit).samples == limit
    for samples in (limit + 1, 10**11):
        with pytest.raises(ValueError, match="must be at most 1000000"):
            qk.SampleDomain.cube(CHART, samples=samples)
        with pytest.raises(ValueError, match="must be at most 1000000"):
            qk.SampleDomain.cube(CHART, samples=10).with_overrides(samples=samples)


def rare_guard_domain():
    """A domain whose two guards accept about 1.2 % of the box."""
    guards = (
        qk.Guard(CHART.coordinate("x1"), 0.9),
        qk.Guard(CHART.coordinate("x2"), 0.88),
    )
    return qk.SampleDomain.cube(CHART, guards=guards, samples=40, seed=11)


@pytest.mark.parametrize(
    "domain",
    [rotation_cfg(samples=200, seed=5)[-1].domain, rare_guard_domain()],
    ids=["rotation-guard", "rare-guard"],
)
def test_capped_blocks_draw_the_same_points(domain, monkeypatch):
    # a fresh equal domain: ``domain`` itself must still draw its cloud
    uncapped = qk.sample_points(domain.with_overrides())
    rows = 16
    blocks = []
    guard_mask = sampling._guard_mask

    def recording_guard_mask(cloud, guards):
        blocks.append(len(cloud))
        return guard_mask(cloud, guards)

    monkeypatch.setattr(sampling, "MAX_SAMPLE_VALUES", rows * CHART.dimension)
    monkeypatch.setattr(sampling, "_guard_mask", recording_guard_mask)
    capped = qk.sample_points(domain)
    assert capped.values.tobytes() == uncapped.values.tobytes()
    assert max(blocks) == rows
    assert len(blocks) > len(capped) // rows


# ---------------------------------------------------------------------------
# one cloud per domain


def test_a_config_samples_its_cloud_once():
    cfg = make_cfg(CHART, samples=30, seed=4)
    assert cfg.points() is cfg.points()
    again = qk.sample_points(cfg.domain.with_overrides())
    assert again is not cfg.points()
    assert again.values.tobytes() == cfg.points().values.tobytes()


def test_a_fixture_pass_draws_one_cloud_per_config(monkeypatch):
    clouds = []
    sample_points = sampling.sample_points

    def recording_sample_points(domain):
        clouds.append(sample_points(domain))
        return clouds[-1]

    monkeypatch.setattr(sampling, "sample_points", recording_sample_points)
    for name in fixture_names():
        run_fixture(name)
    assert len(clouds) == 24
    assert len({id(cloud) for cloud in clouds}) == 6


def held_arrays(cloud):
    """The distinct arrays ``cloud`` holds: its points, its node values,
    its field rows and every array of its bases, whose columns are the
    rows of their fields."""
    arrays = [cloud.values]
    arrays += [v for v in cloud.cache.values() if isinstance(v, np.ndarray)]
    for value in cloud.derived.values():
        if isinstance(value, np.ndarray):
            arrays.append(value)
        else:
            arrays += [*value.columns, value.defined, value.smallest, value.settled]
            arrays += [value.independent, *(value.factors or ())]
    return list({id(array): array for array in arrays}.values())


def held_values(cloud):
    """The values ``cloud`` holds by ``np.size``: one per entry of an
    array, one for a constant, every entry of a basis's arrays."""
    values = sum(np.size(value) for value in cloud.cache.values())
    return values + sum(value.size for value in cloud.derived.values())


def test_a_config_frees_its_cloud_with_it():
    # no reference cycle holds the cloud or its cache: with the cycle
    # collector off, dropping the config frees them, while the reports
    # built from the cloud stay
    spec = load_fixture("rotation")
    gc.disable()
    try:
        cfg = spec.config()
        reports = FIXTURES["rotation"].runner(spec, cfg)
        cloud = cfg.points()
        assert cloud.cache and cloud.derived
        held = [weakref.ref(array) for array in held_arrays(cloud)]
        # the points, the array of each distinct node evaluated on them,
        # the rows of each distinct field and the nine arrays each
        # distinct basis makes, its columns being its fields' rows: a
        # structure evaluated by several checks is one node, a field or
        # basis built alike by several checks one entry
        assert len(held) == 1 + 63 + 10 + 4 * 9
        del cfg, cloud
        assert [ref() for ref in held] == [None] * len(held)
        assert len(reports) > 1
    finally:
        gc.enable()


@pytest.mark.parametrize("name", fixture_names())
def test_every_array_a_cloud_holds_is_read_only(name):
    # node values, field rows and every array of a basis: a consumer
    # that writes to one raises instead of changing a later check
    spec = load_fixture(name)
    cfg = spec.config()
    FIXTURES[name].runner(spec, cfg)
    arrays = held_arrays(cfg.points())
    assert len(arrays) > 1
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_public_results_are_writable_copies():
    chart, x1, x2, x3, cfg = rotation_cfg()
    points = cfg.points()
    x = chart.coordinate("x1")
    exprs = (x, (x * x + 1.0).simplified(), chart.constant(2.5))
    fields_ = (x3, qk.lie_bracket(x1, x3))
    results = [lambda e=e: e.sample(points) for e in exprs]
    results += [lambda e=e: qk.evaluate_at_points(e, points) for e in exprs]
    results += [lambda X=X: X.components_at(points) for X in fields_]
    for result in results:
        first = result()
        want = first.copy()
        assert first.flags.writeable
        first[...] = np.nan
        assert result().tobytes() == want.tobytes()
    # what the cloud holds is as it was
    assert points.values.flags.writeable is False
    for X in fields_:
        rows = points.derived[fields.field_key(X)]
        assert rows.tobytes() == X.components_at(points).T.tobytes()


def test_one_cache_bound_holds_over_a_whole_run(monkeypatch):
    # every check of the run evaluates on one cloud, whose node values,
    # field rows and bases count as the values they hold (one per entry
    # of an array, one for a constant, every entry of a basis's arrays);
    # the bound is tested once per evaluation or held row array or
    # basis, so only the addition that crosses it may end past it, by
    # its own new values
    evaluate = expr._evaluate
    hold = qk.PointCloud.hold
    calls = []

    def recorded(add):
        def wrapper(*args):
            cloud = args[1] if add is evaluate else args[0]
            before = held_values(cloud)
            assert cloud.cached_values == before
            result = add(*args)
            calls.append((add, cloud, before, held_values(cloud) - before))
            return result

        return wrapper

    monkeypatch.setattr(expr, "_evaluate", recorded(evaluate))
    monkeypatch.setattr(fields, "_evaluate", recorded(evaluate))
    monkeypatch.setattr(residuals, "_evaluate", recorded(evaluate))
    monkeypatch.setattr(qk.PointCloud, "hold", recorded(hold))
    spec = load_fixture("rotation")
    cfg = spec.config(samples=5000)
    FIXTURES["rotation"].runner(spec, cfg)
    cloud = cfg.points()
    shared = [(add, before, added) for add, c, before, added in calls if c is cloud]
    # node values, rows and bases all join the one count
    assert {add for add, _, added in shared if added} == {evaluate, hold}
    assert len(shared) > 100
    under = [added for _, before, added in shared if before < MAX_CACHED_VALUES]
    over = [added for _, before, added in shared if before >= MAX_CACHED_VALUES]
    assert over and set(over) == {0}
    assert MAX_CACHED_VALUES <= cloud.cached_values == held_values(cloud)
    assert cloud.cached_values <= MAX_CACHED_VALUES + under[-1]


def test_tolerance_validation():
    with pytest.raises(ValueError):
        qk.ToleranceConfig(residual=0.0)
    with pytest.raises(ValueError):
        qk.ToleranceConfig(max_skip_fraction=1.5)


@pytest.mark.parametrize("interval", [(-np.inf, 1.0), (-1e308, 1e308)])
def test_domain_rejects_an_interval_of_infinite_width(interval):
    # numpy's uniform draw overflows on such an interval
    with pytest.raises(ValueError, match="finite width"):
        qk.SampleDomain(CHART, (interval, (0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["residual", "fd", "independence", "guard_eps"])
def test_tolerance_must_be_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        qk.ToleranceConfig(**{name: value})


# ---------------------------------------------------------------------------
# finite differences


def test_fd_of_constant_vanishes():
    chart, x1, _, _ = exp_triple()
    f = chart.constant(3.0)
    p = chart.point(0.1, 0.2, 0.3)
    assert qk.fd_apply_field(x1, f, p) == 0.0


def test_fd_exp_derivative():
    chart = qk.CoordinateChart(("x", "y", "z"))
    dz = qk.coordinate_field(chart, "z")
    f = qk.parse_expression("exp(z)", chart)
    p = chart.point(0.0, 0.0, 0.0)
    assert qk.fd_apply_field(dz, f, p) == pytest.approx(1.0, abs=1e-9)


def test_fd_oracle_exact_on_cubics():
    # central differences are exact to O(h^2) with bounded third
    # derivatives: degree <= 3 polynomials agree to 1e-8 on the unit box
    chart = qk.CoordinateChart(("x", "y", "z"))
    rng = np.random.default_rng(33)
    points = make_cfg(chart, samples=20, seed=12).points()
    for _ in range(3):
        f = qk.random_polynomial(chart, rng, degree=3)
        comps = tuple(qk.random_polynomial(chart, rng, degree=1) for _ in range(3))
        X = qk.VectorField(chart, comps)
        sym = qk.apply_field(X, f)
        for p in points:
            assert qk.fd_apply_field(X, f, p) == pytest.approx(
                sym.at(p), abs=1e-8
            )


def test_fd_bracket_self_vanishes():
    chart, x1, _, _ = exp_triple()
    p = chart.point(0.3, -0.2, 0.5)
    np.testing.assert_allclose(qk.fd_lie_bracket(x1, x1, p), 0.0, atol=1e-9)


def test_fd_bracket_exp_fixture_at_origin():
    # [X3, X1] = e^z d/dx: components (1, 0, 0) at the origin
    chart, x1, _, x3 = exp_triple()
    got = qk.fd_lie_bracket(x3, x1, chart.point(0.0, 0.0, 0.0))
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-9)


def test_fd_bracket_so3():
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    x1 = qk.VectorField.from_mapping(
        chart, {"x2": -chart.coordinate("x3"), "x3": chart.coordinate("x2")}
    )
    x2 = qk.VectorField.from_mapping(
        chart, {"x1": chart.coordinate("x3"), "x3": -chart.coordinate("x1")}
    )
    p = chart.point(1.0, 1.0, 1.0)
    sym = qk.lie_bracket(x1, x2).at(p)
    np.testing.assert_allclose(qk.fd_lie_bracket(x1, x2, p), sym, atol=1e-9)


def test_random_polynomial_is_seed_deterministic():
    chart = qk.CoordinateChart(("x", "y", "z"))
    a = qk.random_polynomial(chart, np.random.default_rng(77))
    b = qk.random_polynomial(chart, np.random.default_rng(77))
    assert str(a) == str(b)


def per_monomial_polynomial(chart, rng, degree):
    """random_polynomial as built with one coefficient draw per monomial."""
    terms = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(chart.dimension), total):
            factors = [Const(float(rng.uniform(-1.0, 1.0)))]
            factors.extend(Coord(chart.names[i]) for i in combo)
            terms.append(nprod(factors))
    return qk.ScalarExpr(chart, nsum(terms))


@pytest.mark.parametrize("n", [1, 3, 9])
@pytest.mark.parametrize("degree", [0, 1, 3, 4])
def test_random_polynomial_draws_as_one_draw_per_monomial(n, degree):
    # one draw of all coefficients gives the same coefficients, and
    # leaves the generator where one draw per monomial leaves it
    chart = qk.CoordinateChart(tuple(f"x{i}" for i in range(n)))
    rng, ref_rng = np.random.default_rng(71), np.random.default_rng(71)
    for _ in range(3):
        got = qk.random_polynomial(chart, rng, degree=degree)
        want = per_monomial_polynomial(chart, ref_rng, degree)
        assert same_tree(got.node, want.node)
        assert str(got) == str(want)
    assert rng.random(4).tobytes() == ref_rng.random(4).tobytes()
