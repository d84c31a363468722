"""Seeded sampling, guards, tolerances, and finite-difference oracles.

Everything numeric in the package is certified at points drawn here.
Sampling is uniform over a box with rejection guards; the generator is
numpy's seeded PCG64. Candidates are drawn in blocks, and a block of k
draws continues the stream exactly as k single draws would, so the
points do not depend on block sizes: candidates are taken in stream
order and surplus draws are discarded. Identical (seed, domain) inputs
therefore give identical points, and reports built from them are
reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .chart import CoordinateChart, Point, PointCloud
from .errors import GuardTooRestrictiveError
from .expr import Coord, Const, ScalarExpr, nprod, nsum
from .fields import VectorField

GENERATOR_NAME = "numpy.random.PCG64"
DEFAULT_GUARD_EPS = 1e-6

# rejection attempts allowed per requested sample
_REJECTION_BUDGET = 100


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric thresholds used throughout verification."""

    residual: float = 1e-9
    fd: float = 1e-5
    independence: float = 1e-10
    guard_eps: float = 1e-6
    max_skip_fraction: float = 0.1

    def __post_init__(self):
        for name in ("residual", "fd", "independence", "guard_eps"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not 0 <= self.max_skip_fraction <= 1:
            raise ValueError("max_skip_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class Guard:
    """Accept a point only where |expression| >= min_abs and the
    expression is defined. min_abs of None means the default guard
    epsilon."""

    expression: ScalarExpr
    min_abs: float | None = None


def _check_interval(lo: float, hi: float) -> None:
    """Raise ValueError unless [lo, hi] is non-empty and of finite width."""
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if not np.isfinite(hi - lo):
        raise ValueError(f"interval [{lo}, {hi}] is not of finite width")


@dataclass(frozen=True)
class SampleDomain:
    """A box with guards, a sample count, and a seed."""

    chart: CoordinateChart
    box: tuple[tuple[float, float], ...]
    guards: tuple[Guard, ...] = ()
    samples: int = 100
    seed: int = 0

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if len(box) != self.chart.dimension:
            raise ValueError("box must give one interval per coordinate")
        for lo, hi in box:
            _check_interval(lo, hi)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @classmethod
    def cube(cls, chart, lo=-1.0, hi=1.0, guards=(), samples=100, seed=0):
        box = tuple((lo, hi) for _ in chart.names)
        return cls(chart, box, tuple(guards), samples, seed)

    def with_overrides(self, samples=None, seed=None) -> "SampleDomain":
        return SampleDomain(
            self.chart,
            self.box,
            self.guards,
            self.samples if samples is None else samples,
            self.seed if seed is None else seed,
        )


def _guard_limit(guard: Guard) -> float:
    return DEFAULT_GUARD_EPS if guard.min_abs is None else guard.min_abs


def _passes_guards(point: Point, guards) -> bool:
    """The guard test of one point: ``_guard_mask`` on a one-row cloud."""
    return bool(_guard_mask(PointCloud(point.chart, [point.values]), guards)[0])


def _guard_mask(cloud: PointCloud, guards) -> np.ndarray:
    """True where every guard is defined and at least its limit in
    absolute value (NaN, the array evaluator's undefined, fails)."""
    mask = np.ones(len(cloud), dtype=bool)
    for guard in guards:
        mask &= np.abs(guard.expression.sample(cloud)) >= _guard_limit(guard)
    return mask


def sample_points(domain: SampleDomain) -> PointCloud:
    """Deterministic uniform samples over the box, rejecting guard
    violations. Raises GuardTooRestrictiveError once the rejection
    budget (100x the requested count) is exhausted.

    Each block holds about as many candidates as are expected to yield
    the points still missing at the acceptance rate seen so far, so the
    whole budget is never drawn at once.
    """
    rng = np.random.default_rng(domain.seed)
    lows = np.array([lo for lo, _ in domain.box])
    highs = np.array([hi for _, hi in domain.box])
    budget = _REJECTION_BUDGET * domain.samples
    accepted = []
    found = 0
    attempts = 0
    while found < domain.samples:
        if attempts >= budget:
            raise GuardTooRestrictiveError(
                f"rejected {attempts} candidate points while looking for "
                f"{domain.samples}; guards are too restrictive for the box"
            )
        missing = domain.samples - found
        if found:
            # enough candidates for the missing points at the rate so far
            wanted = -(-missing * attempts // found)
        else:
            # nothing accepted yet: double the candidates drawn
            wanted = max(missing, attempts)
        block = min(wanted, budget - attempts)
        candidates = rng.uniform(lows, highs, size=(block, len(lows)))
        attempts += block
        if domain.guards:
            candidates = candidates[
                _guard_mask(PointCloud(domain.chart, candidates), domain.guards)
            ]
        accepted.append(candidates[:missing])
        found += len(accepted[-1])
    return PointCloud(domain.chart, np.concatenate(accepted))


@dataclass(frozen=True)
class VerifyConfig:
    """Sampling domain plus tolerances: the cfg bundle every check takes."""

    domain: SampleDomain
    tol: ToleranceConfig = field(default_factory=ToleranceConfig)

    def points(self) -> PointCloud:
        return sample_points(self.domain)


# ---------------------------------------------------------------------------
# finite-difference oracles


def fd_partial(f: ScalarExpr, p: Point, index: int, h: float) -> float:
    """Central difference df/dx_index at p with relative step
    h * max(1, |p_index|)."""
    step = h * max(1.0, abs(p.values[index]))
    upper = f.at(p.shifted(index, step))
    lower = f.at(p.shifted(index, -step))
    return (upper - lower) / (2.0 * step)


def fd_apply_field(X: VectorField, f: ScalarExpr, p: Point, h: float = 1e-5) -> float:
    """Finite-difference counterpart of the derivation action X(f)."""
    total = 0.0
    for index, comp in enumerate(X.components):
        if comp.is_zero():
            continue
        total += comp.at(p) * fd_partial(f, p, index, h)
    return total


def fd_lie_bracket(X: VectorField, Y: VectorField, p: Point, h: float = 1e-5) -> np.ndarray:
    """Componentwise X(Y^i) - Y(X^i) with central differences."""
    comps = []
    for yi, xi in zip(Y.components, X.components):
        comps.append(fd_apply_field(X, yi, p, h) - fd_apply_field(Y, xi, p, h))
    return np.array(comps)


# ---------------------------------------------------------------------------
# seeded test-function generation


def random_polynomial(chart: CoordinateChart, rng, degree: int = 3) -> ScalarExpr:
    """A dense random polynomial of total degree <= degree with
    coefficients uniform in [-1, 1], deterministic for a given rng state."""
    n = chart.dimension
    terms = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(n), total):
            coeff = float(rng.uniform(-1.0, 1.0))
            factors = [Const(coeff)]
            factors.extend(Coord(chart.names[i]) for i in combo)
            terms.append(nprod(factors))
    return ScalarExpr(chart, nsum(terms))
