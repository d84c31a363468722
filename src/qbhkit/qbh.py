"""Assembly and verification of quasi-bi-Hamiltonian systems.

The construction: from three fields realizing the commutation algebra
and a Hamiltonian H solving X1(X2(H)) = 0, form XH = dH | (X1 ^ X2);
for a second function F form XF = dF | (XH ^ X3) and rho = -X3(F).
The contraction identity XF = {H,F} X3 + rho XH always holds; when F
is an integral ({H,F} = 0) and rho never vanishes on the domain, the
system is exact: XF = rho XH. If moreover X3(F) = -1, the rescaling is
trivial and the pair of structures is genuinely bi-Hamiltonian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import require_same_chart
from .errors import (
    DeltaViolatedError,
    HamiltonianConditionViolatedError,
    NonVanishingRhoError,
    NotAnIntegralError,
)
from .expr import ScalarExpr, constant, gradient_at
from .fields import (
    BivectorSum,
    TrivectorSum,
    VectorField,
    _as_bivector_sum,
    _det3,
    _index_combinations,
    contract_hamiltonian,
    independent_components_at,
    poisson_bracket,
    schouten_bb,
    wedge,
    zero_field,
)
from .criteria import check_delta, hamiltonian_condition
from .reports import CriterionReport, make_report
from .residuals import condition, require_nonvanishing, values_at
from .sampling import VerifyConfig


@dataclass(frozen=True)
class HamiltonianSystem:
    """A bivector (Poisson candidate) together with a Hamiltonian.

    Whether the bivector really is Poisson is a sampled check, not a
    construction-time invariant; run check_poisson_pair on each term.
    """

    chart: object
    bivector: BivectorSum
    hamiltonian: ScalarExpr


def hamiltonian_vector_field(system: HamiltonianSystem) -> VectorField:
    """dH contracted into the bivector, term by term."""
    result = zero_field(system.chart)
    for coeff, biv in system.bivector.terms:
        result = result + contract_hamiltonian(system.hamiltonian, biv).scaled(coeff)
    return result


@dataclass(frozen=True)
class QuasiBiHamiltonianSystem:
    """The verified tuple <chart, X1^X2, H, XH^X3, F> with derived data."""

    chart: object
    x1: VectorField
    x2: VectorField
    x3: VectorField
    xh: VectorField
    xf: VectorField
    hamiltonian: ScalarExpr
    integral: ScalarExpr
    rho: ScalarExpr
    composite: BivectorSum
    exact: bool
    bi_hamiltonian: bool
    report: CriterionReport


def build_qbh(
    X1: VectorField,
    X2: VectorField,
    X3: VectorField,
    H: ScalarExpr,
    F: ScalarExpr,
    cfg: VerifyConfig,
    require_exact: bool = True,
) -> QuasiBiHamiltonianSystem:
    """Construct and verify the quasi-bi-Hamiltonian system.

    Raises DeltaViolatedError / HamiltonianConditionViolatedError when
    the algebraic preconditions fail, NotAnIntegralError when exactness
    is required but {H,F} does not vanish, and NonVanishingRhoError
    when exactness is required but rho = -X3(F) vanishes (or changes
    sign) somewhere on the sampled domain.
    """
    chart = require_same_chart(X1, X2, X3, H, F)
    delta_report = check_delta(X1, X2, X3, cfg)
    if not delta_report.passed:
        raise DeltaViolatedError(delta_report)
    _, ham_report = hamiltonian_condition(X1, X2, H, cfg)
    if not ham_report.passed:
        raise HamiltonianConditionViolatedError(ham_report)

    points = cfg.points()
    xh = contract_hamiltonian(H, wedge(X1, X2))
    xf = contract_hamiltonian(F, wedge(xh, X3))
    rho = (-X3.apply(F)).simplified()
    hf = poisson_bracket(wedge(X1, X2), H, F)

    # the contraction identity XF = {H,F} X3 + rho XH holds for any F
    identity = xf - (X3.scaled(hf) + xh.scaled(rho))
    conditions = [condition("contraction-identity", identity, points)]

    integral_cond = condition("integral", hf, points, informative=not require_exact)
    conditions.append(integral_cond)
    exact = integral_cond.within(cfg.tol.residual)
    if require_exact and not exact:
        raise NotAnIntegralError(integral_cond.max_residual or np.inf)

    if require_exact:
        rho_values = require_nonvanishing(
            "rho", rho, points, cfg.tol.guard_eps, NonVanishingRhoError
        )
        if (rho_values > 0).any() and (rho_values < 0).any():
            raise NonVanishingRhoError(
                "rho changes sign inside the sampled domain"
            )

    conditions.append(
        condition("exactness", xf - xh.scaled(rho), points, informative=not exact)
    )
    conditions.append(condition("xf-of-F", xf.apply(F), points))

    bi_cond = condition(
        "x3-F-plus-1", X3.apply(F) + constant(chart, 1.0), points, informative=True
    )
    conditions.append(bi_cond)
    bi_hamiltonian = exact and bi_cond.within(cfg.tol.residual)
    if bi_hamiltonian:
        conditions.append(condition("bi-degeneration", xf - xh, points))

    one = constant(chart, 1.0)
    composite = BivectorSum(
        chart, ((one, wedge(X1, X2)), (one, wedge(xh, X3)))
    )
    notes = [
        f"exact: {exact}",
        f"bi-hamiltonian: {bi_hamiltonian}",
        f"rho = {rho}",
    ]
    report = make_report("qbh-build", conditions, len(points), cfg.tol, notes=notes)
    return QuasiBiHamiltonianSystem(
        chart=chart,
        x1=X1,
        x2=X2,
        x3=X3,
        xh=xh,
        xf=xf,
        hamiltonian=H,
        integral=F,
        rho=rho,
        composite=composite,
        exact=exact,
        bi_hamiltonian=bi_hamiltonian,
        report=report,
    )


def jacobi_identity_check(B, test_functions, cfg: VerifyConfig) -> CriterionReport:
    """Max |{{F,G},K} + {{G,K},F} + {{K,F},G}| over triples and points.

    The cyclic sum is -1/2 [[B,B]](dF, dG, dK) under the fields.py
    Schouten convention; each term c X^Y of B is folded into (cX)^Y,
    which for c = 1 and X simplified is X itself, so the wedges reuse
    the brackets cached on B's own fields. By antisymmetry
    [[B,B]](dF, dG, dK) is the sum over i < j < k of
    T^{ijk} det[dF, dG, dK]_{ijk}: the independent components of
    [[B,B]] times the 3x3 minors of the gradients, added on component
    rows in ``combinations`` order (see the layout note in
    ``residuals``). The gradients of all the test functions come from
    one ``gradient_at`` call, which forms those of polynomials with the
    same terms as one batch, and the minors of every triple are formed
    at once from that stack. Points where a component of B or of
    a gradient is undefined are skipped and counted, and so are points
    where a product overflows. Raises ValueError unless every triple
    holds exactly three functions.
    """
    triples = [tuple(triple) for triple in test_functions]
    if not triples:
        raise ValueError("at least one test-function triple is required")
    if any(len(triple) != 3 for triple in triples):
        raise ValueError("each test-function triple must hold three functions")
    B = _as_bivector_sum(B)
    points = cfg.points()
    wedges = [wedge(biv.left.scaled(c), biv.right) for c, biv in B.terms]
    tensor = TrivectorSum.zero(B.chart)
    for a in wedges:
        for b in wedges:
            tensor = tensor + schouten_bb(a, b)
    T, _ = independent_components_at(tensor, points)
    # the gradient rows of every test function, (3t, n, m); the minors
    # of the t triples are then (C(n,3), t, m)
    grads = gradient_at([f for triple in triples for f in triple], points)
    dF, dG, dK = (grads[s::3].transpose(1, 0, 2) for s in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        minors = _det3(dF, dG, dK, *_index_combinations(B.chart.dimension, 3))
        sums = np.zeros(minors.shape[1:])
        for component, minor in zip(T.T, minors):
            sums += component * minor
    # a point is usable if B and every gradient are defined there
    defined = np.isfinite(values_at(B, points)) & np.isfinite(grads).all(axis=(0, 1))
    per_point = np.where(defined, np.abs(-0.5 * sums).max(axis=0), np.nan)
    cond = condition("cyclic-sum", per_point, points)
    return make_report(
        "jacobi-identity",
        (cond,),
        len(points),
        cfg.tol,
        notes=(f"{len(triples)} test-function triple(s)",),
    )
