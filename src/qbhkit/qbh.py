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
from itertools import permutations

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
    contract_hamiltonian,
    poisson_bracket,
    schouten_bb,
    trivector_components_at,
    wedge,
    zero_field,
)
from .criteria import check_delta, hamiltonian_condition
from .reports import CriterionReport, make_report
from .residuals import condition, finite_points, require_nonvanishing, values_at
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
    Schouten convention; each term c X^Y of B is folded into (cX)^Y.
    Points where a component of B or a cyclic sum is undefined are
    skipped and counted. The contraction adds the products of the
    entries of [[B,B]] with distinct indices in the order, and so with
    the bits, of ``np.einsum("mijk,mi,mj,mk->m", ...)`` on the full
    array (see ``_contract``).
    """
    triples = list(test_functions)
    if not triples:
        raise ValueError("at least one test-function triple is required")
    B = _as_bivector_sum(B)
    points = cfg.points()
    wedges = [wedge(biv.left.scaled(c), biv.right) for c, biv in B.terms]
    tensor = TrivectorSum.zero(B.chart)
    for a in wedges:
        for b in wedges:
            tensor = tensor + schouten_bb(a, b)
    T = trivector_components_at(tensor, points)
    rows = []
    for F, G, K in triples:
        dF, dG, dK = (gradient_at(f, points) for f in (F, G, K))
        rows.append(-0.5 * _contract(T, dF, dG, dK))
    # a point is usable if B and the cyclic sum of every triple are defined
    defined = np.isfinite(values_at(B, points))
    per_point = np.where(defined, np.abs(np.vstack(rows)).max(axis=0), np.nan)
    cond = condition("cyclic-sum", per_point, points)
    return make_report(
        "jacobi-identity",
        (cond,),
        len(points),
        cfg.tol,
        notes=(f"{len(triples)} test-function triple(s)",),
    )


def _contract(T, dF, dG, dK):
    """T(dF, dG, dK) at each point, for the C-ordered (m, n, n, n)
    antisymmetric T and (m, n) gradients (component-major, as
    ``gradient_at`` returns them).

    numpy's einsum over all n^3 entries adds the products
    ((T^{ijk} dF_i) dG_j) dK_k one entry at a time in C order (i, j, k).
    Only the n(n-1)(n-2) entries with distinct indices are nonzero, so
    this adds just those, in the same order; a zero entry adds +-0,
    which changes at most the sign of a zero. At a point where a
    gradient component is not finite, the zero entries made the sum NaN
    (0 * inf), and so does this.
    """
    out = np.zeros(len(T))
    with np.errstate(all="ignore"):
        for i, j, k in permutations(range(T.shape[1]), 3):
            term = T[:, i, j, k] * dF[:, i]
            term *= dG[:, j]
            term *= dK[:, k]
            out += term
    out[~(finite_points(dF) & finite_points(dG) & finite_points(dK))] = np.nan
    return out
