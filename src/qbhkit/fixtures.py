"""Shipped example problems and their verification plans.

Each fixture is a packaged problem file plus a runner that exercises
the checks the example is meant to demonstrate. Runners return the
criterion reports in a fixed order; documentation-only checks (the
textbook candidate components of the rotation example, the printed
coefficient comparison) are re-badged as informative so an expected
discrepancy does not fail the run.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .criteria import (
    check_compatibility,
    check_delta,
    check_jacobi,
    check_linear_realization,
    delta_structure_functions,
    hamiltonian_condition,
    hojman_check,
    lemma4_coefficients,
    lemma4_residuals,
    linear_realization,
)
from .fields import VectorField, contract_hamiltonian, wedge
from .problem import ProblemSpec, parse_problem
from .qbh import build_qbh, jacobi_identity_check
from .reports import as_informative
from .sampling import VerifyConfig, random_polynomial


def _algebra_reports(spec: ProblemSpec, cfg: VerifyConfig):
    """The first five reports of the exp and rotation fixtures: the
    commutation algebra, compatibility, the Hamiltonian condition and
    the Lemma 4 residuals and comparison."""
    x1, x2, x3 = spec.fields["X1"], spec.fields["X2"], spec.fields["X3"]
    H = spec.functions["H"]
    xh = contract_hamiltonian(H, wedge(x1, x2))

    reports = [check_delta(x1, x2, x3, cfg)]
    reports.append(check_compatibility(x1, x2, xh, x3, cfg))
    reports.append(hamiltonian_condition(x1, x2, H, cfg)[1])

    free = delta_structure_functions(x1, x2, H)
    result = lemma4_coefficients(x1, x2, x3, H, free, cfg)
    reports.append(lemma4_residuals(result.coefficients, x1, x2, x3, H, cfg))
    reports.append(result.comparison)
    return reports


def _run_exp(spec: ProblemSpec, cfg: VerifyConfig):
    x1, x2, x3 = spec.fields["X1"], spec.fields["X2"], spec.fields["X3"]
    H = spec.functions["H"]
    reports = _algebra_reports(spec, cfg)

    system = build_qbh(x1, x2, x3, H, spec.functions["F"], cfg)
    reports.append(system.report.renamed("qbh-exact"))
    system2 = build_qbh(x1, x2, x3, H, spec.functions["F2"], cfg)
    reports.append(system2.report.renamed("qbh-bihamiltonian"))

    rng = np.random.default_rng(cfg.domain.seed)
    triples = [
        tuple(random_polynomial(spec.chart, rng) for _ in range(3))
        for _ in range(3)
    ]
    reports.append(
        jacobi_identity_check(system.composite, triples, cfg).renamed(
            "composite-jacobi"
        )
    )
    return reports


def _run_rotation(spec: ProblemSpec, cfg: VerifyConfig):
    reports = _algebra_reports(spec, cfg)
    x1, x2 = spec.fields["X1"], spec.fields["X2"]

    # the textbook closed-form candidate (arbitrary functions set to
    # A=1, B=0, C=0) does not satisfy the algebra; record its residuals
    candidate = VectorField(
        spec.chart,
        (spec.functions["P1"], spec.functions["P2"], spec.functions["P3"]),
    )
    printed = check_delta(x1, x2, candidate, cfg)
    reports.append(
        as_informative(
            printed,
            "printed-candidate-delta",
            notes=(
                "textbook closed-form candidate; its residuals are "
                "documented and a discrepancy here is expected",
            ),
        )
    )
    return reports


def _run_jacobi_structure(spec: ProblemSpec, cfg: VerifyConfig):
    return [
        check_jacobi(
            spec.fields["X1"], spec.fields["X2"], spec.fields["XH"], cfg
        )
    ]


def _run_linear(spec: ProblemSpec, cfg: VerifyConfig):
    realization = linear_realization(((1.0,),), spec.chart)
    candidate = (spec.functions["P1"], spec.functions["P2"])
    reports = [check_linear_realization(realization, candidate, cfg)]
    reports.append(
        check_delta(
            realization.linear_field,
            realization.shift_field,
            spec.fields["X3"],
            cfg,
        )
    )
    return reports


def _run_hojman(spec: ProblemSpec, cfg: VerifyConfig):
    x1, x3 = spec.fields["X1"], spec.fields["X3"]
    reports = [hojman_check(x1, x3, spec.functions["H"], cfg).report]
    reports.append(
        hojman_check(x1, x3, spec.functions["H2"], cfg).report.renamed(
            "hojman-quadratic"
        )
    )
    return reports


@dataclass(frozen=True)
class Fixture:
    name: str
    title: str
    runner: object


FIXTURES = {
    f.name: f
    for f in (
        Fixture(
            "exp-realization",
            "exponential realization, exact and bi-Hamiltonian builds",
            _run_exp,
        ),
        Fixture(
            "rotation",
            "planar rotation realization with documented candidate residuals",
            _run_rotation,
        ),
        Fixture(
            "so3-jacobi", "rotation-algebra Jacobi structure", _run_jacobi_structure
        ),
        Fixture(
            "heisenberg-jacobi", "Heisenberg Jacobi structure", _run_jacobi_structure
        ),
        Fixture(
            "linear-abelian",
            "linear realization with logarithmic candidate",
            _run_linear,
        ),
        Fixture("hojman-2d", "first-order reduction fixture", _run_hojman),
    )
}


def fixture_names() -> list[str]:
    return list(FIXTURES)


def load_fixture(name: str) -> ProblemSpec:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {fixture_names()}")
    text = (
        resources.files(__package__)
        .joinpath(f"problems/{name}.prob")
        .read_text(encoding="utf-8")
    )
    return parse_problem(text)


def run_fixture(name: str, samples=None, seed=None, residual=None):
    """Load a fixture and run its plan; returns (spec, reports)."""
    spec = load_fixture(name)
    cfg = spec.config(samples=samples, seed=seed, residual=residual)
    runner = FIXTURES[name].runner
    return spec, runner(spec, cfg)
