"""Command-line interface.

Subcommands:

    check poisson|automorphism|compat|delta|hamiltonian|jacobi|hojman
    coeffs lemma4
    build qbh
    example list | example run NAME

Exit codes: 0 every criterion passed, 1 a residual check failed,
2 input or usage error, 3 singularity / guard error (degenerate bases,
vanishing rho, unsatisfiable guards).

Field roles X1, X2, X3, XH are bound positionally by repeated --field
flags; unbound roles fall back to fields with those names in the
problem file, and XH (where a Hamiltonian is available) falls back to
the contraction of dH with X1 ^ X2. --H/--F accept the name of a
function section or, failing that, inline expression text.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .criteria import (
    check_automorphism,
    check_compatibility,
    check_delta,
    check_jacobi,
    check_poisson_pair,
    delta_structure_functions,
    hamiltonian_condition,
    hojman_check,
    lemma4_coefficients,
    lemma4_residuals,
)
from .errors import (
    AllPointsSkippedError,
    DeltaViolatedError,
    EvaluationDomainError,
    GuardTooRestrictiveError,
    HamiltonianConditionViolatedError,
    NonVanishingRhoError,
    NotAnIntegralError,
    PreconditionResidualError,
    QbhError,
    SingularFactorError,
)
from .fields import contract_hamiltonian, wedge
from .fixtures import FIXTURES, fixture_names, load_fixture
from .parser import parse_expression
from .problem import load_problem
from .qbh import build_qbh
from .reports import build_run_report, render_json, render_text

_USAGE_ERRORS = (QbhError,)
_SINGULAR_ERRORS = (
    NonVanishingRhoError,
    SingularFactorError,
    GuardTooRestrictiveError,
    AllPointsSkippedError,
    EvaluationDomainError,
)
_RESIDUAL_ERRORS = (
    DeltaViolatedError,
    HamiltonianConditionViolatedError,
    NotAnIntegralError,
    PreconditionResidualError,
)

_ROLES = ("X1", "X2", "X3", "XH")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbhkit",
        description="verify commutation-algebra criteria and build "
        "quasi-bi-Hamiltonian systems from problem files",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", metavar="PATH", help="problem file")
        p.add_argument(
            "--format", choices=("text", "json"), default=None,
            help="report format (default text; QBHKIT_FORMAT overrides)",
        )
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--tolerance", type=float, default=None,
            help="override the residual tolerance",
        )
        p.add_argument(
            "--field", action="append", default=[], metavar="NAME",
            help="bind positional roles X1, X2, X3, XH in order (repeatable)",
        )
        p.add_argument("--H", default=None, metavar="NAME")
        p.add_argument("--F", default=None, metavar="NAME")

    check = sub.add_parser("check", help="run one criterion")
    check.add_argument(
        "what",
        choices=(
            "poisson",
            "automorphism",
            "compat",
            "delta",
            "hamiltonian",
            "jacobi",
            "hojman",
        ),
    )
    common(check)

    coeffs = sub.add_parser("coeffs", help="structure coefficients")
    coeffs.add_argument("what", choices=("lemma4",))
    common(coeffs)

    build = sub.add_parser("build", help="assemble a system")
    build.add_argument("what", choices=("qbh",))
    common(build)

    example = sub.add_parser("example", help="shipped fixtures")
    example.add_argument("what", choices=("list", "run"))
    example.add_argument("name", nargs="?", default=None)
    common(example)

    return parser


class _Usage(Exception):
    pass


def _resolve_spec(args):
    if args.command == "example":
        raise AssertionError("fixtures are resolved separately")
    if not args.input:
        raise _Usage("--input PATH is required for this command")
    return load_problem(args.input)


def _bound_field(args, spec, role):
    index = _ROLES.index(role)
    if index < len(args.field):
        name = args.field[index]
        if name not in spec.fields:
            raise _Usage(f"no field named {name!r} in the problem file")
        return spec.fields[name]
    return spec.fields.get(role)


def _require_field(args, spec, role):
    field = _bound_field(args, spec, role)
    if field is None:
        raise _Usage(
            f"role {role} is unbound: pass --field or define [field {role}]"
        )
    return field


def _function(args, spec, flag_value, default_name):
    name = flag_value or default_name
    if name in spec.functions:
        return spec.functions[name]
    if flag_value is not None:
        # fall back to treating the flag as inline expression text
        return parse_expression(flag_value, spec.chart)
    raise _Usage(
        f"no function named {name!r} in the problem file; "
        f"define [function {name}] or pass an expression"
    )


def _resolve_xh(args, spec):
    explicit = _bound_field(args, spec, "XH")
    if explicit is not None:
        return explicit
    H = spec.functions.get(args.H or "H")
    if H is None and args.H:
        H = parse_expression(args.H, spec.chart)
    if H is None:
        raise _Usage("role XH is unbound and no Hamiltonian is available")
    x1 = _require_field(args, spec, "X1")
    x2 = _require_field(args, spec, "X2")
    return contract_hamiltonian(H, wedge(x1, x2))


def _config(spec, args):
    """The run's VerifyConfig; out-of-range --samples, --seed or
    --tolerance values are usage errors."""
    try:
        return spec.config(
            samples=args.samples, seed=args.seed, residual=args.tolerance
        )
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _execute(args):
    """Returns (command string, spec, [CriterionReport, ...])."""
    if args.command == "example":
        if args.what == "list":
            return ("example list", None, None)
        if not args.name:
            raise _Usage("example run needs a fixture name")
        if args.name not in FIXTURES:
            raise _Usage(
                f"unknown fixture {args.name!r}; known: {fixture_names()}"
            )
        spec = load_fixture(args.name)
        cfg = _config(spec, args)
        reports = FIXTURES[args.name].runner(spec, cfg)
        return (f"example run {args.name}", spec, reports)

    spec = _resolve_spec(args)
    cfg = _config(spec, args)

    if args.command == "check":
        x1 = _require_field(args, spec, "X1")
        if args.what == "hojman":
            x3 = _require_field(args, spec, "X3")
            H = _function(args, spec, args.H, "H")
            reports = [hojman_check(x1, x3, H, cfg).report]
            return ("check hojman", spec, reports)
        x2 = _require_field(args, spec, "X2")
        if args.what == "poisson":
            reports = [check_poisson_pair(x1, x2, cfg)]
        elif args.what == "automorphism":
            xh = _resolve_xh(args, spec)
            reports = [check_automorphism(xh, x1, x2, cfg)]
        elif args.what == "compat":
            x3 = _require_field(args, spec, "X3")
            xh = _resolve_xh(args, spec)
            reports = [check_compatibility(x1, x2, xh, x3, cfg)]
        elif args.what == "delta":
            x3 = _require_field(args, spec, "X3")
            reports = [check_delta(x1, x2, x3, cfg)]
        elif args.what == "hamiltonian":
            H = _function(args, spec, args.H, "H")
            reports = [hamiltonian_condition(x1, x2, H, cfg)[1]]
        else:  # jacobi
            xh = _bound_field(args, spec, "XH")
            if xh is None:
                raise _Usage(
                    "check jacobi needs the structure field: pass a fourth "
                    "--field or define [field XH]"
                )
            reports = [check_jacobi(x1, x2, xh, cfg)]
        return (f"check {args.what}", spec, reports)

    if args.command == "coeffs":
        x1 = _require_field(args, spec, "X1")
        x2 = _require_field(args, spec, "X2")
        x3 = _require_field(args, spec, "X3")
        H = _function(args, spec, args.H, "H")
        free_names = ("N1", "D1", "D2", "E1", "E2")
        if all(name in spec.functions for name in free_names):
            free = tuple(spec.functions[name] for name in free_names)
        else:
            free = delta_structure_functions(x1, x2, H)
        result = lemma4_coefficients(x1, x2, x3, H, free, cfg)
        residuals = lemma4_residuals(result.coefficients, x1, x2, x3, H, cfg)
        return ("coeffs lemma4", spec, [residuals, result.comparison])

    if args.command == "build":
        x1 = _require_field(args, spec, "X1")
        x2 = _require_field(args, spec, "X2")
        x3 = _require_field(args, spec, "X3")
        H = _function(args, spec, args.H, "H")
        F = _function(args, spec, args.F, "F")
        system = build_qbh(x1, x2, x3, H, F, cfg)
        return ("build qbh", spec, [system.report])

    raise _Usage(f"unknown command {args.command!r}")


def run_command(argv, stdout=None, stderr=None):
    """Run one CLI invocation; returns (exit code, RunReport | None).

    When ``stdout`` is given the rendered report (or fixture listing)
    is printed to it; error messages go to ``stderr``.
    """
    stderr = stderr if stderr is not None else sys.stderr

    def complain(message):
        print(f"qbhkit: error: {message}", file=stderr)

    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message (on real stderr)
        return (0 if exc.code in (0, None) else 2, None)

    started = time.perf_counter()
    try:
        command, spec, reports = _execute(args)
    except _Usage as exc:
        complain(str(exc))
        return (2, None)
    except _RESIDUAL_ERRORS as exc:
        complain(f"{type(exc).__name__}: {exc}")
        return (1, None)
    except _SINGULAR_ERRORS as exc:
        complain(f"{type(exc).__name__}: {exc}")
        return (3, None)
    except QbhError as exc:
        complain(f"{type(exc).__name__}: {exc}")
        return (2, None)

    if reports is None:  # example list
        if stdout is not None:
            for name in fixture_names():
                print(f"{name:<22} {FIXTURES[name].title}", file=stdout)
        return (0, None)

    wall = time.perf_counter() - started
    cfg = _config(spec, args)
    run = build_run_report(
        command=command,
        digest=spec.digest(),
        reports=reports,
        cfg=cfg,
        version=__version__,
        wall_time=wall,
    )
    if stdout is not None:
        fmt = args.format or os.environ.get("QBHKIT_FORMAT", "text")
        if fmt not in ("text", "json"):
            fmt = "text"
        rendered = render_json(run) if fmt == "json" else render_text(run)
        print(rendered, file=stdout)
    return (0 if run.passed else 1, run)


def main(argv=None) -> int:
    code, _ = run_command(
        sys.argv[1:] if argv is None else argv, stdout=sys.stdout
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
