"""Problem files: the CLI's input format.

Line-oriented, INI-style sections, UTF-8, '#' starts a comment:

    [space]
    coordinates = x y z

    [field X1]
    x = exp(z)          # one "coord = expression" line per nonzero component
    y = 1

    [function H]
    expr = y

    [domain]
    box = x:-1:1 y:-1:1 z:0.1:1
    guard = sqrt(x^2 + y^2 - 0.25)   # repeatable; |value| >= guard_eps required
    samples = 200
    seed = 42

    [tolerances]
    residual = 1e-9

Missing field components default to zero; coordinates without a box
entry default to [-1, 1]; omitted tolerances take their defaults.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from dataclasses import fields as dataclass_fields

from .chart import CoordinateChart
from .errors import ProblemFormatError, QbhError
from .expr import ScalarExpr
from .fields import VectorField
from .parser import parse_expression
from .sampling import (
    Guard,
    SampleDomain,
    ToleranceConfig,
    VerifyConfig,
    _check_interval,
)

# the keys of a [tolerances] section, in the order the digest hashes them
_TOLERANCE_KEYS = tuple(f.name for f in dataclass_fields(ToleranceConfig))


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem: chart, named fields and functions, sampling
    domain and tolerances."""

    chart: CoordinateChart
    fields: dict[str, VectorField]
    functions: dict[str, ScalarExpr]
    domain: SampleDomain
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)

    def config(self, samples=None, seed=None, residual=None) -> VerifyConfig:
        domain = self.domain.with_overrides(samples=samples, seed=seed)
        tol = self.tolerances
        if residual is not None:
            tol = replace(tol, residual=residual)
        return VerifyConfig(domain=domain, tol=tol)

    def digest(self) -> str:
        return problem_digest(self)


def problem_digest(spec: ProblemSpec) -> str:
    """Content hash of the parsed problem (independent of formatting)."""
    lines = ["coordinates " + " ".join(spec.chart.names)]
    for name in sorted(spec.fields):
        comps = ", ".join(str(c) for c in spec.fields[name].components)
        lines.append(f"field {name}: {comps}")
    for name in sorted(spec.functions):
        lines.append(f"function {name}: {spec.functions[name]}")
    box = " ".join(
        f"{n}:{lo!r}:{hi!r}" for n, (lo, hi) in zip(spec.chart.names, spec.domain.box)
    )
    lines.append(f"box {box}")
    for guard in spec.domain.guards:
        lines.append(f"guard {guard.expression} min_abs={guard.min_abs!r}")
    lines.append(f"samples {spec.domain.samples} seed {spec.domain.seed}")
    tol = spec.tolerances
    lines.append(
        "tolerances "
        + " ".join(f"{k}={getattr(tol, k)!r}" for k in _TOLERANCE_KEYS)
    )
    payload = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# parsing


@dataclass
class _Section:
    line: int
    kind: str
    name: str | None
    entries: list  # (line, key, value)


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            parts = header.split(None, 1)
            kind = parts[0] if parts else ""
            name = parts[1].strip() if len(parts) == 2 else None
            if kind in ("space", "domain", "tolerances"):
                if name is not None:
                    raise ProblemFormatError(
                        lineno, f"section [{kind}] takes no name"
                    )
            elif kind in ("field", "function"):
                if not name:
                    raise ProblemFormatError(
                        lineno, f"section [{kind}] needs a name"
                    )
            else:
                raise ProblemFormatError(lineno, f"unknown section [{header}]")
            current = _Section(lineno, kind, name, [])
            sections.append(current)
            continue
        if "=" not in line:
            raise ProblemFormatError(lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise ProblemFormatError(lineno, "entry before any section header")
        key, value = line.split("=", 1)
        current.entries.append((lineno, key.strip(), value.strip()))
    return sections


def _parse_expr(text: str, chart: CoordinateChart, lineno: int) -> ScalarExpr:
    try:
        return parse_expression(text, chart)
    except QbhError as exc:
        raise ProblemFormatError(lineno, f"bad expression {text!r}: {exc}") from exc


def _parse_number(text: str, lineno: int, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ProblemFormatError(lineno, f"bad number {text!r}") from None


def _named_line(message: str, lines: dict[str, int], default: int) -> int:
    """The line of the entry whose key a validation message starts with,
    else ``default``."""
    return lines.get(message.split(None, 1)[0], default)


def parse_problem(text: str) -> ProblemSpec:
    sections = _split_sections(text)

    space = [s for s in sections if s.kind == "space"]
    if len(space) != 1:
        line = space[1].line if len(space) > 1 else 1
        raise ProblemFormatError(line, "exactly one [space] section is required")
    chart = None
    for lineno, key, value in space[0].entries:
        if key != "coordinates":
            raise ProblemFormatError(lineno, f"unknown key {key!r} in [space]")
        try:
            chart = CoordinateChart(tuple(value.split()))
        except ValueError as exc:
            raise ProblemFormatError(lineno, str(exc)) from exc
    if chart is None:
        raise ProblemFormatError(space[0].line, "[space] needs a coordinates line")

    fields: dict[str, VectorField] = {}
    functions: dict[str, ScalarExpr] = {}
    tolerances_kwargs: dict[str, float] = {}
    tolerance_lines: dict[str, int] = {}
    tolerances_header = 1

    for section in sections:
        if section.kind == "tolerances":
            tolerances_header = section.line
            for lineno, key, value in section.entries:
                if key not in _TOLERANCE_KEYS:
                    raise ProblemFormatError(
                        lineno, f"unknown tolerance {key!r}"
                    )
                tolerances_kwargs[key] = _parse_number(value, lineno)
                tolerance_lines[key] = lineno
    try:
        tolerances = ToleranceConfig(**tolerances_kwargs)
    except ValueError as exc:
        line = _named_line(str(exc), tolerance_lines, tolerances_header)
        raise ProblemFormatError(line, f"bad tolerances: {exc}") from exc

    box_map: dict[str, tuple[float, float]] = {}
    guards: list[Guard] = []
    samples = 100
    seed = 0
    domain_lines: dict[str, int] = {}
    domain_header = 1

    for section in sections:
        if section.kind == "field":
            if section.name in fields:
                raise ProblemFormatError(
                    section.line, f"duplicate field {section.name!r}"
                )
            mapping = {}
            for lineno, key, value in section.entries:
                if key not in chart.names:
                    raise ProblemFormatError(
                        lineno,
                        f"{key!r} is not a coordinate of chart {chart}",
                    )
                if key in mapping:
                    raise ProblemFormatError(
                        lineno, f"duplicate component {key!r}"
                    )
                mapping[key] = _parse_expr(value, chart, lineno)
            fields[section.name] = VectorField.from_mapping(chart, mapping)
        elif section.kind == "function":
            if section.name in functions:
                raise ProblemFormatError(
                    section.line, f"duplicate function {section.name!r}"
                )
            expr = None
            for lineno, key, value in section.entries:
                if key != "expr":
                    raise ProblemFormatError(
                        lineno, f"unknown key {key!r} in [function]"
                    )
                expr = _parse_expr(value, chart, lineno)
            if expr is None:
                raise ProblemFormatError(
                    section.line, f"function {section.name!r} needs an expr line"
                )
            functions[section.name] = expr
        elif section.kind == "domain":
            domain_header = section.line
            for lineno, key, value in section.entries:
                domain_lines[key] = lineno
                if key == "box":
                    for token in value.split():
                        pieces = token.split(":")
                        if len(pieces) != 3:
                            raise ProblemFormatError(
                                lineno, f"bad box entry {token!r} (want name:lo:hi)"
                            )
                        name, lo, hi = pieces
                        if name not in chart.names:
                            raise ProblemFormatError(
                                lineno, f"{name!r} is not a coordinate"
                            )
                        interval = (
                            _parse_number(lo, lineno),
                            _parse_number(hi, lineno),
                        )
                        try:
                            _check_interval(*interval)
                        except ValueError as exc:
                            raise ProblemFormatError(
                                lineno, f"bad domain: {exc}"
                            ) from exc
                        box_map[name] = interval
                elif key == "guard":
                    guards.append(
                        Guard(_parse_expr(value, chart, lineno), None)
                    )
                elif key == "samples":
                    samples = _parse_number(value, lineno, int)
                elif key == "seed":
                    seed = _parse_number(value, lineno, int)
                else:
                    raise ProblemFormatError(
                        lineno, f"unknown key {key!r} in [domain]"
                    )

    box = tuple(box_map.get(name, (-1.0, 1.0)) for name in chart.names)
    guards = [Guard(g.expression, tolerances.guard_eps) for g in guards]
    try:
        domain = SampleDomain(
            chart, box, tuple(guards), samples=samples, seed=seed
        )
    except ValueError as exc:
        line = _named_line(str(exc), domain_lines, domain_header)
        raise ProblemFormatError(line, f"bad domain: {exc}") from exc

    return ProblemSpec(
        chart=chart,
        fields=fields,
        functions=functions,
        domain=domain,
        tolerances=tolerances,
    )


def load_problem(path) -> ProblemSpec:
    """Parse a problem file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())
