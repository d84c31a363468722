"""Criterion reports and their text / JSON renderings.

A criterion report carries one entry per checked condition (a named
max-residual with its worst point). Conditions marked informative are
recorded for documentation but never gate the pass flag; the fixture
runs use them for the paper-discrepancy documentation checks.

The JSON rendering is deterministic (fixed key order, repr floats) and
deliberately excludes wall time so reruns with the same seed are
byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .chart import Point
from .sampling import GENERATOR_NAME, ToleranceConfig


@dataclass(frozen=True)
class ConditionResult:
    """Max |residual| of one condition over the sampled points."""

    name: str
    max_residual: float | None
    worst_point: Point | None = None
    skipped: int = 0
    informative: bool = False
    notes: tuple[str, ...] = ()

    def within(self, tolerance: float) -> bool:
        return self.max_residual is not None and self.max_residual <= tolerance


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one named criterion.

    pass holds iff every non-informative condition stayed within
    tolerance, no condition skipped more than the allowed fraction of
    points, and at least one point survived per gating condition.
    """

    name: str
    passed: bool
    conditions: tuple[ConditionResult, ...]
    samples: int
    tolerance: float
    notes: tuple[str, ...] = ()

    def condition(self, name: str) -> ConditionResult:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def renamed(self, name: str) -> "CriterionReport":
        return replace(self, name=name)


def make_report(
    name: str,
    conditions,
    samples: int,
    tol: ToleranceConfig,
    notes=(),
) -> CriterionReport:
    conditions = tuple(conditions)
    passed = True
    for cond in conditions:
        if cond.informative:
            continue
        if not cond.within(tol.residual):
            passed = False
        if samples > 0 and cond.skipped / samples > tol.max_skip_fraction:
            passed = False
    return CriterionReport(
        name=name,
        passed=passed,
        conditions=conditions,
        samples=samples,
        tolerance=tol.residual,
        notes=tuple(notes),
    )


def as_informative(report: CriterionReport, name: str, notes=()) -> CriterionReport:
    """Re-badge a report as documentation: every condition becomes
    informative and the recorded pass/fail is moved into the notes."""
    conditions = tuple(replace(c, informative=True) for c in report.conditions)
    verdict = "PASS" if report.passed else "FAIL"
    all_notes = (f"recorded result: {verdict} (not gating)",) + tuple(notes) + report.notes
    return CriterionReport(
        name=name,
        passed=True,
        conditions=conditions,
        samples=report.samples,
        tolerance=report.tolerance,
        notes=all_notes,
    )


@dataclass(frozen=True)
class RunReport:
    """One CLI run: a problem digest plus the criterion reports."""

    command: str
    digest: str
    reports: tuple[CriterionReport, ...]
    passed: bool
    samples: int
    seed: int
    tolerances: ToleranceConfig
    version: str
    generator: str = GENERATOR_NAME
    wall_time: float = 0.0


def build_run_report(command, digest, reports, cfg, version, wall_time=0.0) -> RunReport:
    reports = tuple(reports)
    return RunReport(
        command=command,
        digest=digest,
        reports=reports,
        passed=all(r.passed for r in reports),
        samples=cfg.domain.samples,
        seed=cfg.domain.seed,
        tolerances=cfg.tol,
        version=version,
        wall_time=wall_time,
    )


# ---------------------------------------------------------------------------
# rendering


def _point_list(point: Point | None):
    if point is None:
        return None
    return [float(v) for v in point.values]


def render_json(run: RunReport) -> str:
    criteria = []
    for report in run.reports:
        for cond in report.conditions:
            notes = list(cond.notes)
            if cond.informative:
                notes.insert(0, "informative (not gating)")
            criteria.append(
                {
                    "name": f"{report.name}:{cond.name}",
                    "pass": cond.within(run.tolerances.residual),
                    "max_residual": cond.max_residual,
                    "worst_point": _point_list(cond.worst_point),
                    "skipped": cond.skipped,
                    "notes": notes,
                }
            )
    obj = {
        "command": run.command,
        "digest": run.digest,
        "pass": run.passed,
        "criteria": criteria,
        "samples": run.samples,
        "seed": run.seed,
        "tolerances": asdict(run.tolerances),
        "version": run.version,
    }
    return json.dumps(obj)


def render_text(run: RunReport) -> str:
    lines = [
        f"qbhkit {run.version} | command: {run.command}",
        f"digest: {run.digest}",
        f"generator: {run.generator} seed={run.seed} samples={run.samples}",
        "tolerances: "
        + " ".join(f"{k}={v:g}" for k, v in asdict(run.tolerances).items()),
    ]
    for report in run.reports:
        verdict = "PASS" if report.passed else "FAIL"
        lines.append(f"criterion {report.name}: {verdict}")
        for cond in report.conditions:
            if cond.max_residual is None:
                body = "no usable points"
            else:
                body = f"max residual {cond.max_residual:.6e}"
                if cond.worst_point is not None:
                    body += f" at {cond.worst_point}"
            tag = "info" if cond.informative else (
                "ok" if cond.within(run.tolerances.residual) else "FAIL"
            )
            skip = f" skipped={cond.skipped}" if cond.skipped else ""
            lines.append(f"  {cond.name:<34} {body}{skip} [{tag}]")
            for note in cond.notes:
                lines.append(f"    note: {note}")
        for note in report.notes:
            lines.append(f"  note: {note}")
    overall = "PASS" if run.passed else "FAIL"
    lines.append(f"overall: {overall} (wall {run.wall_time:.3f}s)")
    return "\n".join(lines)
