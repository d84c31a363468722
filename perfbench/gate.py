"""Correctness gate: each benchmark operation's outcome against the
expected one.

An outcome is the exit code plus the parsed ``--format json`` report.
Exit code, command, digest, sample count, seed, overall pass flag,
criterion names, their pass flags and skip counts must match exactly.
A max residual must match within

    |got - ref| <= max(1e-12, 1e-6 * |ref|)

and ``null`` must stay ``null``. Worst points and notes are not compared.

Shipped fixtures are compared with ``expected.json``, recorded from the
library by

    python3 perfbench/gate.py --record

run from the repository root. Generated problems are compared with the
outcome they have by construction (see ``generate.py``): exit code 0,
both ``poisson-pair`` criteria pass, nothing skipped.
"""
from __future__ import annotations

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

ABS_RESIDUAL_BOUND = 1e-12
REL_RESIDUAL_BOUND = 1e-6

# sample counts at which every shipped fixture is recorded; None is the
# count in the fixture's own problem file
RECORDED_SAMPLES = (None, 5000)

# generated problems set no [tolerances], so the default residual
# tolerance applies
GENERATED_TOLERANCE = 1e-9
GENERATED_CRITERIA = ("poisson-pair:self-schouten", "poisson-pair:bracket-in-span")


def outcome(code: int, rendered: str) -> dict:
    """The compared part of one operation's result."""
    report = json.loads(rendered)
    return {
        "exit": code,
        "command": report["command"],
        "digest": report["digest"],
        "pass": report["pass"],
        "samples": report["samples"],
        "seed": report["seed"],
        "criteria": [
            [c["name"], c["pass"], c["skipped"], c["max_residual"]]
            for c in report["criteria"]
        ],
    }


def residual_matches(got, ref) -> bool:
    if got is None or ref is None:
        return got is None and ref is None
    return abs(got - ref) <= max(ABS_RESIDUAL_BOUND, REL_RESIDUAL_BOUND * abs(ref))


def compare(expected: dict, got: dict) -> list[str]:
    """Mismatches between two outcomes; empty when they agree."""
    problems = [
        f"{key}: expected {expected[key]!r}, got {got[key]!r}"
        for key in ("exit", "command", "digest", "pass", "samples", "seed")
        if expected[key] != got[key]
    ]
    want, have = expected["criteria"], got["criteria"]
    if [c[0] for c in want] != [c[0] for c in have]:
        problems.append(
            f"criteria: expected {[c[0] for c in want]}, got {[c[0] for c in have]}"
        )
        return problems
    for (name, passed, skipped, residual), (_, g_passed, g_skipped, g_residual) in zip(
        want, have
    ):
        if passed != g_passed:
            problems.append(f"{name}: pass expected {passed}, got {g_passed}")
        if skipped != g_skipped:
            problems.append(f"{name}: skipped expected {skipped}, got {g_skipped}")
        if not residual_matches(g_residual, residual):
            problems.append(f"{name}: max_residual expected {residual!r}, got {g_residual!r}")
    return problems


def check_generated(got: dict) -> list[str]:
    """Mismatches against the by-construction outcome of a generated
    Poisson-pair problem."""
    problems = []
    if got["exit"] != 0 or not got["pass"]:
        problems.append(f"expected PASS with exit 0, got exit {got['exit']}")
    names = tuple(c[0] for c in got["criteria"])
    if names != GENERATED_CRITERIA:
        problems.append(f"criteria: expected {list(GENERATED_CRITERIA)}, got {list(names)}")
    for name, passed, skipped, residual in got["criteria"]:
        if not passed or skipped or residual is None or not 0 <= residual <= GENERATED_TOLERANCE:
            problems.append(
                f"{name}: pass={passed} skipped={skipped} max_residual={residual!r}"
            )
    return problems


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fixture_argv(name: str, samples) -> list[str]:
    argv = ["example", "run", name, "--format", "json"]
    if samples is not None:
        argv += ["--samples", str(samples)]
    return argv


def samples_key(samples) -> str:
    return "default" if samples is None else str(samples)


def record(path: str = EXPECTED_PATH) -> None:
    """Run every shipped fixture at each recorded sample count and write
    the outcomes to ``path``."""
    from qbhkit.cli import run_command
    from qbhkit.fixtures import fixture_names

    table = {}
    for samples in RECORDED_SAMPLES:
        row = table.setdefault(samples_key(samples), {})
        for name in fixture_names():
            out = io.StringIO()
            code, _ = run_command(fixture_argv(name, samples), stdout=out)
            row[name] = outcome(code, out.getvalue())
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fixtures": table}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/gate.py --record")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    record()
