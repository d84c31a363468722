"""Golden reports: every shipped fixture at its default seed and sample
count, compared with the report recorded in ``tests/golden/``.

Exit code, criterion names, pass flags, skip counts and notes must match
exactly. A max residual must match within

    |got - ref| <= max(1e-12, 1e-6 * |ref|)

because a change in the order or grouping of floating-point operations
(batched linear algebra, array instead of scalar evaluation) moves
residuals at rounding level without changing any verdict.

Worst points are deliberately not compared. Several conditions have
maxima that are tied or nearly tied over many points (``a1-vs-direct``
deviates by about 1.0 at every point, and exact conditions are 0.0
everywhere), so a rounding-level change can move the argmax to another
point while the maximum itself is unchanged.

Regenerate after an intended change of verdicts with

    PYTHONPATH=src python tests/test_golden.py --record
"""
import io
import json
import os
import sys

import pytest

from qbhkit.cli import run_command
from qbhkit.fixtures import fixture_names

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
ABS_BOUND = 1e-12
REL_BOUND = 1e-6


def fixture_outcome(name):
    """(exit code, parsed JSON report) of ``example run NAME``."""
    out = io.StringIO()
    code, _ = run_command(["example", "run", name, "--format", "json"], stdout=out)
    return {"exit": code, "report": json.loads(out.getvalue())}


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def residual_matches(got, ref):
    if got is None or ref is None:
        return got is None and ref is None
    return abs(got - ref) <= max(ABS_BOUND, REL_BOUND * abs(ref))


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_matches_golden_report(name):
    with open(golden_path(name), encoding="utf-8") as handle:
        golden = json.load(handle)
    got = fixture_outcome(name)
    assert got["exit"] == golden["exit"]
    want_report, got_report = golden["report"], got["report"]
    for key in ("command", "digest", "pass", "samples", "seed", "tolerances"):
        assert got_report[key] == want_report[key], key
    want, have = want_report["criteria"], got_report["criteria"]
    assert [c["name"] for c in have] == [c["name"] for c in want]
    for ref, cond in zip(want, have):
        name_ = ref["name"]
        assert cond["pass"] == ref["pass"], name_
        assert cond["skipped"] == ref["skipped"], name_
        assert cond["notes"] == ref["notes"], name_
        assert residual_matches(cond["max_residual"], ref["max_residual"]), (
            name_,
            cond["max_residual"],
            ref["max_residual"],
        )


def record():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in fixture_names():
        with open(golden_path(name), "w", encoding="utf-8") as handle:
            json.dump(fixture_outcome(name), handle, indent=1)
            handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
