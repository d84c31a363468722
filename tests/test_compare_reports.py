"""tools/compare_reports.py: how it runs a matrix and sorts differences."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "compare_reports.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(**changes):
    base = {
        "command": "check poisson",
        "pass": True,
        "criteria": [
            {
                "name": "poisson-pair:self-schouten",
                "pass": True,
                "max_residual": 1.5e-16,
                "worst_point": [0.25, -0.5],
                "skipped": 0,
                "notes": [],
            }
        ],
        "tolerances": {"residual": 1e-9},
    }
    base["criteria"][0].update(changes)
    return base


CRITERIA = [["poisson-pair", True, []]]


def run(stdout, code=0, stderr="", values=("a1", "b2"), criteria=CRITERIA):
    return {
        "stdout": json.dumps(stdout),
        "stderr": stderr,
        "code": code,
        "values": list(values),
        "criteria": criteria,
    }


def kinds(tool, a, b):
    return [kind for _, kind, _ in tool.differences(a, b)]


def test_residual_bits_are_listed_but_pass(tool):
    a = run(report())
    b = run(report(max_residual=1.5000000000000002e-16, worst_point=[0.25, -0.4]))
    assert kinds(tool, a, b) == ["bits", "bits"]
    lines = []
    assert tool.compare([["check", "poisson"]], [a], [b], lines.append) == 0
    assert lines[0] == "BITS qbhkit check poisson"
    assert lines[-1].endswith("1 differ in residual bits only, 0 differ otherwise")


def test_per_point_value_bits_are_listed_but_pass(tool):
    a = run(report())
    b = run(report(), values=("a1", "c3"))
    assert kinds(tool, a, b) == ["bits"]
    lines = []
    assert tool.compare([["check", "poisson"]], [a], [b], lines.append) == 0
    assert lines[:2] == [
        "BITS qbhkit check poisson",
        "    values [bits] per-point arrays [1] of 2 differ",
    ]


@pytest.mark.parametrize(
    "a, b, kind",
    [
        (run(report()), run(report(), values=("a1",)), "arrays"),
        (run(report()), run(report(), code=1), "exit code"),
        # a criterion's own notes and verdict, which the report leaves out
        (run(report()), run(report(), criteria=[["poisson-pair", True, ["x"]]]), "notes"),
        (run(report()), run(report(), criteria=[["poisson-pair", False, []]]), "notes"),
        (run(report()), run(report(), criteria=None), "notes"),
        (run(report()), run(report(), stderr="warning"), "stderr"),
        (run(report()), run(report(**{"pass": False})), "pass"),
        (run(report()), run(report(skipped=3)), "skipped"),
        (run(report()), run(report(notes=["3 point(s) skipped"])), "notes"),
        (run(report()), run(report(max_residual=None)), "max_residual"),
        (run(report()), run({**report(), "extra": 1}), "keys"),
        (run(report()), run(dict(reversed(list(report().items())))), "keys"),
        # a tolerance is no residual, though it is a float
        (run(report()), run({**report(), "tolerances": {"residual": 1e-8}}), "residual"),
    ],
)
def test_anything_but_residual_bits_fails(tool, a, b, kind):
    found = kinds(tool, a, b)
    assert found[0] == kind
    assert tool.compare([["check", "poisson"]], [a], [b], lambda line: None) == 1


def test_equal_runs_show_nothing(tool):
    lines = []
    assert tool.compare([["x"]], [run(report())], [run(report())], lines.append) == 0
    assert lines == ["1 runs: 1 identical, 0 differ in residual bits only, 0 differ otherwise"]


def test_runs_in_one_interpreter_match_the_cli_and_warn_once_each(tool, monkeypatch):
    import warnings

    import qbhkit.cli as cli

    run_command = cli.run_command

    def warning_run(argv, stdout=None, stderr=None):
        warnings.warn("overflow", RuntimeWarning)
        return run_command(argv, stdout=stdout, stderr=stderr)

    monkeypatch.setattr(cli, "run_command", warning_run)
    argv = ["example", "run", "hojman-2d", "--samples", "20", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        first, second = tool.run_matrix([argv, argv])
    assert first == second
    assert first["code"] == 0, first["stderr"]
    assert json.loads(first["stdout"])["command"] == "example run hojman-2d"
    # each run prints the warning, as a new process would
    assert first["stderr"].count("RuntimeWarning: overflow") == 1


def test_matrix_runs_every_subcommand_on_many_coordinate_charts(tool, tmp_path):
    """Sums over 8 or more components are where numpy's pairwise order
    and an in-order sum part; the matrix runs every subcommand on charts
    of 7 and 8 coordinates, among its 182 runs."""
    import qbhkit as qk

    shipped = Path(__file__).parents[1] / "src" / "qbhkit" / "problems"
    matrix = tool.build_matrix(shipped, tmp_path)
    assert len(matrix) == 185
    for n, label in ((7, "seven-coordinate"), (8, "eight-coordinate")):
        path = str(tmp_path / f"{label}.prob")
        assert qk.load_problem(path).chart.dimension == n
        runs = [argv[:2] for argv in matrix if path in argv]
        assert runs == [list(command) for command in tool.SUBCOMMANDS]


# What the span checks report on the 8- and 9-coordinate edge inputs,
# recorded with their residuals' squares summed pairwise by numpy, which
# summing them in component order must keep: every check fails (exit 1)
# with no point skipped, and only compatibility's six informative span
# conditions carry a note.
MANY_COORDINATE_CONDITIONS = {
    "poisson": ("poisson-pair", ("self-schouten", "bracket-in-span"), ()),
    "automorphism": (
        "automorphism",
        ("lie-derivative", "bracket-x1-in-span", "bracket-x2-in-span"),
        (),
    ),
    "compat": (
        "compatibility",
        ("schouten",),
        (
            "span-x1-x2-bracket",
            "span-xh-x3-bracket",
            "span-xh-x1-bracket",
            "span-xh-x2-bracket",
            "span-x3-x1-bracket",
            "span-x3-x2-bracket",
        ),
    ),
    "jacobi": (
        "jacobi",
        (
            "bracket-plus-xh",
            "bracket-xh-x1-in-span",
            "bracket-xh-x2-in-span",
            "automorphism-trace",
            "schouten-identity",
            "invariance",
        ),
        (),
    ),
}


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("what", sorted(MANY_COORDINATE_CONDITIONS))
def test_span_checks_on_many_coordinates_keep_their_verdicts(tool, tmp_path, n, what):
    import io

    from qbhkit.cli import run_command

    path = tmp_path / f"{n}-coordinate.prob"
    path.write_text(tool._many_coordinates(n), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    code, _ = run_command(
        ["check", what, "--input", str(path), "--format", "json"], stdout, stderr
    )
    assert (code, stderr.getvalue()) == (1, "")
    got = json.loads(stdout.getvalue())
    criterion, gating, informative = MANY_COORDINATE_CONDITIONS[what]
    want = [(f"{criterion}:{name}", False, 0, []) for name in gating]
    want += [
        (f"{criterion}:{name}", False, 0, ["informative (not gating)"])
        for name in informative
    ]
    assert got["pass"] is False and got["samples"] == 100
    assert [
        (c["name"], c["pass"], c["skipped"], c["notes"]) for c in got["criteria"]
    ] == want


def test_a_per_point_value_away_from_the_maximum_shows(tool, monkeypatch):
    """A report prints each condition's maximum only; a change of one
    ulp at the point of the smallest residual shows in the digests of
    the per-point arrays, as residual bits."""
    import numpy as np

    import qbhkit.residuals as residuals

    argv = ["example", "run", "rotation", "--samples", "30", "--format", "json"]
    (before,) = tool.run_matrix([argv])
    values_at = residuals.values_at
    changed = []

    def nudged_values_at(residual, points):
        values = values_at(residual, points)
        sizes = np.abs(values)
        if changed or len(np.unique(sizes[np.isfinite(sizes)])) < 2:
            return values
        values = values.copy()
        low = int(np.nanargmin(sizes))
        values[low] = np.nextafter(values[low], np.inf)
        changed.append(low)
        return values

    monkeypatch.setattr(residuals, "values_at", nudged_values_at)
    (after,) = tool.run_matrix([argv])
    assert changed
    assert after["stdout"] == before["stdout"] and after["code"] == before["code"] == 0
    assert len(after["values"]) == len(before["values"]) > 10
    found = tool.differences(before, after)
    assert [(stream, kind) for stream, kind, _ in found] == [("values", "bits")]
    assert tool.compare([argv], [before], [after], lambda line: None) == 0
    # run_matrix puts back the function it wraps
    assert residuals.values_at is nudged_values_at


def test_a_criterions_own_notes_are_recorded_and_compared(tool):
    argv = ["example", "run", "exp-realization", "--samples", "20", "--format", "json"]
    (result,) = tool.run_matrix([argv])
    assert result["code"] == 0
    criteria = {name: (passed, notes) for name, passed, notes in result["criteria"]}
    assert criteria["qbh-exact"] == (True, ["exact: True", "bi-hamiltonian: False", "rho = -2.0 * z"])
    assert criteria["composite-jacobi"] == (True, ["3 test-function triple(s)"])
    # the report leaves them out
    assert "rho = " not in result["stdout"]
    changed = dict(result, criteria=[[n, p, [*notes, "x"]] for n, p, notes in result["criteria"]])
    lines = []
    assert tool.compare([argv], [result], [changed], lines.append) == 1
    assert lines[1].startswith("    criteria [notes] [['delta', True, []], ")
    # a run that ends without a report records none
    (usage,) = tool.run_matrix([["check", "poisson"]])
    assert usage["code"] == 2 and usage["criteria"] is None


def test_the_matrix_runs_sweeps_whose_cyclic_sums_are_not_zero(tool, tmp_path):
    shipped = Path(__file__).parents[1] / "src" / "qbhkit" / "problems"
    matrix = tool.build_matrix(shipped, tmp_path)
    sweeps = [argv for argv in matrix if argv[0] == tool.SWEEP]
    assert sweeps == [[tool.SWEEP, "3"], [tool.SWEEP, "4"], [tool.SWEEP, "9"]]
    names = ["jacobi-identity", "triple-1", "triple-2", "triple-3"]
    for result in tool.run_matrix(sweeps):
        assert (result["code"], result["stderr"]) == (0, "")
        criteria = json.loads(result["stdout"])["criteria"]
        assert [c["name"] for c in criteria] == [f"{n}:cyclic-sum" for n in names]
        assert all(c["max_residual"] > 1.0 and c["skipped"] == 0 for c in criteria)
        assert result["criteria"] == [
            [name, False, [f"{3 if i == 0 else 1} test-function triple(s)"]]
            for i, name in enumerate(names)
        ]
        # the per-point cyclic sums of each check
        assert len(result["values"]) == 4


def test_a_gradient_bit_shows_in_the_sweep_runs(tool, monkeypatch):
    """A relative change of 1e-12 in one test function's gradient moves
    the per-point cyclic sums of every sweep run, although the function's
    triple need not be the largest at any point."""
    import qbhkit.qbh as qbh

    sweeps = [[tool.SWEEP, str(n)] for n in tool.SWEEP_COORDINATES]
    before = tool.run_matrix(sweeps)
    gradient_at = qbh.gradient_at

    def nudged_gradient_at(functions, points):
        grads = gradient_at(functions, points)
        grads[0] *= 1.0 + 1e-12
        return grads

    monkeypatch.setattr(qbh, "gradient_at", nudged_gradient_at)
    after = tool.run_matrix(sweeps)
    for a, b in zip(before, after):
        assert ("values", "bits") in [(s, k) for s, k, _ in tool.differences(a, b)]
