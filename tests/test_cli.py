"""CLI dispatch, exit codes, report formats, and library parity."""
import io
import json
import random
import time
import warnings

import pytest

import qbhkit as qk
from qbhkit.cli import run_command
from qbhkit.fixtures import fixture_names
from qbhkit.reports import render_json

from helpers import DEEP_EXPRESSIONS, fresh_runs, generated_problem_text

NON_POISSON = """
[space]
coordinates = x1 x2 x3

[field X1]
x1 = 1

[field X2]
x2 = 1
x3 = x1

[domain]
samples = 30
seed = 4
"""


def fixture_text(name):
    from importlib import resources

    return (
        resources.files("qbhkit")
        .joinpath(f"problems/{name}.prob")
        .read_text(encoding="utf-8")
    )


@pytest.fixture
def exp_path(tmp_path):
    path = tmp_path / "exp.prob"
    path.write_text(fixture_text("exp-realization"))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code, run = run_command(argv, stdout=out, stderr=err)
    return code, run, out.getvalue(), err.getvalue()


def test_check_delta_passes(exp_path):
    code, run, out, _ = invoke(["check", "delta", "--input", exp_path])
    assert code == 0
    assert run.passed
    assert "criterion delta: PASS" in out


def test_residual_failure_exit_code(tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text(NON_POISSON)
    code, run, out, _ = invoke(["check", "poisson", "--input", str(path)])
    assert code == 1
    assert not run.passed


def test_missing_input_is_usage_error():
    code, run, _, err = invoke(["check", "delta"])
    assert code == 2
    assert run is None
    assert "required" in err


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.prob"
    path.write_text("[space]\ncoordinates = x x\n")
    code, run, _, err = invoke(["check", "delta", "--input", str(path)])
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("name", sorted(DEEP_EXPRESSIONS))
def test_deeply_nested_input_is_usage_error(tmp_path, name):
    text = fixture_text("hojman-2d").replace(
        "[function H]\nexpr = y\n", f"[function H]\nexpr = {DEEP_EXPRESSIONS[name]}\n"
    )
    assert DEEP_EXPRESSIONS[name] in text
    path = tmp_path / "deep.prob"
    path.write_text(text)
    code, run, _, err = invoke(["check", "hojman", "--input", str(path)])
    assert code == 2 and run is None
    assert err.startswith("qbhkit: error: ") and err.count("\n") == 1
    assert "nested deeper than 100 levels" in err


def test_depth_100_chain_still_runs(tmp_path):
    # exp(z)/2^99 still satisfies the algebra; the chain is 99 quotients
    # around one call, 100 operators deep
    text = fixture_text("exp-realization").replace(
        "x = exp(z)\n", "x = exp(z)" + "/2" * 99 + "\n"
    )
    assert text.count("/2") == 99
    path = tmp_path / "deep.prob"
    path.write_text(text)
    code, run, _, _ = invoke(["check", "delta", "--input", str(path)])
    assert code == 0 and run.passed


def test_derivative_deeper_than_the_bound_is_usage_error(tmp_path):
    # 60 nested quotients parse, but each level of the quotient rule
    # deepens the derivative by four
    nested = "y/(" * 60 + "y" + ")" * 60
    path = tmp_path / "deep.prob"
    path.write_text(
        f"[space]\ncoordinates = x y z\n\n[field X1]\nx = 2 + {nested}\n\n"
        "[field X2]\ny = 1\n"
    )
    code, run, _, err = invoke(["check", "poisson", "--input", str(path)])
    assert code == 2 and run is None
    assert err.startswith("qbhkit: error: ExpressionTooDeepError: ")
    assert err.count("\n") == 1


def test_parser_built_once_keeps_no_state_between_calls(exp_path):
    from qbhkit.cli import _arg_parser

    assert _arg_parser() is _arg_parser()
    parsed = [
        _arg_parser().parse_args(["check", "delta"] + flags).field
        for flags in (["--field", "A", "--field", "B"], ["--field", "C"], [])
    ]
    assert parsed == [["A", "B"], ["C"], []]
    code, _, _, err = invoke(["check", "delta", "--input", exp_path, "--field", "NOPE"])
    assert code == 2 and "NOPE" in err
    code, run, _, _ = invoke(["check", "delta", "--input", exp_path])
    assert code == 0 and run.passed
    for bad in (["check", "delta", "--bogus"], ["check", "nonsense"], ["--samples"]):
        assert invoke(bad)[0] == 2
    code, run, _, _ = invoke(["check", "delta", "--input", exp_path, "--samples", "20"])
    assert code == 0 and run.samples == 20


def test_cached_results_do_not_outlive_their_problems(tmp_path):
    # every node keeps its simplified form and derivatives; once a
    # problem's report is dropped, all of its nodes must be collectable
    import gc
    import importlib.util
    from pathlib import Path

    from qbhkit.expr import Node

    spec = importlib.util.spec_from_file_location(
        "generate", Path(__file__).parents[1] / "perfbench" / "generate.py"
    )
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)

    def run(index):
        path = tmp_path / f"gen{index}.prob"
        path.write_text(generate.problem_text(5, index))
        code, _, _, _ = invoke(
            ["check", "poisson", "--input", str(path), "--samples", "40"]
        )
        assert code == 0

    def live_nodes():
        gc.collect()
        return sum(isinstance(o, Node) for o in gc.get_objects())

    run(0)
    before = live_nodes()
    for index in range(1, 51):
        run(index)
    # a checked problem's nodes number in the hundreds
    assert live_nodes() - before < 50


def test_no_interned_node_outlives_its_run(tmp_path):
    # with the cycle collector off, after each of 40 generated problems
    # the table of interned nodes is back to what it held before: every
    # node of a run is freed by reference counting alone, and none is
    # left for the next run to reuse
    argvs = []
    for index in range(40):
        path = tmp_path / f"gen{index}.prob"
        path.write_text(generated_problem_text(1, index))
        argvs.append(["check", "poisson", "--input", str(path), "--format", "json"])
    counts = fresh_runs(argvs, no_gc=True)
    assert [run[2] for run in counts["runs"]] == [counts["live_before"]] * 40
    assert counts["cyclic"] == 0


def test_unknown_field_name(exp_path):
    code, _, _, err = invoke(
        ["check", "delta", "--input", exp_path, "--field", "NOPE"]
    )
    assert code == 2
    assert "NOPE" in err


def test_argparse_usage_error_goes_to_the_given_stderr(capsys):
    code, run, out, err = invoke(["check", "poisson", "--bogus"])
    assert (code, run, out) == (2, None, "")
    assert "unrecognized arguments: --bogus" in err
    assert capsys.readouterr() == ("", "")


def test_version_goes_to_the_given_stdout(capsys):
    code, run, out, err = invoke(["--version"])
    assert (code, run, err) == (0, None, "")
    assert out.strip() == qk.__version__ == "0.1.0"
    assert capsys.readouterr() == ("", "")


def test_unknown_fixture():
    code, _, _, err = invoke(["example", "run", "nope"])
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "samples must be >= 1"),
        (
            "--samples",
            "100000000000",
            "samples times the 2 coordinates must be at most 1000000, "
            "got 100000000000 samples",
        ),
        (
            "--samples",
            "500001",
            "samples times the 2 coordinates must be at most 1000000, "
            "got 500001 samples",
        ),
        ("--seed", "-1", "seed must fit in 64 unsigned bits"),
        ("--tolerance", "-1", "residual must be positive"),
    ],
)
def test_out_of_range_number_is_usage_error(flag, value, message):
    code, run, _, err = invoke(["example", "run", "hojman-2d", flag, value])
    assert code == 2
    assert run is None
    assert err.strip() == f"qbhkit: error: {message}"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_flag_is_usage_error(value):
    # nan failed every gating check and inf passed every one
    code, run, _, err = invoke(["example", "run", "hojman-2d", "--tolerance", value])
    assert code == 2
    assert run is None
    assert err.strip() == "qbhkit: error: residual must be finite"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["residual", "fd", "independence", "guard_eps"])
def test_non_finite_tolerance_in_problem_file_is_usage_error(tmp_path, key, value):
    path = tmp_path / "hojman.prob"
    text = fixture_text("hojman-2d") + f"\n[tolerances]\n{key} = {value}\n"
    path.write_text(text)
    code, run, _, err = invoke(["check", "hojman", "--input", str(path)])
    assert code == 2
    assert run is None
    # the offending entry is the file's last line
    assert err.strip() == (
        f"qbhkit: error: ProblemFormatError: line {len(text.splitlines())}: "
        f"bad tolerances: {key} must be finite"
    )


@pytest.mark.parametrize("box", ["x:-inf:1", "x:-1e308:1e308"])
def test_box_of_infinite_width_is_usage_error(tmp_path, box):
    path = tmp_path / "hojman.prob"
    text = fixture_text("hojman-2d").replace("x:-1:1", box)
    path.write_text(text)
    code, run, _, err = invoke(["check", "hojman", "--input", str(path)])
    assert code == 2
    assert run is None
    lines = err.strip().splitlines()
    assert len(lines) == 1
    box_line = text.splitlines().index(f"box = {box} y:-1:1") + 1
    assert lines[0].startswith(
        f"qbhkit: error: ProblemFormatError: line {box_line}: bad domain"
    )
    assert "finite width" in lines[0]


def test_number_too_large_for_a_float_is_usage_error(tmp_path):
    # it parsed as inf, so that every point was skipped and the run exited 3
    path = tmp_path / "heisenberg.prob"
    text = fixture_text("heisenberg-jacobi").replace(
        "[field X1]\nx = 1\n", "[field X1]\nx = 1e999\n"
    )
    path.write_text(text)
    code, run, _, err = invoke(["check", "poisson", "--input", str(path)])
    assert code == 2
    assert run is None
    line = text.splitlines().index("x = 1e999") + 1
    assert err.strip() == (
        f"qbhkit: error: ProblemFormatError: line {line}: bad expression "
        "'1e999': number '1e999' is too large for a float (byte offset 0)"
    )


def test_vanishing_rho_exit_code(exp_path):
    code, run, _, err = invoke(
        ["build", "qbh", "--input", exp_path, "--F", "y"]
    )
    assert code == 3
    assert "NonVanishingRho" in err


def test_guard_too_restrictive_exit_code(tmp_path):
    path = tmp_path / "guarded.prob"
    path.write_text(
        "[space]\ncoordinates = x y z\n"
        "[field X1]\nx = 1\n[field X2]\ny = 1\n[field X3]\nz = 1\n"
        "[domain]\nguard = 0 * x\nsamples = 5\n"
    )
    code, _, _, err = invoke(["check", "delta", "--input", str(path)])
    assert code == 3
    assert "GuardTooRestrictive" in err


def test_build_qbh_passes(exp_path):
    code, run, _, _ = invoke(["build", "qbh", "--input", exp_path])
    assert code == 0
    assert run.passed


def test_coeffs_lemma4(exp_path):
    code, run, out, _ = invoke(
        ["coeffs", "lemma4", "--input", exp_path, "--format", "text"]
    )
    assert code == 0
    assert "lemma4-residuals" in out
    assert "disagrees with direct bracket expansion" in out


def test_example_list():
    code, run, out, _ = invoke(["example", "list"])
    assert code == 0
    assert run is None
    for name in qk.fixture_names():
        assert name in out


def test_example_run_reports(exp_path):
    code, run, out, _ = invoke(
        ["example", "run", "hojman-2d", "--format", "text"]
    )
    assert code == 0
    assert "hojman" in out


def test_json_format_and_round_trip(exp_path):
    code, run, out, _ = invoke(
        ["check", "delta", "--input", exp_path, "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "check delta"
    assert obj["pass"] is True
    assert obj["samples"] == 200
    assert obj["seed"] == 42
    assert obj["version"] == qk.__version__
    # re-serialising the parsed object reproduces the emitted bytes
    assert json.dumps(obj) == out.strip()


def test_env_var_sets_default_format(exp_path, monkeypatch):
    monkeypatch.setenv("QBHKIT_FORMAT", "json")
    code, _, out, _ = invoke(["check", "delta", "--input", exp_path])
    assert code == 0
    json.loads(out)  # must be machine format


def test_flag_overrides_env(exp_path, monkeypatch):
    monkeypatch.setenv("QBHKIT_FORMAT", "json")
    code, _, out, _ = invoke(
        ["check", "delta", "--input", exp_path, "--format", "text"]
    )
    assert "criterion delta" in out


def test_samples_and_seed_overrides(exp_path):
    code, run, _, _ = invoke(
        ["check", "delta", "--input", exp_path, "--samples", "25", "--seed", "9"]
    )
    assert code == 0
    assert run.samples == 25
    assert run.seed == 9


def test_cli_matches_library(exp_path):
    # CLI residuals equal direct library invocation to the last digit
    code, run, out, _ = invoke(
        ["check", "delta", "--input", exp_path, "--format", "json"]
    )
    spec = qk.load_problem(exp_path)
    report = qk.check_delta(
        spec.fields["X1"], spec.fields["X2"], spec.fields["X3"], spec.config()
    )
    obj = json.loads(out)
    by_name = {c["name"]: c for c in obj["criteria"]}
    for cond in report.conditions:
        entry = by_name[f"delta:{cond.name}"]
        assert entry["max_residual"] == cond.max_residual
        assert entry["worst_point"] == list(cond.worst_point.values)


def test_check_jacobi_requires_structure_field(tmp_path):
    path = tmp_path / "pair.prob"
    path.write_text(
        "[space]\ncoordinates = x y\n[field X1]\nx = 1\n[field X2]\ny = 1\n"
    )
    code, _, _, err = invoke(["check", "jacobi", "--input", str(path)])
    assert code == 2
    assert "XH" in err


# two fields on a chart of one coordinate are dependent at every point:
# a 1 x 2 basis has no second singular value, so its second is 0
ON_A_LINE = """
[space]
coordinates = x

[field X1]
x = 1

[field X2]
x = x

[field X3]
x = x^2

[field XH]
x = 1 + x

[domain]
box = x:0.5:1.5
samples = 20
seed = 1
"""


@pytest.mark.parametrize("what", ["poisson", "compat", "automorphism", "jacobi"])
def test_more_fields_than_coordinates_are_a_degenerate_basis(tmp_path, what):
    path = tmp_path / "line.prob"
    path.write_text(ON_A_LINE)
    code, _, out, err = invoke(["check", what, "--input", str(path)])
    assert code == 3
    assert out == ""
    assert "AllPointsSkippedError" in err and "degenerate" in err


def test_render_json_excludes_wall_time(exp_path):
    _, run, _, _ = invoke(["check", "delta", "--input", exp_path])
    payload = json.loads(render_json(run))
    assert "wall" not in json.dumps(payload)


def test_check_compat_and_automorphism_derive_xh(exp_path):
    code, run, _, _ = invoke(["check", "compat", "--input", exp_path])
    assert code == 0 and run.passed
    code, run, _, _ = invoke(["check", "automorphism", "--input", exp_path])
    assert code == 0 and run.passed


def test_check_hamiltonian_inline_expression(exp_path):
    # --H falls back to inline expression text when no function matches
    code, run, _, _ = invoke(
        ["check", "hamiltonian", "--input", exp_path, "--H", "x - y*exp(z)"]
    )
    assert code == 0 and run.passed


def test_check_hamiltonian_unknown_function(exp_path):
    code, _, _, err = invoke(
        ["check", "hamiltonian", "--input", exp_path, "--H", "sin(w)"]
    )
    assert code == 2


def test_build_not_an_integral_exit_code(exp_path):
    code, _, _, err = invoke(
        ["build", "qbh", "--input", exp_path, "--F", "x"]
    )
    assert code == 1
    assert "NotAnIntegral" in err


def test_jacobi_fixture_via_check_subcommand(tmp_path):
    from importlib import resources

    text = (
        resources.files("qbhkit")
        .joinpath("problems/so3-jacobi.prob")
        .read_text(encoding="utf-8")
    )
    path = tmp_path / "so3.prob"
    path.write_text(text)
    code, run, _, _ = invoke(["check", "jacobi", "--input", str(path)])
    assert code == 0 and run.passed


def test_hojman_via_check_subcommand(tmp_path):
    from importlib import resources

    text = (
        resources.files("qbhkit")
        .joinpath("problems/hojman-2d.prob")
        .read_text(encoding="utf-8")
    )
    path = tmp_path / "hojman.prob"
    path.write_text(text)
    code, run, _, _ = invoke(["check", "hojman", "--input", str(path)])
    assert code == 0 and run.passed
    # a Hamiltonian violating the invariance precondition exits 1
    code, _, _, err = invoke(
        ["check", "hojman", "--input", str(path), "--H", "x"]
    )
    assert code == 1
    assert "PreconditionResidual" in err


def test_an_overflowing_schouten_product_prints_no_warning(tmp_path, capfd):
    # the trivector components of 1e200 d/dx ^ (d/dy + x d/dz) overflow;
    # the report is the one numpy's overflow warning used to precede
    path = tmp_path / "overflow.prob"
    path.write_text(
        "[space]\ncoordinates = x y z\n\n[field X1]\nx = 1e200\n\n"
        "[field X2]\ny = 1\nz = x\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["check", "poisson", "--input", str(path), "--format", "json"]
        code, _, out, err = invoke(argv)
    assert (code, err, capfd.readouterr().err, caught) == (1, "", "", [])
    report = json.loads(out)
    assert not report["pass"]
    assert [
        (c["name"], c["max_residual"], c["skipped"], c["notes"])
        for c in report["criteria"]
    ] == [
        (
            "poisson-pair:self-schouten",
            None,
            100,
            ["100 point(s) skipped", "no usable points"],
        ),
        ("poisson-pair:bracket-in-span", 1e200, 0, []),
    ]


# ---------------------------------------------------------------------------
# generated bad input: every outcome is a documented exit code

MUTATION_CASES = 600
CASE_SECONDS = 2.0
COMMANDS = (
    ["check", "poisson"],
    ["check", "automorphism"],
    ["check", "compat"],
    ["check", "delta"],
    ["check", "hamiltonian"],
    ["check", "jacobi"],
    ["check", "hojman"],
    ["coeffs", "lemma4"],
    ["build", "qbh"],
)
TOKENS = (
    "(", ")", "^", "/0", "*", "+", "-", ",", "=", ":", "x", "y", "x1",
    "0", "1e308", "1e-320", "nan", "inf", "ln(", "sqrt(", "atan2(",
    "exp(", "H", "X1", "[", "]", "#", "--",
)
FLAGS = (
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--samples", "7"],
    ["--samples", "many"],
    ["--seed", "-1"],
    ["--seed", "99"],
    ["--tolerance", "0"],
    ["--tolerance", "nan"],
    ["--tolerance", "1e300"],
    ["--tolerance", "1e-300"],
    ["--field", "X1"],
    ["--field", "X3"],
    ["--field", "nope"],
    ["--H", "H"],
    ["--H", "y^2"],
    ["--H", "(("],
    ["--F", "x"],
    ["--format", "json"],
    ["--format", "xml"],
    ["--bogus"],
)


def mutated_problem(rng, text):
    """``text`` with one line deleted or duplicated, or a token spliced
    into the value of one of its entries."""
    lines = text.splitlines()
    index = rng.randrange(len(lines))
    kind = rng.randrange(3)
    if kind == 0:
        del lines[index]
    elif kind == 1:
        lines.insert(index, lines[index])
    else:
        entries = [i for i, line in enumerate(lines) if "=" in line]
        index = rng.choice(entries)
        line = lines[index]
        at = rng.randrange(line.index("=") + 1, len(line) + 1)
        lines[index] = line[:at] + rng.choice(TOKENS) + line[at:]
    return "\n".join(lines) + "\n"


def test_mutated_problems_and_flags_end_in_a_documented_exit_code(tmp_path):
    # Seeded, so every run checks the same cases. Most end in a usage
    # error (2), but every exit code occurs, so the mutations reach the
    # checks themselves.
    rng = random.Random(7)
    texts = [fixture_text(name) for name in fixture_names()]
    codes = set()
    for case in range(MUTATION_CASES):
        path = tmp_path / f"case{case}.prob"
        path.write_text(mutated_problem(rng, rng.choice(texts)))
        argv = rng.choice(COMMANDS) + ["--input", str(path), "--samples", "40"]
        for _ in range(rng.randrange(3)):
            argv += rng.choice(FLAGS)
        started = time.perf_counter()
        try:
            code, _, _, _ = invoke(argv)
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r} on\n{path.read_text()}")
        elapsed = time.perf_counter() - started
        assert code in (0, 1, 2, 3), (argv, path.read_text())
        assert elapsed < CASE_SECONDS, (argv, elapsed)
        codes.add(code)
    assert codes == {0, 1, 2, 3}
