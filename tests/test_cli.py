"""CLI dispatch, exit codes, report formats, and library parity."""
import io
import json

import pytest

import qbhkit as qk
from qbhkit.cli import run_command
from qbhkit.reports import render_json

from helpers import DEEP_EXPRESSIONS

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


def test_unknown_field_name(exp_path):
    code, _, _, err = invoke(
        ["check", "delta", "--input", exp_path, "--field", "NOPE"]
    )
    assert code == 2
    assert "NOPE" in err


def test_unknown_fixture():
    code, _, _, err = invoke(["example", "run", "nope"])
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "samples must be >= 1"),
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
