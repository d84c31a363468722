"""Compare the reports of two qbhkit source trees on a fixed matrix of runs.

    python3 tools/compare_reports.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository (directories holding
``src/qbhkit``) or directories holding the ``qbhkit`` package itself.
Each tree runs the whole matrix in an interpreter of its own, one
``qbhkit.cli.run_command`` call per CLI invocation, every report as
``--format json``:

- the six shipped fixtures (``example run``) at their default setting,
  at ``--samples 1000 --seed 7``, at ``--samples 50 --seed 123`` and at
  ``--samples 5000``, and ``example list``;
- every ``check`` subcommand, ``coeffs lemma4`` and ``build qbh`` on
  each shipped problem file (those of SRC_B) and on the edge inputs:
  X1 = 1e200 d/dx with X2 = d/dy + x d/dz, 1e200 d/dx with
  1e200 d/dx + d/dy, and charts of 1, 2, 7, 8 and 9 coordinates (from
  8 components on, numpy sums a C-ordered row pairwise, so a change of
  summation order shows there);
- ``check poisson`` on 40 generated problems (``perfbench/generate.py``
  of this checkout, seed 15);
- ``check poisson`` on one problem file per malformed expression
  (``MALFORMED_EXPRESSIONS``: an unexpected character, an unknown
  identifier, a multibyte character before the error, trailing input, a
  missing ``)``, a call of the wrong arity, a number too large for a
  float and 101 nested parentheses), and ``check hamiltonian`` on
  rotation with malformed ``--H`` text, so that every parse error's
  message, byte offset and exit code compare;
- ``qbhkit.jacobi_identity_check`` called in-process (``jacobi-sweep N``)
  on charts of 3, 4 and 9 coordinates: a composite X ^ Y + c W ^ Z of
  random linear fields, c a random linear function, whose [[pi,pi]] is
  not 0, with three triples of ``random_polynomial`` test functions,
  checked together and one by one. The reports are rendered as
  ``--format json`` renders them. The only sweep of the CLI runs,
  exp-realization's, contracts a [[pi,pi]] that is exactly 0 at every
  sampled point, so its cyclic sums are 0 in any summation order and
  show no change of the gradients' or the contraction's bits.
  (``tests/golden/exp-realization.json`` still records 3.69e-13 there,
  from an older implementation.)

Each run's stdout, stderr and exit code are compared and every
difference is listed. A report prints only each condition's maximum, so
each run also records a sha256 digest of every per-point array that
``qbhkit.residuals.values_at`` hands a condition or a non-vanishing
guard to reduce, and the digests are compared in order. ``--format
json`` leaves out a criterion's own notes (``exact: ...``, ``rho = ...``,
``N test-function triple(s)``), so each run also records the name, the
verdict and the notes of every criterion of the report the run returns.
The exit status is 1 if a verdict, an exit code, a skip count, a note, a
key or the key order differs, or stderr or the number of per-point
arrays does; a difference only in the bits of residuals, worst points
and per-point values is listed but leaves the exit status 0. Warnings
print once per source line and run, as in a new process; the source
tree's path in a warning or a traceback reads ``<src>``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FIXTURE_SETTINGS = (
    (),
    ("--samples", "1000", "--seed", "7"),
    ("--samples", "50", "--seed", "123"),
    ("--samples", "5000"),
)
SUBCOMMANDS = tuple(
    ("check", what)
    for what in ("poisson", "automorphism", "compat", "delta", "hamiltonian", "jacobi", "hojman")
) + (("coeffs", "lemma4"), ("build", "qbh"))
GENERATED_SEED = 15
GENERATED_COUNT = 40
SWEEP = "jacobi-sweep"
SWEEP_COORDINATES = (3, 4, 9)

# keys whose floating-point values follow the bits of a residual
RESIDUAL_KEYS = ("max_residual", "worst_point")



def _many_coordinates(n: int) -> str:
    """A problem file on the chart x1 ... xn whose fields mix every
    coordinate into every component."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    return "\n".join(
        ["[space]", "coordinates = " + " ".join(names), "", "[field X1]"]
        + [f"{c} = {i + 1} + {names[i - 1]} * {c}" for i, c in enumerate(names)]
        + ["", "[field X2]"]
        + [f"{c} = sin({names[i - 2]}) - {i} * {c}" for i, c in enumerate(names)]
        + ["", "[field X3]"]
        + [f"{c} = {c}^2 - {names[i - 3]}" for i, c in enumerate(names)]
        + ["", "[field XH]"]
        + [f"{c} = {names[i - 4]} / {c}" for i, c in enumerate(names)]
        + ["", "[function H]", "expr = " + " + ".join(f"{c}^2" for c in names)]
        + ["", "[function F]", f"expr = x1 * {names[-1]}", ""]
        + ["[domain]", "box = " + " ".join(f"{c}:0.5:1.5" for c in names), ""]
    )


# the X1 component of a problem file that ``check poisson`` must refuse
MALFORMED_EXPRESSIONS = {
    "unexpected-character": "x $ y",
    "unknown-identifier": "x + w",
    "multibyte-before-error": "x\u00a0*\u00a0y)",
    "trailing-input": "x y",
    "missing-parenthesis": "sin(x + y",
    "wrong-arity": "atan2(x)",
    "too-large-number": "2 * 1e999",
    "nested-101": "(" * 101 + "x" + ")" * 101,
}
MALFORMED_PROBLEM = """
[space]
coordinates = x y z

[field X1]
x = {}

[field X2]
y = 1
"""
MALFORMED_H = "x1 * (x2 +"


EDGE_INPUTS = {
    "overflow-1e200-x-y": """
[space]
coordinates = x y z

[field X1]
x = 1e200

[field X2]
y = 1
z = x

[field X3]
z = 1

[field XH]
y = x

[function H]
expr = y

[function F]
expr = z
""",
    "overflow-1e200-x-1e200-x-plus-y": """
[space]
coordinates = x y z

[field X1]
x = 1e200

[field X2]
x = 1e200
y = 1

[field X3]
z = 1

[field XH]
z = 1e200

[function H]
expr = z

[function F]
expr = y
""",
    "one-coordinate": """
[space]
coordinates = x

[field X1]
x = 1

[field X2]
x = x

[field X3]
x = x^2

[field XH]
x = -1

[function H]
expr = x

[function F]
expr = x^2
""",
    "two-coordinate": """
[space]
coordinates = x y

[field X1]
x = 1

[field X2]
y = exp(x)

[field X3]
x = y
y = x

[field XH]
y = -exp(x)

[function H]
expr = x * y

[function F]
expr = y
""",
    # numpy sums a C-ordered row of 7 values in order, of 8 or more pairwise
    "seven-coordinate": _many_coordinates(7),
    "eight-coordinate": _many_coordinates(8),
    "nine-coordinate": _many_coordinates(9),
}


def package_root(path: str) -> Path:
    """The directory to put on sys.path for the qbhkit tree at ``path``."""
    path = Path(path).resolve()
    for candidate in (path / "src", path):
        if (candidate / "qbhkit" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"compare_reports: no qbhkit package under {path}")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate", REPO / "perfbench" / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_matrix(shipped: Path, workdir: Path) -> list[list[str]]:
    """The argv of every run, with the problem files it names written
    under ``workdir``."""
    json_flag = ["--format", "json"]
    matrix = [["example", "list"]]
    names = sorted(p.stem for p in shipped.glob("*.prob"))
    for setting in FIXTURE_SETTINGS:
        for name in names:
            matrix.append(["example", "run", name, *setting, *json_flag])
    inputs = [str(shipped / f"{name}.prob") for name in names]
    for label, text in EDGE_INPUTS.items():
        path = workdir / f"{label}.prob"
        path.write_text(text, encoding="utf-8")
        inputs.append(str(path))
    for path in inputs:
        for command in SUBCOMMANDS:
            matrix.append([*command, "--input", path, *json_flag])
    generate = _generator()
    for index in range(GENERATED_COUNT):
        path = generate.write_problem(str(workdir), GENERATED_SEED, index)
        matrix.append(["check", "poisson", "--input", path, *json_flag])
    for label, expression in MALFORMED_EXPRESSIONS.items():
        path = workdir / f"malformed-{label}.prob"
        path.write_text(MALFORMED_PROBLEM.format(expression), encoding="utf-8")
        matrix.append(["check", "poisson", "--input", str(path), *json_flag])
    rotation = str(shipped / "rotation.prob")
    matrix.append(
        ["check", "hamiltonian", "--input", rotation, "--H", MALFORMED_H, *json_flag]
    )
    matrix += [[SWEEP, str(n)] for n in SWEEP_COORDINATES]
    return matrix


def run_sweep(n: int, stdout):
    """The run ``jacobi-sweep n`` (see the module note): prints the
    report as JSON to ``stdout``; returns (0, the RunReport)."""
    import numpy as np

    import qbhkit as qk
    from qbhkit.reports import build_run_report, render_json

    chart = qk.CoordinateChart(tuple(f"x{i}" for i in range(1, n + 1)))
    rng = np.random.default_rng(n)
    X, Y, W, Z = (
        qk.VectorField(
            chart, tuple(qk.random_polynomial(chart, rng, degree=1) for _ in chart.names)
        )
        for _ in range(4)
    )
    c = qk.random_polynomial(chart, rng, degree=1)
    B = qk.BivectorSum(
        chart, ((chart.constant(1.0), qk.wedge(X, Y)), (c, qk.wedge(W, Z)))
    )
    triples = [tuple(qk.random_polynomial(chart, rng) for _ in range(3)) for _ in range(3)]
    box = tuple((0.5, 1.5) for _ in chart.names)
    domain = qk.SampleDomain(chart, box, (), samples=200, seed=n)
    cfg = qk.VerifyConfig(domain=domain, tol=qk.ToleranceConfig())
    # a point's cyclic sum is the largest of its triples', so each triple
    # is checked alone too, where the bits of all its gradients show
    reports = [qk.jacobi_identity_check(B, triples, cfg)] + [
        qk.jacobi_identity_check(B, [t], cfg).renamed(f"triple-{i}")
        for i, t in enumerate(triples, 1)
    ]
    run = build_run_report(f"{SWEEP} {n}", "", reports, cfg, "")
    print(render_json(run), file=stdout)
    return 0, run


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Python's default warning printer, to the current sys.stderr, in
    place of whatever a caller installed."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _digest(values) -> str:
    """The sha256 of a per-point array's dtype, shape and bytes."""
    head = f"{values.dtype.str}{values.shape}".encode()
    return hashlib.sha256(head + values.tobytes()).hexdigest()


@contextlib.contextmanager
def recorded_values(digests: list):
    """Within the block, append to ``digests`` the digest of every array
    ``qbhkit.residuals.values_at`` returns to the conditions and
    non-vanishing guards of ``qbhkit.residuals``, which look it up in
    their module when they reduce a residual."""
    import qbhkit.residuals as residuals

    values_at = residuals.values_at

    def recording_values_at(residual, points):
        values = values_at(residual, points)
        digests.append(_digest(values))
        return values

    residuals.values_at = recording_values_at
    try:
        yield
    finally:
        residuals.values_at = values_at


def run_matrix(matrix) -> list[dict]:
    """Every run of ``matrix`` in this interpreter: its stdout, stderr,
    exit code (or the traceback of an exception that escaped), the
    digests of the per-point arrays its conditions reduced, and the
    name, verdict and notes of each criterion of its report."""
    import qbhkit
    from qbhkit.cli import run_command

    src = str(Path(qbhkit.__file__).resolve().parents[1])
    results = []
    for argv in matrix:
        out, err = io.StringIO(), io.StringIO()
        digests = []
        report = None
        # catch_warnings starts each run's once-per-line warning record afresh
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.showwarning = _print_warning
            try:
                with recorded_values(digests):
                    if argv[0] == SWEEP:
                        code, report = run_sweep(int(argv[1]), out)
                    else:
                        code, report = run_command(argv, stdout=out, stderr=err)
            except Exception:  # reported and compared, not raised
                code = "traceback"
                err.write(traceback.format_exc())
        results.append(
            {
                "stdout": out.getvalue(),
                "stderr": err.getvalue().replace(src, "<src>"),
                "code": code,
                "values": digests,
                "criteria": report and [
                    [r.name, r.passed, list(r.notes)] for r in report.reports
                ],
            }
        )
    return results


def run_side(root: Path, matrix_path: Path) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("QBHKIT_FORMAT", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--run-matrix", str(matrix_path), "--expect", str(root)],
        env=env,
        capture_output=True,
        text=True,
        cwd=matrix_path.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"compare_reports: the run on {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def json_differences(a, b, path="", key=""):
    """(path, kind, a, b) for every difference between two JSON values.
    ``kind`` is "bits" for two floats under a key of RESIDUAL_KEYS, else
    the innermost key, which a list's items share."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [(path, "keys", list(a), list(b))]
        found = []
        for k in a:
            found += json_differences(a[k], b[k], f"{path}.{k}", k)
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        found = []
        for i, (x, y) in enumerate(zip(a, b)):
            found += json_differences(x, y, f"{path}[{i}]", key)
        return found
    if type(a) is type(b) and repr(a) == repr(b):
        return []
    floats = type(a) is float and type(b) is float
    kind = "bits" if floats and key in RESIDUAL_KEYS else key or "value"
    return [(path, kind, a, b)]


def differences(a: dict, b: dict):
    """(stream, kind, detail) for every difference between two runs."""
    found = []
    if a["code"] != b["code"]:
        found.append(("exit", "exit code", f"{a['code']} != {b['code']}"))
    if a["stderr"] != b["stderr"]:
        found.append(("stderr", "stderr", f"{a['stderr']!r} != {b['stderr']!r}"))
    if a["stdout"] != b["stdout"]:
        try:
            pairs = json_differences(json.loads(a["stdout"]), json.loads(b["stdout"]))
        except json.JSONDecodeError:
            pairs = [("", "text", a["stdout"], b["stdout"])]
        for path, kind, x, y in pairs:
            found.append(("stdout", kind, f"{path or '(output)'}: {x!r} != {y!r}"))
    criteria_a, criteria_b = a["criteria"], b["criteria"]
    if criteria_a != criteria_b:
        if criteria_a and criteria_b and len(criteria_a) == len(criteria_b):
            # only the criteria that differ
            criteria_a, criteria_b = (
                list(side) for side in zip(*(p for p in zip(criteria_a, criteria_b) if p[0] != p[1]))
            )
        found.append(("criteria", "notes", f"{criteria_a!r} != {criteria_b!r}"))
    digests_a, digests_b = a["values"], b["values"]
    if len(digests_a) != len(digests_b):
        found.append(
            ("values", "arrays", f"{len(digests_a)} != {len(digests_b)} per-point arrays")
        )
    elif digests_a != digests_b:
        changed = [i for i, (x, y) in enumerate(zip(digests_a, digests_b)) if x != y]
        detail = f"per-point arrays {changed} of {len(digests_a)} differ"
        found.append(("values", "bits", detail))
    return found


def compare(matrix, results_a, results_b, write=print) -> int:
    """List the differences; 1 if one is more than residual bits."""
    severe = residual_only = 0
    for argv, a, b in zip(matrix, results_a, results_b):
        found = differences(a, b)
        if not found:
            continue
        only_bits = all(kind == "bits" for _, kind, _ in found)
        residual_only += only_bits
        severe += not only_bits
        write(("BITS " if only_bits else "DIFF ") + "qbhkit " + " ".join(argv))
        for stream, kind, detail in found:
            write(f"    {stream} [{kind}] {detail}")
    write(
        f"{len(matrix)} runs: {len(matrix) - severe - residual_only} identical, "
        f"{residual_only} differ in residual bits only, {severe} differ otherwise"
    )
    return 1 if severe else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", nargs="?")
    parser.add_argument("src_b", nargs="?")
    parser.add_argument("--run-matrix", help=argparse.SUPPRESS)
    parser.add_argument("--expect", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_matrix:
        import qbhkit

        where = Path(qbhkit.__file__).resolve().parents[1]
        if where != Path(args.expect):
            raise SystemExit(f"compare_reports: imported qbhkit from {where}")
        matrix = json.loads(Path(args.run_matrix).read_text(encoding="utf-8"))
        json.dump(run_matrix(matrix), sys.stdout)
        return 0
    if not (args.src_a and args.src_b):
        parser.error("SRC_A and SRC_B are required")
    root_a, root_b = package_root(args.src_a), package_root(args.src_b)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as workdir:
        workdir = Path(workdir)
        matrix = build_matrix(root_b / "qbhkit" / "problems", workdir)
        matrix_path = workdir / "matrix.json"
        matrix_path.write_text(json.dumps(matrix), encoding="utf-8")
        results_a = run_side(root_a, matrix_path)
        results_b = run_side(root_b, matrix_path)
        return compare(matrix, results_a, results_b)


if __name__ == "__main__":
    raise SystemExit(main())
