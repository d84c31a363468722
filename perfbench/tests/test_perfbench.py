"""Tests of the benchmark's own code: span arithmetic and patching,
speed calibration, generator determinism, and the correctness gate.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import hashlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic


def synthetic_tree():
    """cli [0, 10] with children criteria [1, 7] and reports [8, 9];
    criteria has children span [2, 5] and sampling [5.5, 6.5]; span has a
    child eval_array [3, 4]."""
    rec = spans.SpanRecorder()
    root = rec.record("cli", 0.0, 10.0)
    crit = rec.record("criteria", 1.0, 7.0, root)
    span = rec.record("criteria.span", 2.0, 5.0, crit)
    rec.record("expr.eval_array", 3.0, 4.0, span)
    rec.record("sampling", 5.5, 6.5, crit)
    rec.record("reports", 8.0, 9.0, root)
    return rec


def test_self_times_subtract_direct_children_only():
    rec = synthetic_tree()
    assert rec.self_times() == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])


def test_layer_self_times_sum_to_root_duration():
    rec = synthetic_tree()
    summary = rec.summary()
    assert summary["cli"] == {"self_s": pytest.approx(3.0), "calls": 1}
    assert summary["criteria"]["self_s"] == pytest.approx(2.0)
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == pytest.approx(rec.root_time()) == pytest.approx(10.0)


def test_repeated_layer_accumulates_calls_and_self_time():
    rec = spans.SpanRecorder()
    root = rec.record("cli", 0.0, 6.0)
    rec.record("expr.diff", 1.0, 2.0, root)
    rec.record("expr.diff", 3.0, 5.0, root)
    summary = rec.summary()
    assert summary["expr.diff"] == {"self_s": pytest.approx(3.0), "calls": 2}
    assert summary["cli"]["self_s"] == pytest.approx(3.0)


def test_calibration_scales_by_the_mean_probe_near_the_operation():
    ref = run.PROBE_REFERENCE_S
    log = run.SpeedLog()
    log.probes = [(0.0, ref), (10.0, 2 * ref), (10.5, 2 * ref), (30.0, ref / 2)]
    # only the probes at 10.0 and 10.5 lie within SPEED_WINDOW_S (1 s):
    # the machine ran at half speed, so 0.2 wall seconds count as 0.1
    assert run.SPEED_WINDOW_S == 1.0
    assert log.calibrated(10.2, 10.4) == pytest.approx(0.1)
    assert log.calibrated(29.5, 30.0) == pytest.approx(1.0)


def test_wrapped_calls_nest_and_close_on_exceptions():
    rec = spans.SpanRecorder()

    def inner():
        raise ValueError("boom")

    wrapped_inner = rec.wrap("inner", inner)

    def outer():
        try:
            wrapped_inner()
        except ValueError:
            return "handled"

    assert rec.wrap("outer", outer)() == "handled"
    assert rec.parent == [-1, 0]
    assert [rec.layers[i] for i in rec.layer] == ["outer", "inner"]
    assert rec.end[1] <= rec.end[0]
    assert sum(rec.self_times()) == pytest.approx(rec.root_time())
    rec.clear()
    assert rec.start == [] and rec.layers == ["inner", "outer"]


def test_instrumented_patches_call_sites_and_restores_them():
    import qbhkit.cli
    import qbhkit.criteria
    import qbhkit.reports
    from qbhkit.expr import ScalarExpr
    from qbhkit.fixtures import FIXTURES

    originals = (
        qbhkit.criteria.span_expand,
        qbhkit.cli.render_json,
        qbhkit.reports.render_json,
        ScalarExpr.__dict__["simplified"],
        FIXTURES["hojman-2d"].runner,
    )
    rec = spans.SpanRecorder()
    with spans.instrumented(rec):
        assert qbhkit.criteria.span_expand is not originals[0]
        assert qbhkit.cli.render_json is qbhkit.reports.render_json
        assert qbhkit.cli.render_json is not originals[1]
        out = io.StringIO()
        code, _ = qbhkit.cli.run_command(
            ["example", "run", "hojman-2d", "--format", "json"], stdout=out
        )
    assert code == 0
    assert (
        qbhkit.criteria.span_expand,
        qbhkit.cli.render_json,
        qbhkit.reports.render_json,
        ScalarExpr.__dict__["simplified"],
        FIXTURES["hojman-2d"].runner,
    ) == originals

    summary = rec.summary()
    assert summary["cli"]["calls"] == 1
    assert summary["fixtures"]["calls"] == 2  # load_fixture and the runner
    assert summary["reports"]["calls"] >= 1
    assert rec.counts["reports.bytes"] == len(out.getvalue().rstrip("\n"))
    assert rec.counts["sampling.points"] == 2 * 200
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == pytest.approx(rec.root_time(), rel=1e-9)


# ---------------------------------------------------------------------------
# generator


# sha256 of problems 0-4 of the held-out seed, recorded when the
# generator was written; a change to the generator changes it
HELD_OUT_SEED = 918273645  # not one of the seeds the benchmark was tuned on
HELD_OUT_DIGEST = "2be6bd8318bd736761be9aef22af35c7891834613435724e86e46d788c60564e"


def test_generator_is_deterministic_on_a_held_out_seed(tmp_path):
    seed = HELD_OUT_SEED
    first = [generate.problem_text(seed, i) for i in range(5)]
    assert first == [generate.problem_text(seed, i) for i in range(5)]
    assert hashlib.sha256("".join(first).encode()).hexdigest() == HELD_OUT_DIGEST
    path = generate.write_problem(str(tmp_path), seed, 3)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == first[3]
    assert len(set(first)) == 5
    assert generate.problem_text(seed + 1, 0) != first[0]


def test_generated_problem_passes_the_gate(tmp_path):
    from qbhkit.cli import run_command

    path = generate.write_problem(str(tmp_path), HELD_OUT_SEED, 0)
    out = io.StringIO()
    code, _ = run_command(
        ["check", "poisson", "--input", path, "--format", "json"], stdout=out
    )
    assert gate.check_generated(gate.outcome(code, out.getvalue())) == []


# ---------------------------------------------------------------------------
# correctness gate


@pytest.fixture(scope="module")
def hojman_run():
    from qbhkit.cli import run_command

    out = io.StringIO()
    code, _ = run_command(gate.fixture_argv("hojman-2d", None), stdout=out)
    return code, out.getvalue()


@pytest.fixture()
def hojman_outcome(hojman_run):
    return gate.outcome(*hojman_run)


def test_gate_accepts_the_recorded_outcome(hojman_outcome):
    expected = gate.load_expected()["fixtures"]["default"]["hojman-2d"]
    assert gate.compare(expected, hojman_outcome) == []


def test_gate_rejects_a_report_with_one_flipped_pass_flag(hojman_run):
    code, rendered = hojman_run
    report = json.loads(rendered)
    report["criteria"][0]["pass"] = not report["criteria"][0]["pass"]
    perturbed = gate.outcome(code, json.dumps(report))
    expected = gate.load_expected()["fixtures"]["default"]["hojman-2d"]
    problems = gate.compare(expected, perturbed)
    assert len(problems) == 1 and "pass expected" in problems[0]
    assert gate.check_generated(perturbed)  # not a Poisson-pair outcome either


def test_gate_residual_bound():
    assert gate.residual_matches(0.0, 0.0)
    assert gate.residual_matches(5e-13, 0.0)
    assert not gate.residual_matches(2e-12, 0.0)
    assert gate.residual_matches(1.0 + 5e-7, 1.0)
    assert not gate.residual_matches(1.0 + 2e-6, 1.0)
    assert gate.residual_matches(None, None)
    assert not gate.residual_matches(0.0, None)


def test_gate_rejects_changed_skip_count_and_exit_code(hojman_outcome):
    expected = gate.load_expected()["fixtures"]["default"]["hojman-2d"]
    perturbed = copy.deepcopy(hojman_outcome)
    perturbed["criteria"][-1][2] += 1
    perturbed["exit"] = 1
    problems = gate.compare(expected, perturbed)
    assert any(p.startswith("exit") for p in problems)
    assert any("skipped expected" in p for p in problems)
