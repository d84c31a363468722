"""tools/bench_pairs.py: the order of its runs and its summary."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).parents[1] / "tools" / "bench_pairs.py"

METRICS = [
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.001},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(side, seed, pass_s, ok_frac=1.0, failed=0, workload="w"):
    metrics = {"pass_s": pass_s, "ok_frac": ok_frac}
    return {
        "side": side,
        "workload": workload,
        "seed": seed,
        "first": True,
        "result": {
            "correct": failed == 0,
            "attempted": 10,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
        },
    }


def test_the_parent_runs_first_in_odd_pairs(tool):
    assert tool.pair_order(1) == ("parent", "change")
    assert tool.pair_order(2) == ("change", "parent")
    assert tool.pair_order(3) == ("parent", "change")


def test_a_lower_metric_is_better_when_it_falls(tool):
    runs = [
        run("parent", 1, 1.0), run("change", 1, 0.5),
        run("change", 2, 2.0), run("parent", 2, 2.0),
        run("parent", 3, 3.0), run("change", 3, 4.0),
        run("change", 4, 1.0), run("parent", 4, 4.0),
    ]
    (summary,) = tool.summarize(runs, METRICS).values()
    entry = summary["pass_s"]
    assert entry["change_better_pairs"] == 2  # the tie in pair 2 is not better
    assert entry["parent_median"] == 2.5 and entry["change_median"] == 1.5
    assert entry["parent_quartiles"] == [1.75, 3.25]
    assert entry["change_quartiles"] == [0.875, 2.5]
    assert entry["relative_change"] == pytest.approx(-0.4)
    assert (entry["better"], entry["bound"]) == ("lower", 0.25)
    assert summary["pairs"] == 4 and summary["correct"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}


def test_a_higher_metric_is_better_when_it_rises(tool):
    runs = [
        run("parent", 1, 1.0, ok_frac=0.9), run("change", 1, 1.0, ok_frac=1.0),
        run("change", 2, 1.0, ok_frac=0.8, failed=2), run("parent", 2, 1.0, ok_frac=0.9),
        run("parent", 3, 1.0, ok_frac=1.0), run("change", 3, 1.0, ok_frac=1.0),
    ]
    (summary,) = tool.summarize(runs, METRICS).values()
    assert summary["ok_frac"]["change_better_pairs"] == 1
    assert summary["ok_frac"]["better"] == "higher"
    assert summary["pass_s"]["change_better_pairs"] == 0
    assert summary["failed_ops"] == {"parent": 0, "change": 2}
    assert not summary["correct"]


def test_workloads_and_unfinished_pairs(tool):
    runs = [
        run("parent", 1, 1.0, workload="a"), run("change", 1, 0.5, workload="a"),
        run("parent", 1, 1.0, workload="b"), run("change", 1, 2.0, workload="b"),
        run("change", 2, 0.1, workload="b"),
    ]
    summary = tool.summarize(runs, METRICS)
    assert list(summary) == ["a", "b"]
    assert summary["b"]["pairs"] == 1
    assert summary["b"]["pass_s"]["change_median"] == 2.0
    failed = dict(run("change", 1, 1.0, workload="c"), result=None)
    summary = tool.summarize([run("parent", 1, 1.0, workload="c"), failed], METRICS)
    assert summary["c"]["pairs"] == 1 and not summary["c"]["correct"]
    assert "pass_s" not in summary["c"]


def test_the_summary_prints_one_line_per_workload_and_metric(tool, tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    benchmark = {"workloads": [{"name": "a"}, {"name": "b"}], "end_to_end": METRICS}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(benchmark))
    pass_s = {("parent", "a"): 2.0, ("change", "a"): 1.5, ("parent", "b"): 1.0, ("change", "b"): 0.0}
    calls = []

    def fake_run_bench(tree, workload, seed, seconds, trace):
        side = Path(tree).name
        calls.append((side, workload, seed, seconds, trace))
        return run(side, seed, pass_s[side, workload] + seed / 100, workload=workload)["result"]

    monkeypatch.setattr(tool, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]
    assert tool.main(argv + ["--pairs", "2", "--seconds", "1", "--seed", "5"]) == 0
    assert len(calls) == 8 and calls[0] == ("parent", "a", 5, "1", 0)
    assert capsys.readouterr().out.splitlines() == [
        "a pass_s: parent 2.055, change 1.555 (-24.3%), change better in 2/2 pairs",
        "a ok_frac: parent 1, change 1 (+0.0%), change better in 0/2 pairs",
        "b pass_s: parent 1.055, change 0.055 (-94.8%), change better in 2/2 pairs",
        "b ok_frac: parent 1, change 1 (+0.0%), change better in 0/2 pairs",
    ]
    assert json.loads(out.read_text())["summary"]["a"]["pairs"] == 2


def test_a_summary_line_without_a_parent_value(tool):
    runs = [run("parent", 1, 0.0), run("change", 1, 0.5)]
    summary = tool.summarize(runs, METRICS)
    assert tool.summary_lines(summary, METRICS)[0] == (
        "w pass_s: parent 0, change 0.5 (n/a), change better in 0/1 pairs"
    )
