"""Run the benchmark on two source trees in alternating pairs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --out FILE \\
        [--workloads NAME ...] [--pairs 10] [--seconds 32] [--seed 1] \\
        [--traced-workload NAME --traced-seed N] [--parent REV]

PARENT_TREE and CHANGE_TREE are checkouts of this repository. Each run
is that tree's own ``perfbench/run.py``, started unchanged from the
tree's root, one at a time. For each workload, pair p (1, 2, ...) runs
both trees at seed ``--seed`` + p - 1, the parent first in odd pairs
and the change first in even ones, so that a slow period of the
machine does not fall on one side only.

FILE is JSON in the shape of the committed ``BENCH_*.json`` files: a
``description``, the ``parent`` revision, a ``summary`` per workload,
every run with its JSON result line (``runs``) and, with
``--traced-workload``, one ``--trace 1`` run per side
(``traced_runs``). The summary holds the number of pairs, the failed
operations per side, whether every operation of every run was correct,
and for each end-to-end metric of the change tree's ``BENCHMARK.json``
the median and numpy's linear quartiles per side, the number of pairs
in which the change did better (a tie is not better), the relative
change of the medians, and the metric's ``better`` and ``bound``. FILE
is rewritten after every run, so an interrupted run keeps what it has.
After the last run, one line per workload and end-to-end metric goes to
stdout: both medians, their relative change and the pairs the change
did better in.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_bench(tree, workload, seed, seconds, trace):
    """The JSON result line of one run of ``tree``'s perfbench/run.py,
    or None if the run printed none."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def pair_order(pair):
    """The sides of pair ``pair`` (1-based) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def is_better(change, parent, better):
    """Whether ``change`` beats ``parent`` in direction ``better``."""
    return change < parent if better == "lower" else change > parent


def summarize(runs, metrics):
    """The per-workload summary of ``runs`` (see the module note);
    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        seeds = {}
        for run in runs:
            if run["workload"] == workload:
                seeds.setdefault(run["seed"], {})[run["side"]] = run["result"]
        pairs = [p for p in seeds.values() if len(p) == 2]
        results = [r for p in pairs for r in p.values()]
        entry = {
            "pairs": len(pairs),
            "failed_ops": {
                side: sum(p[side]["failed"] if p[side] else 0 for p in pairs)
                for side in SIDES
            },
            "correct": all(r is not None and r["correct"] for r in results),
        }
        complete = [p for p in pairs if all(p.values())]
        for metric in metrics:
            if not complete:
                break
            name, better = metric["name"], metric["better"]
            values = {
                side: [p[side]["metrics"][name]["value"] for p in complete]
                for side in SIDES
            }
            parent = float(np.median(values["parent"]))
            change = float(np.median(values["change"]))
            entry[name] = {
                "parent_median": parent,
                "parent_quartiles": quartiles(values["parent"]),
                "change_median": change,
                "change_quartiles": quartiles(values["change"]),
                "change_better_pairs": sum(
                    is_better(c, p, better)
                    for p, c in zip(values["parent"], values["change"])
                ),
                "relative_change": change / parent - 1.0 if parent else None,
                "better": better,
                "bound": metric["bound"],
            }
        summary[workload] = entry
    return summary


def quartiles(values):
    return [float(q) for q in np.percentile(values, [25, 75])]


def summary_lines(summary, metrics):
    """One line per workload of ``summary`` and end-to-end metric of
    ``metrics`` it holds."""
    lines = []
    for workload, entry in summary.items():
        for name in (m["name"] for m in metrics if m["name"] in entry):
            m = entry[name]
            change = m["relative_change"]
            lines.append(
                f"{workload} {name}: parent {m['parent_median']:.6g}, change "
                f"{m['change_median']:.6g} ("
                + ("n/a" if change is None else f"{change:+.1%}")
                + f"), change better in {m['change_better_pairs']}/{entry['pairs']} pairs"
            )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--traced-workload")
    parser.add_argument("--traced-seed", type=int, default=1)
    parser.add_argument("--parent", help="the parent's revision, as recorded")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    benchmark = json.loads((args.change_tree / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in benchmark["workloads"]]
    seconds = f"{args.seconds:g}"
    last = args.seed + args.pairs - 1
    out = {
        "description": (
            f"perfbench/run.py --seconds {seconds} --trace 0, {args.pairs} "
            "parent/change pairs per workload, the side that runs first "
            "alternating from pair to pair (parent first in odd pairs); seeds "
            f"{args.seed}-{last} for every workload; quartiles are numpy's "
            "linear 25th/75th percentiles; 'runs' holds each run's JSON "
            "result line"
        ),
        "parent": args.parent,
        "summary": {},
        "runs": [],
    }

    def write():
        out["summary"] = summarize(out["runs"], benchmark["end_to_end"])
        args.out.write_text(json.dumps(out, indent=1) + "\n")

    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            seed = args.seed + pair - 1
            for i, side in enumerate(pair_order(pair)):
                result = run_bench(trees[side], workload, seed, seconds, 0)
                out["runs"].append({
                    "side": side, "workload": workload, "seed": seed,
                    "first": i == 0, "result": result,
                })
                write()
    if args.traced_workload:
        out["traced_description"] = (
            f"perfbench/run.py --workload {args.traced_workload} --seconds "
            f"{seconds} --trace 1: one run per side at seed {args.traced_seed}; "
            "per-layer self times (wall s, not calibrated) and counts per "
            "traced pass"
        )
        out["traced_runs"] = []
        for side in SIDES:
            result = run_bench(
                trees[side], args.traced_workload, args.traced_seed, seconds, 1
            )
            out["traced_runs"].append({
                "side": side, "workload": args.traced_workload,
                "seed": args.traced_seed, "result": result,
            })
            write()
    write()
    print("\n".join(summary_lines(out["summary"], benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
