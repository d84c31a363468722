"""Time one operation on two source trees in one process, alternately.

    python3 tools/ab_inprocess.py PARENT_TREE CHANGE_TREE \\
        [--fixture NAME [--samples N] | --generated SEED] [--ops 150] [--warmup 10]

PARENT_TREE and CHANGE_TREE are checkouts of this repository. Each
tree's ``src/qbhkit`` is copied into a temporary directory under a
package name of its own (``qbhkit_parent``, ``qbhkit_change``), and both
are imported into this process, with BLAS threads pinned to 1. Each
operation is the in-process CLI call ``run_command(argv)``: ``example
run NAME --format json`` (default exp-realization at its own samples),
or with ``--generated`` ``check poisson --format json`` on a new problem
of the change tree's ``perfbench/generate.py`` per operation. The two
trees run the same operation one after the other, in an order that
swaps at every operation, so that a slow period of the machine falls on
both. Their stdout must be byte-identical: the first difference is
printed and the exit code is 1. Otherwise the tool prints both trees'
median wall time per operation, the change's median over the parent's,
and the operations in which the change was faster; the exit code is 0.

Both trees share one interpreter, one allocator and one numpy, so this
resolves small differences that fresh-process runs blur, but its
timings are not the benchmark's: claims are made with
``tools/bench_pairs.py``. A tree whose ``fixtures.py`` reads its
problem files from the package named ``qbhkit`` is made to read them
from its own copy.
"""
from __future__ import annotations

import argparse
import importlib
import io
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SIDES = ("parent", "change")


def copy_package(tree: Path, name: str, into: Path) -> None:
    """``tree``'s src/qbhkit as the package ``name`` under ``into``."""
    target = into / name
    shutil.copytree(
        tree / "src" / "qbhkit", target, ignore=shutil.ignore_patterns("__pycache__")
    )
    fixtures = target / "fixtures.py"
    text = fixtures.read_text(encoding="utf-8")
    fixtures.write_text(
        text.replace('resources.files("qbhkit")', "resources.files(__package__)"),
        encoding="utf-8",
    )


def run_commands(trees, workdir: Path):
    """{side: the package's ``run_command``} for the two trees."""
    sys.path.insert(0, str(workdir))
    commands = {}
    for side, tree in zip(SIDES, trees):
        name = f"qbhkit_{side}"
        copy_package(tree, name, workdir)
        commands[side] = importlib.import_module(f"{name}.cli").run_command
    return commands


def generated_argvs(change_tree: Path, seed: int, workdir: Path):
    """One ``check poisson`` argv per index, on a problem file written
    from the change tree's generator."""
    sys.path.insert(0, str(change_tree / "perfbench"))
    import generate

    index = 0
    while True:
        path = workdir / f"generated-{seed}-{index}.prob"
        path.write_text(generate.problem_text(seed, index), encoding="utf-8")
        yield ["check", "poisson", "--input", str(path), "--format", "json"]
        path.unlink()
        index += 1


def fixture_argvs(name: str, samples):
    argv = ["example", "run", name, "--format", "json"]
    if samples is not None:
        argv += ["--samples", str(samples)]
    while True:
        yield argv


def timed(run_command, argv):
    """(wall seconds, exit code, stdout) of one call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code, _ = run_command(argv, stdout=out, stderr=err)
    return time.perf_counter() - start, code, out.getvalue()


def compare(commands, argvs, ops: int, warmup: int):
    """{side: [seconds per timed operation]}, or raise AssertionError at
    the first operation whose outputs differ."""
    times = {side: [] for side in SIDES}
    for op in range(warmup + ops):
        argv = next(argvs)
        results = {}
        for side in SIDES if op % 2 == 0 else SIDES[::-1]:
            results[side] = timed(commands[side], argv)
        (_, code_a, out_a), (_, code_b, out_b) = (results[s] for s in SIDES)
        if (code_a, out_a) != (code_b, out_b):
            raise AssertionError(
                f"operation {op} ({' '.join(argv)}) differs: exit {code_a} vs "
                f"{code_b}, stdout {len(out_a)} vs {len(out_b)} bytes"
            )
        if op >= warmup:
            for side in SIDES:
                times[side].append(results[side][0])
    return times


def summary(times) -> list[str]:
    parent = statistics.median(times["parent"])
    change = statistics.median(times["change"])
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return [
        f"parent median {parent * 1e3:.4f} ms/op",
        f"change median {change * 1e3:.4f} ms/op",
        f"ratio change/parent {change / parent:.4f}",
        f"change faster in {won}/{len(times['change'])} ops",
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--fixture", default="exp-realization")
    which.add_argument("--generated", type=int, metavar="SEED")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--ops", type=int, default=150)
    parser.add_argument("--warmup", type=int, default=10)
    args = parser.parse_args(argv)
    if args.ops < 1 or args.warmup < 0:
        parser.error("--ops must be at least 1 and --warmup at least 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    with tempfile.TemporaryDirectory(prefix="ab_inprocess-") as tmp:
        workdir = Path(tmp)
        commands = run_commands((args.parent.resolve(), args.change.resolve()), workdir)
        if args.generated is not None:
            argvs = generated_argvs(args.change.resolve(), args.generated, workdir)
        else:
            argvs = fixture_argvs(args.fixture, args.samples)
        try:
            times = compare(commands, argvs, args.ops, args.warmup)
        except AssertionError as exc:
            print(f"ab_inprocess: {exc}", file=sys.stderr)
            return 1
    print("\n".join(summary(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
