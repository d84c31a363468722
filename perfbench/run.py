"""qbhkit certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` as
it is, with BLAS threads pinned to 1. One client runs a closed loop in
this process: each operation is the in-process CLI call
``qbhkit.cli.run_command(argv)``, and the next one starts when it
returns. Every operation is checked by the correctness gate
(``gate.py``); an operation that raises, exits with another code or
reports another verdict counts as failed.

Workloads (see NOTES.md for why each exists):

* ``fixtures-200``: ``example run NAME --format json`` for the six
  shipped fixtures at their own 200 samples, in whole passes whose order
  is shuffled by the seed.
* ``fixtures-5k``: the same with ``--samples 5000``.
* ``generated-poisson``: ``check poisson --input FILE --format json`` on
  a new problem from ``generate.py`` for each operation, in passes of 8.
  Each pass ends with the six fixtures at their own 200 samples; those
  give this workload's ``fixture_s.*`` figures.

Timings are calibrated to the machine's speed: a fixed speed probe is
timed after every operation, and each operation's wall time is scaled
to the probe's reference time (see "machine speed" below and NOTES.md).

With ``--trace 0`` the run times operations untraced and prints the
end-to-end metrics. With ``--trace 1`` it alternates untraced and traced
passes (``spans.py``) and prints the per-layer metrics: per traced pass,
the median over traced passes. A new pass starts while fewer than
``--seconds`` seconds have passed since the timed loop began.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when the run completed (whether or not every operation was correct)
and 2 when the checkout has no ``src/qbhkit`` to measure.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import gate
import generate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

GENERATED_PASS = 8  # generated operations per pass
RERUN_EVERY = 10  # every 10th generated operation is rerun for byte identity
SETUP_PROBES = 11
SETUP_PROBLEMS = 8  # generated problems written and parsed during set-up
WARMUP_SAMPLES = 20
# the speed probe's three parts (see speed_probe)
PROBE_LOOPS = 40_000
PROBE_LOOKUPS = 20_000
PROBE_SOLVES = 40
# the speed probe's usual time on the machine the benchmark was written
# on; timed seconds are scaled to it (see SpeedLog.calibrated)
PROBE_REFERENCE_S = 0.0134
SPEED_WINDOW_S = 1.0  # probes this close to an operation give its speed


@dataclass(frozen=True)
class Workload:
    name: str
    samples: int | None  # fixture sample count; None = the files' own
    # op_s.tail: the highest whole percentile that leaves >= 10 ops beyond
    # it at the op counts measured when the benchmark was written, fixed
    # so that a faster commit (more ops) is compared at the same rank
    tail_percentile: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixtures-200", None, 93),
        Workload("fixtures-5k", 5000, 47),
        Workload("generated-poisson", None, 90),
    )
}

FIXTURE_NAMES = (
    "exp-realization",
    "rotation",
    "so3-jacobi",
    "heisenberg-jacobi",
    "linear-abelian",
    "hojman-2d",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    **{f"fixture_s.{name}": "s" for name in FIXTURE_NAMES},
}

# per-layer metric -> unit; "self_s" and "calls" come from the span
# summary, the rest from counters
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "fixtures.self_s": "s",
    "problem.self_s": "s",
    "problem.calls": "count",
    "parser.self_s": "s",
    "parser.calls": "count",
    "expr.simplify.self_s": "s",
    "expr.simplify.calls": "count",
    "expr.diff.self_s": "s",
    "expr.diff.calls": "count",
    "expr.eval_scalar.self_s": "s",
    "expr.eval_scalar.calls": "count",
    "expr.eval_array.self_s": "s",
    "expr.eval_array.calls": "count",
    "expr.eval_array.points": "count",
    "fields.build.self_s": "s",
    "fields.build.calls": "count",
    "fields.components.self_s": "s",
    "fields.components.calls": "count",
    "sampling.self_s": "s",
    "sampling.calls": "count",
    "sampling.points": "count",
    "sampling.accept_ratio": "ratio",
    "criteria.self_s": "s",
    "criteria.span.self_s": "s",
    "criteria.span.calls": "count",
    "criteria.span.points": "count",
    "criteria.span.useful_ratio": "ratio",
    "qbh.self_s": "s",
    "qbh.calls": "count",
    "reports.self_s": "s",
    "reports.bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# machine speed
#
# The benchmark was written on a host that shares its cores. Its speed
# drifted by 20-35 % in periods from seconds to over a minute, the same
# for every operation, so the median of one run moved with the period it
# happened to fall in. So a speed probe follows every timed interval, and
# the interval's wall time is scaled by PROBE_REFERENCE_S over the mean of
# the probes taken within SPEED_WINDOW_S of it. The probe is fixed work
# that calls no qbhkit code and allocates almost no object the garbage
# collector tracks, so a change to qbhkit does not change it.


@functools.cache
def probe_inputs():
    import numpy

    rng = numpy.random.default_rng(0)
    keys = [f"key{i}" for i in range(4096)]
    return keys, rng.random((200, 12)), rng.random((200, 3))


def speed_probe() -> float:
    """Seconds for fixed work of three kinds, each of which followed the
    machine's drift on its own: an integer loop, dict lookups, and small
    least-squares solves (LAPACK)."""
    import numpy

    keys, matrix, rhs = probe_inputs()
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    counts = dict.fromkeys(keys, 0)
    for i in range(PROBE_LOOKUPS):
        counts[keys[i * 2654435761 % len(keys)]] += 1
    for _ in range(PROBE_SOLVES):
        numpy.linalg.lstsq(matrix, rhs, rcond=None)
    return time.perf_counter() - start


class SpeedLog:
    """Speed probes with the perf_counter times at which they ended."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        seconds = speed_probe()
        self.probes.append((time.perf_counter(), seconds))

    def calibrated(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end`` scaled to the machine
        speed at which a probe takes PROBE_REFERENCE_S."""
        near = [
            seconds
            for at, seconds in self.probes
            if start - SPEED_WINDOW_S <= at <= end + SPEED_WINDOW_S
        ]
        return (end - start) * PROBE_REFERENCE_S / statistics.fmean(near)


SPEED = SpeedLog()


def calibrate(timings) -> list[tuple[str, float, float]]:
    """[(label, start, end)] -> [(label, calibrated seconds, wall seconds)]"""
    return [
        (label, SPEED.calibrated(start, end), end - start) for label, start, end in timings
    ]


# ---------------------------------------------------------------------------
# operations


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: " + "; ".join(problems))


def call(argv: list[str]) -> tuple[float, float, int, str]:
    """One in-process CLI call followed by a speed probe: (start, end,
    exit code, stdout), with perf_counter start and end times. The probe
    after the previous call (the warm-up's, for the first timed call)
    serves as the probe before this one."""
    from qbhkit.cli import run_command

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code, _ = run_command(argv, stdout=out, stderr=err)
    end = time.perf_counter()
    SPEED.probe()
    return start, end, code, out.getvalue()


def gated_call(argv, check, tally: Tally, label: str, same_as: str | None = None):
    """Run one operation and pass it through the gate; returns (start,
    end, rendered report), or (None, None, None) if it raised.
    ``same_as`` is an earlier rendering of the same operation that must
    match byte for byte."""
    try:
        start, end, code, rendered = call(argv)
        problems = check(gate.outcome(code, rendered))
    except Exception:  # a traceback is a failed operation, not a crash
        tally.record(label, [traceback.format_exc(limit=3)])
        return None, None, None
    if same_as is not None and rendered != same_as:
        problems.append("rerun is not byte-identical to the first run")
    tally.record(label, problems)
    return start, end, rendered


# ---------------------------------------------------------------------------
# workloads: run_pass() returns [(label, start, end)] for timed operations


class FixtureOps:
    """Whole passes over the six shipped fixtures at one sample count.
    Every run of a fixture after its first must render a byte-identical
    report."""

    def __init__(self, samples, seed, expected, tally: Tally):
        self.samples = samples
        self.seed = seed
        self.rows = expected["fixtures"][gate.samples_key(samples)]
        self.tally = tally
        self.first_render: dict[str, str] = {}
        self.passes = 0

    def run_pass(self) -> list[tuple[str, float]]:
        order = list(FIXTURE_NAMES)
        random.Random(f"fixtures:{self.seed}:{self.passes}").shuffle(order)
        self.passes += 1
        return [timing for name in order for timing in self.run_fixture(name)]

    def run_fixture(self, name: str) -> list[tuple[str, float, float]]:
        start, end, rendered = gated_call(
            gate.fixture_argv(name, self.samples),
            lambda got: gate.compare(self.rows[name], got),
            self.tally,
            f"{name} samples={self.samples}",
            self.first_render.get(name),
        )
        if start is None:
            return []
        self.first_render.setdefault(name, rendered)
        return [(name, start, end)]

    def finish_pass(self) -> None:
        pass


class GeneratedOps:
    """Passes of freshly generated Poisson-pair problems, each followed by
    a pass of ``reference`` (a FixtureOps over the shipped fixtures),
    whose operations are labelled with the fixture name. The fixtures run
    after state left by many distinct problems, and spreading them over
    the run exposes them to the same machine drift as the generated
    operations. Every 10th generated operation is run a second time,
    untimed, after the pass (outside any tracing) and must render a
    byte-identical report."""

    def __init__(self, seed, tally: Tally, workdir: str, reference: FixtureOps):
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        self.reference = reference
        self.next_index = 0
        self.done: list[tuple[list[str], str | None]] = []

    def run_pass(self) -> list[tuple[str, float]]:
        timings = []
        for _ in range(GENERATED_PASS):
            index = self.next_index
            self.next_index += 1
            path = generate.write_problem(self.workdir, self.seed, index)
            argv = ["check", "poisson", "--input", path, "--format", "json"]
            start, end, rendered = gated_call(
                argv, gate.check_generated, self.tally, path
            )
            if start is not None:
                timings.append((path, start, end))
            self.done.append((argv, rendered if index % RERUN_EVERY == 0 else None))
        return timings + self.reference.run_pass()

    def finish_pass(self) -> None:
        for argv, rendered in self.done:
            if rendered is not None:
                gated_call(argv, gate.check_generated, self.tally, argv[3], rendered)
            os.remove(argv[3])
        self.done.clear()


# ---------------------------------------------------------------------------
# set-up


def load_inputs(workload: Workload, seed: int, workdir: str) -> None:
    """The workload's inputs as a user would load them: fixture problem
    files, or generated problem files written and parsed."""
    if workload.name == "generated-poisson":
        from qbhkit.problem import load_problem

        for index in range(SETUP_PROBLEMS):
            load_problem(generate.write_problem(workdir, seed, -1 - index))
    else:
        from qbhkit.fixtures import load_fixture

        for name in FIXTURE_NAMES:
            load_fixture(name)


def probe_setup(workload: Workload, seed: int) -> tuple[float, float]:
    """Import qbhkit and load the inputs in this fresh process; returns
    the (calibrated, wall) seconds that took. Both speed probes come
    after, because the probe imports numpy, which is part of set-up."""
    start = time.perf_counter()
    import qbhkit.cli  # noqa: F401

    workdir = make_workdir(seed)
    try:
        load_inputs(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    end = time.perf_counter()
    SPEED.probe()
    SPEED.probe()
    return SPEED.calibrated(start, end), end - start


def measure_setup(workload: Workload, seed: int) -> list[tuple[str, float, float]]:
    """("setup", calibrated seconds, wall seconds) timings, each from its
    own fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds, wall = proc.stdout.strip().splitlines()[-1].split()
        samples.append(("setup", float(seconds), float(wall)))
    return samples


def make_workdir(seed: int) -> str:
    path = os.path.join(WORK, f"{seed}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# measurement


def tail_value(values: list[float], percentile: int) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * percentile / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed_passes(ops, seconds: float, traced_every: int = 0, recorder=None):
    """Run passes while fewer than ``seconds`` have passed. With
    ``traced_every`` = 2 every second pass runs instrumented; returns
    (untraced passes, traced passes with their span summaries)."""
    untraced, traced = [], []
    begin = time.perf_counter()
    index = 0
    while (
        not untraced
        or (traced_every and not traced)
        or time.perf_counter() - begin < seconds
    ):
        if traced_every and index % traced_every == 1:
            recorder.clear()
            with spans.instrumented(recorder):
                timings = ops.run_pass()
            traced.append((timings, summarize_spans(recorder)))
        else:
            untraced.append(ops.run_pass())
        ops.finish_pass()
        index += 1
    return untraced, traced


def summarize_spans(recorder) -> dict[str, float]:
    summary = recorder.summary()
    counts = recorder.counts
    out = {}
    for layer in spans.LAYERS:
        entry = summary.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = entry["self_s"]
        out[f"{layer}.calls"] = entry["calls"]
    out["expr.eval_array.points"] = counts["expr.eval_array.points"]
    out["sampling.points"] = counts["sampling.points"]
    out["sampling.accept_ratio"] = ratio(
        counts["sampling.points"], counts["sampling.candidates"]
    )
    out["criteria.span.points"] = counts["criteria.span.points"]
    out["criteria.span.useful_ratio"] = ratio(
        counts["criteria.span.useful"], counts["criteria.span.points"]
    )
    out["reports.bytes"] = counts["reports.bytes"]
    out["self_total_s"] = sum(entry["self_s"] for entry in summary.values())
    return out


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


CALIBRATED, WALL = 1, 2  # positions in a (label, calibrated, wall) timing


def pass_seconds(timings, which: int = CALIBRATED) -> float:
    return sum(timing[which] for timing in timings)


def make_ops(workload, seed, expected, tally, workdir):
    if workload.name == "generated-poisson":
        reference = FixtureOps(None, seed, expected, tally)
        return GeneratedOps(seed, tally, workdir, reference)
    return FixtureOps(workload.samples, seed, expected, tally)


def timing_values(workload, setup, passes, which: int) -> dict[str, float]:
    """The timing metrics from the calibrated (``which`` = CALIBRATED) or
    the wall (WALL) seconds of the set-up samples and the passes."""
    values = {"setup_s": statistics.median(sample[which] for sample in setup)}
    for name in FIXTURE_NAMES:
        times = [t[which] for timings in passes for t in timings if t[0] == name]
        values[f"fixture_s.{name}"] = statistics.median(times) if times else 0.0
    if workload.name == "generated-poisson":
        # pass_s and op_s.* are about the generated operations only
        passes = [[t for t in timings if t[0] not in FIXTURE_NAMES] for timings in passes]
    op_times = [t[which] for timings in passes for t in timings]
    values["pass_s"] = statistics.median(pass_seconds(t, which) for t in passes)
    values["op_s.p50"] = statistics.median(op_times)
    values["op_s.tail"] = tail_value(op_times, workload.tail_percentile)
    values["ops"] = len(op_times)
    values["beyond_tail"] = sum(1 for t in op_times if t > values["op_s.tail"])
    return values


def end_to_end(workload, seed, seconds, expected, tally, workdir) -> dict:
    setup = measure_setup(workload, seed)
    passes, _ = timed_passes(make_ops(workload, seed, expected, tally, workdir), seconds)
    passes = [calibrate(timings) for timings in passes]
    values = timing_values(workload, setup, passes, CALIBRATED)
    wall = timing_values(workload, setup, passes, WALL)
    speed = statistics.median(t[WALL] / t[CALIBRATED] for timings in passes for t in timings)
    print(
        f"# {len(passes)} passes, {values['ops']} timed ops; op_s.tail is "
        f"p{workload.tail_percentile} with {values['beyond_tail']} ops beyond it; "
        f"setup_s samples {[round(s[CALIBRATED], 4) for s in setup]}\n"
        f"# median wall/calibrated time {speed:.4f}; uncalibrated: "
        + ", ".join(
            f"{name} {wall[name]:.6g}" for name, unit in END_TO_END_UNITS.items() if unit == "s"
        )
    )
    values["ok_frac"] = ratio(tally.attempted - tally.failed, tally.attempted)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}


def per_layer(workload, seed, seconds, expected, tally, workdir) -> dict:
    ops = make_ops(workload, seed, expected, tally, workdir)
    untraced, traced = timed_passes(ops, seconds, 2, spans.SpanRecorder())
    untraced = [calibrate(timings) for timings in untraced]
    traced = [(calibrate(timings), summary) for timings, summary in traced]

    traced_seconds = [pass_seconds(t) for t, _ in traced]
    values = {
        key: statistics.median(summary[key] for _, summary in traced)
        for key in PER_LAYER_UNITS
        if not key.startswith("trace.")
    }
    values["trace.overhead_s"] = statistics.median(traced_seconds) - statistics.median(
        pass_seconds(t) for t in untraced
    )
    # spans are wall times, so they are compared with the wall time
    values["trace.accounted_ratio"] = statistics.median(
        summary["self_total_s"] / pass_seconds(t, WALL) for t, summary in traced
    )
    print(
        f"# {len(untraced)} untraced and {len(traced)} traced passes; "
        "per-layer figures are medians over traced passes, per pass"
    )
    return {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}


def warm_up(workload: Workload, seed: int, workdir: str) -> None:
    """Untimed, unchecked calls so first-call costs stay out of the loop."""
    if workload.name == "generated-poisson":
        for index in range(2):
            path = generate.write_problem(workdir, seed, -100 - index)
            call(["check", "poisson", "--input", path, "--format", "json"])
    for name in FIXTURE_NAMES:
        call(gate.fixture_argv(name, WARMUP_SAMPLES))


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qbhkit certification benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbhkit", "cli.py")):
        print(f"perfbench: no qbhkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]

    if args.probe_setup:
        print(*probe_setup(workload, args.seed))
        return 0

    import qbhkit

    if os.path.dirname(os.path.abspath(qbhkit.__file__)) != os.path.join(SRC, "qbhkit"):
        print(f"perfbench: imported qbhkit from {qbhkit.__file__}", file=sys.stderr)
        return 2

    import numpy

    print(
        f"# python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, workload {workload.name}, seed {args.seed}"
    )
    expected = gate.load_expected()
    tally = Tally()
    workdir = make_workdir(args.seed)
    try:
        warm_up(workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, args.seed, args.seconds, expected, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
