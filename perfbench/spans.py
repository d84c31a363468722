"""Span recorder that instruments qbhkit from outside the library.

``instrumented(recorder)`` replaces each public function listed in
``LAYERS`` with a wrapper, in every ``qbhkit`` module that holds a
reference to it (so ``qbhkit.cli.render_json`` and
``qbhkit.reports.render_json`` are both patched), and replaces the
listed methods of ``ScalarExpr`` and ``VectorField`` on the class. On
exit every original is put back.

Each wrapped call records one span: its layer, the span that was open
when it started (its parent), a start and an end time. Spans stay in
memory until ``clear()``; the benchmark summarises and clears them after
each traced pass. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans under a root sum to the
root's duration; the root of each operation is ``qbhkit.cli.run_command``.
Work done by unwrapped code is charged to the nearest wrapped caller.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _count_sample_points(counts, args, result):
    counts["sampling.points"] += len(result)


def _count_guard_candidate(counts, args, result):
    counts["sampling.candidates"] += 1


def _count_span(counts, args, result):
    points = len(result.points)
    counts["criteria.span.points"] += points
    counts["criteria.span.useful"] += points - len(result.skipped)


def _count_eval_array(counts, args, result):
    counts["expr.eval_array.points"] += len(result)


def _count_bytes(counts, args, result):
    counts["reports.bytes"] += len(result.encode("utf-8"))


# layer -> [(target, counter hook or None)]. A target is
# "module:function" or "module:Class.method".
LAYERS = {
    "cli": [("qbhkit.cli:run_command", None)],
    "fixtures": [("qbhkit.fixtures:load_fixture", None)],
    "problem": [
        ("qbhkit.problem:load_problem", None),
        ("qbhkit.problem:parse_problem", None),
        ("qbhkit.problem:problem_digest", None),
        ("qbhkit.problem:ProblemSpec.config", None),
    ],
    "parser": [("qbhkit.parser:parse_expression", None)],
    "expr.simplify": [("qbhkit.expr:ScalarExpr.simplified", None)],
    "expr.diff": [("qbhkit.expr:ScalarExpr.diff", None)],
    "expr.eval_scalar": [("qbhkit.expr:ScalarExpr.at", None)],
    "expr.eval_array": [("qbhkit.expr:ScalarExpr.sample", _count_eval_array)],
    "fields.build": [
        ("qbhkit.fields:VectorField.apply", None),
        ("qbhkit.fields:lie_bracket", None),
        ("qbhkit.fields:lie_derivative_bivector", None),
        ("qbhkit.fields:schouten_bb", None),
        ("qbhkit.fields:contract_hamiltonian", None),
        ("qbhkit.fields:poisson_bracket", None),
        ("qbhkit.fields:wedge", None),
        ("qbhkit.fields:wedge3", None),
    ],
    "fields.components": [
        ("qbhkit.fields:VectorField.components_at", None),
        ("qbhkit.fields:VectorField.at", None),
        ("qbhkit.fields:bivector_components_at", None),
        ("qbhkit.fields:trivector_components_at", None),
        ("qbhkit.fields:trivector_at", None),
    ],
    "sampling": [("qbhkit.sampling:sample_points", _count_sample_points)],
    "criteria.span": [("qbhkit.criteria:span_expand", _count_span)],
    "criteria": [
        (f"qbhkit.criteria:{name}", None)
        for name in (
            "check_poisson_pair",
            "check_automorphism",
            "check_compatibility",
            "check_delta",
            "hamiltonian_condition",
            "separable_hamiltonian",
            "delta_structure_functions",
            "lemma4_coefficients",
            "lemma4_residuals",
            "check_jacobi",
            "hojman_check",
            "linear_realization",
            "check_linear_realization",
        )
    ],
    "qbh": [
        ("qbhkit.qbh:build_qbh", None),
        ("qbhkit.qbh:jacobi_identity_check", None),
        ("qbhkit.qbh:hamiltonian_vector_field", None),
    ],
    "reports": [
        ("qbhkit.reports:render_json", _count_bytes),
        ("qbhkit.reports:render_text", _count_bytes),
        ("qbhkit.reports:build_run_report", None),
        ("qbhkit.reports:make_report", None),
        ("qbhkit.reports:as_informative", None),
    ],
}

# Called once per candidate point; counted, not timed, because a span
# per candidate would cost more than the guard test itself.
COUNTED_ONLY = [("qbhkit.sampling:_passes_guards", _count_guard_candidate)]


class SpanRecorder:
    """Spans as parallel lists: layer index, parent index (-1 for a
    root), start and end times in seconds."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def record(self, layer: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; returns its index."""
        self.layer.append(self.layer_id(layer))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, layer: str, fn, count=None):
        lid = self.layer_id(layer)
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack, counts = self._open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def counter(self, fn, count):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, result)
            return result

        return wrapper

    def clear(self) -> None:
        """Drop recorded spans and counts; layer names are kept."""
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        for column in (self.layer, self.parent, self.start, self.end):
            column.clear()
        self.counts.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def root_time(self) -> float:
        return sum(
            e - s for p, s, e in zip(self.parent, self.start, self.end) if p < 0
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """{layer: {"self_s": ..., "calls": ...}} for every known layer."""
        out = {name: {"self_s": 0.0, "calls": 0} for name in self.layers}
        for lid, value in zip(self.layer, self.self_times()):
            entry = out[self.layers[lid]]
            entry["self_s"] += value
            entry["calls"] += 1
        return out


def _resolve(target: str):
    """(owner, attribute, original) for "module:name" or
    "module:Class.method"."""
    module_name, qualname = target.split(":")
    owner = sys.modules[module_name]
    *classes, attr = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr]
    return owner, attr, original


def _qbhkit_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "qbhkit" or name.startswith("qbhkit."))
    ]


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Patch every target in LAYERS (and the COUNTED_ONLY hooks) for the
    duration of the block, then restore the originals."""
    import qbhkit.cli  # noqa: F401  (loads every module the CLI uses)
    from qbhkit.fixtures import FIXTURES

    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    modules = _qbhkit_modules()
    fixtures_before = dict(FIXTURES)
    try:
        targets = [
            (layer, target, hook)
            for layer, entries in LAYERS.items()
            for target, hook in entries
        ]
        targets += [(None, target, hook) for target, hook in COUNTED_ONLY]
        for layer, target, hook in targets:
            owner, attr, original = _resolve(target)
            if layer is None:
                wrapped = recorder.counter(original, hook)
            else:
                wrapped = recorder.wrap(layer, original, hook)
            if isinstance(owner, type):
                replace(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        replace(module, name, wrapped)
        # fixture runners are looked up through the FIXTURES table
        for name, fixture in fixtures_before.items():
            FIXTURES[name] = dataclasses.replace(
                fixture, runner=recorder.wrap("fixtures", fixture.runner)
            )
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        FIXTURES.clear()
        FIXTURES.update(fixtures_before)
