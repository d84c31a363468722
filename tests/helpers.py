"""Shared builders for the test suite."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qbhkit as qk
from qbhkit.expr import Call, Const, Coord


def make_cfg(chart, lo=-1.0, hi=1.0, samples=60, seed=7, guards=(), box=None, tol=None):
    if box is None:
        box = tuple((lo, hi) for _ in chart.names)
    domain = qk.SampleDomain(chart, box, tuple(guards), samples=samples, seed=seed)
    return qk.VerifyConfig(domain=domain, tol=tol or qk.ToleranceConfig())


def exp_triple():
    """X1 = e^z d/dx + d/dy, X2 = d/dy, X3 = d/dz on (x, y, z)."""
    chart = qk.CoordinateChart(("x", "y", "z"))
    z = chart.coordinate("z")
    x1 = qk.VectorField.from_mapping(
        chart, {"x": qk.exp(z), "y": chart.constant(1.0)}
    )
    x2 = qk.coordinate_field(chart, "y")
    x3 = qk.coordinate_field(chart, "z")
    return chart, x1, x2, x3


def exp_cfg(samples=60, seed=7):
    """Sampling box matching the exp realization: z stays in [0.1, 1]."""
    chart, x1, x2, x3 = exp_triple()
    box = ((-1.0, 1.0), (-1.0, 1.0), (0.1, 1.0))
    return chart, x1, x2, x3, make_cfg(chart, box=box, samples=samples, seed=seed)


def rotation_triple():
    """The planar-rotation realization with the closed-form X3."""
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    c1, c2 = chart.coordinate("x1"), chart.coordinate("x2")
    theta = qk.atan2(c2, c1)
    x1 = qk.VectorField.from_mapping(chart, {"x1": -c2, "x2": c1})
    x2 = qk.coordinate_field(chart, "x3")
    x3 = qk.VectorField(
        chart, ((theta * c2).simplified(), (-(theta * c1)).simplified(), theta)
    )
    return chart, x1, x2, x3


def rotation_cfg(samples=60, seed=7):
    chart, x1, x2, x3 = rotation_triple()
    r2 = qk.parse_expression("sqrt(x1^2 + x2^2 - 0.25)", chart)
    box = ((0.1, 1.5), (-1.2, 1.2), (-1.0, 1.0))
    cfg = make_cfg(
        chart, box=box, samples=samples, seed=seed, guards=(qk.Guard(r2),)
    )
    return chart, x1, x2, x3, cfg


def non_poisson_pair():
    """d/dx1 ^ (d/dx2 + x1 d/dx3): its self-Schouten bracket is constant 2."""
    chart = qk.CoordinateChart(("x1", "x2", "x3"))
    x = qk.coordinate_field(chart, "x1")
    y = qk.VectorField.from_mapping(
        chart,
        {"x2": chart.constant(1.0), "x3": chart.coordinate("x1")},
    )
    return chart, x, y


def max_field_deviation(X, Y, points):
    """Max over points and components of |X - Y|."""
    diff = X.components_at(points) - Y.components_at(points)
    return float(np.max(np.abs(diff)))


def random_fields(chart, rng, degree=2, count=2):
    fields = []
    for _ in range(count):
        comps = tuple(
            qk.random_polynomial(chart, rng, degree=degree)
            for _ in chart.names
        )
        fields.append(qk.VectorField(chart, comps))
    return fields


def fresh_copy(X):
    """A new field object with X's components. Brackets are cached per
    pair of field objects, so a copy makes lie_bracket and schouten_bb
    build their result symbolically instead of reading the cache."""
    return qk.VectorField(X.chart, X.components)


def perfbench_module(name):
    """The benchmark's module perfbench/NAME.py, loaded from its file
    without adding perfbench/ to the import path."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_runs(argvs, no_gc=False):
    """What tests/fresh_runs.py prints for the CLI calls ``argvs`` (a
    list of argv lists), made one after another in a fresh interpreter
    on the library this suite imports."""
    src = str(Path(qk.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, str(Path(__file__).with_name("fresh_runs.py")), json.dumps(argvs)]
    proc = subprocess.run(
        argv + (["--no-gc"] if no_gc else []),
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def generated_problem_text(seed, index):
    """Problem ``index`` of seed ``seed`` of the generated-poisson
    benchmark workload, from perfbench/generate.py."""
    return perfbench_module("generate").problem_text(seed, index)


def nested_cyclic_sums(B, triples, points):
    """{{F,G},K} + {{G,K},F} + {{K,F},G} from nested symbolic Poisson
    brackets, one row per triple (NaN where undefined): an oracle for
    jacobi_identity_check, which contracts the Schouten bracket instead."""
    pb = qk.poisson_bracket
    rows = []
    for F, G, K in triples:
        cyclic = pb(B, pb(B, F, G), K) + pb(B, pb(B, G, K), F) + pb(B, pb(B, K, F), G)
        rows.append(qk.evaluate_at_points(cyclic.simplified(), points))
    return np.vstack(rows)


# Expressions nested past the parser's depth limit of 100, in the three
# ways input can nest: parentheses, calls, and a left-associative chain
# that the parser builds without recursing.
DEEP_EXPRESSIONS = {
    "parentheses-198": "(" * 198 + "y" + ")" * 198,
    "sin-chain-165": "sin(" * 165 + "y" + ")" * 165,
    "division-chain-2000": "y" + "/2" * 2000,
}


def same_tree(a, b):
    """Whether nodes ``a`` and ``b`` print as the same tree: the same
    kinds of node, functions, coordinates and constants, operand by
    operand. A structural oracle that does not rely on interning."""
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return repr(a.value) == repr(b.value)
    if isinstance(a, Coord):
        return a.name == b.name
    if isinstance(a, Call) and a.func != b.func:
        return False
    return len(a.args) == len(b.args) and all(map(same_tree, a.args, b.args))
