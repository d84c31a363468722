"""Make CLI calls one after another in a fresh interpreter and count the
symbolic work of each.

    python tests/fresh_runs.py '[["example", "run", "rotation"], ...]' [--no-gc]

Prints one JSON object: ``runs``, per call, [node derivatives (calls of
``expr._ndiff``), composite evaluations (calls of ``expr._combine``),
live interned nodes after the call, span bases factored (calls of
``criteria._FactoredBasis.__init__``), span expansions (calls of
``criteria.span_expand``), component rows materialized (arrays handed
to ``PointCloud.hold``), chart checks (calls of
``chart.require_same_chart``, through whichever module calls it),
``ScalarExpr`` objects built]; ``live_before``, the live interned nodes
before the first call; and ``cyclic``, what ``gc.collect()`` found
after the last call.

With ``--no-gc`` the first call is made once more before the counted
ones, to import and set up what a first call does, then the cycle
collector is switched off for the counted calls, so a node freed only
by the collector stays live.

Interned nodes are shared by every live tree, so a count made in a
process that holds other trees depends on them: the tests count here.
"""
import gc
import io
import json
import sys

import numpy as np

import qbhkit.chart as chart
import qbhkit.criteria as criteria
import qbhkit.expr as expr
from qbhkit.chart import PointCloud
from qbhkit.cli import run_command

KEYS = ("ndiff", "combine", "bases", "spans", "rows", "charts", "exprs")


def run(argv):
    run_command(argv, stdout=io.StringIO(), stderr=io.StringIO())


def main():
    argvs = json.loads(sys.argv[1])
    no_gc = "--no-gc" in sys.argv[2:]
    if no_gc:
        run(argvs[0])
        gc.collect()
        gc.disable()
    counts = dict.fromkeys(KEYS, 0)

    def counted(key, function):
        def wrapper(*args):
            counts[key] += 1
            return function(*args)

        return wrapper

    def counted_rows(hold):
        def wrapper(cloud, key, value):
            counts["rows"] += isinstance(value, np.ndarray)
            return hold(cloud, key, value)

        return wrapper

    expr._ndiff = counted("ndiff", expr._ndiff)
    expr._combine = counted("combine", expr._combine)
    criteria._FactoredBasis.__init__ = counted("bases", criteria._FactoredBasis.__init__)
    criteria.span_expand = counted("spans", criteria.span_expand)
    PointCloud.hold = counted_rows(PointCloud.hold)
    original = chart.require_same_chart
    checks = counted("charts", original)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("qbhkit"):
            if getattr(module, "require_same_chart", None) is original:
                module.require_same_chart = checks
    expr.ScalarExpr.__init__ = counted("exprs", expr.ScalarExpr.__init__)
    live_before = len(expr._NODES)
    runs = []
    for argv in argvs:
        counts.update(dict.fromkeys(KEYS, 0))
        run(argv)
        ndiff, combine, bases, spans, rows, charts, exprs = (counts[key] for key in KEYS)
        runs.append([ndiff, combine, len(expr._NODES), bases, spans, rows, charts, exprs])
    print(json.dumps({"runs": runs, "live_before": live_before, "cyclic": gc.collect()}))


if __name__ == "__main__":
    main()
