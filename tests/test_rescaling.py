"""Metamorphic rescaling of the fields of each shipped fixture.

Multiplying fields by 2^k is exact in floating point and keeps the
algebra each check tests: X ^ Y is Poisson iff (2^k X) ^ (2^j Y) is, a
compatibility holds for any rescaling of one of its four fields, and
(X1, X2, XH) is a Jacobi structure iff (2^k X1, 2^k X2, 2^2k XH) is. The
residual and independence tolerances are absolute, so the verdict holds
only over a range of k. For each fixture at its own config, these tests
pin that range: the first and the last k at which the exit code, the
verdict, the skip count of every condition and the numpy warnings raised
are those of k = 0, and that the next k beyond either end differs. The
README lists the same ranges.
"""
import warnings

import pytest

import qbhkit as qk

# the largest k for which 2.0**k is a float
K_MAX = 1023


def _fixture(name):
    """The fixture's fields, XH = dH | (X1 ^ X2) where it has an H, and
    its config; loaded afresh, so no bracket is cached from another run."""
    spec = qk.load_fixture(name)
    fields = dict(spec.fields)
    if "X2" in fields and "H" in spec.functions:
        fields["XH"] = qk.contract_hamiltonian(
            spec.functions["H"], qk.wedge(fields["X1"], fields["X2"])
        )
    return fields, spec.config()


def _outcome(check, *args):
    """(exit code, skip count per condition, numpy warnings) of one run;
    exit code 3 when every point is skipped, as through the CLI."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = check(*args)
            got = (0 if report.passed else 1, [c.skipped for c in report.conditions])
        except qk.AllPointsSkippedError:
            got = (3, [])
    return got + (sorted({str(w.message) for w in caught}),)


def _scaled(field, k):
    return field.scaled(2.0**k) if k else field


def _run(name, check, scaled, k):
    fields, cfg = _fixture(name)
    if check == "poisson":
        X, Y = fields["X1"], fields.get("X2", fields.get("X3"))
        kx = k if scaled in ("X", "XY") else 0
        ky = k if scaled in ("Y", "XY") else 0
        return _outcome(qk.check_poisson_pair, _scaled(X, kx), _scaled(Y, ky), cfg)
    if check == "compatibility":
        order = ("X1", "X2", "XH", "X3")
        args = [_scaled(fields[n], k if n == scaled else 0) for n in order]
        return _outcome(qk.check_compatibility, *args, cfg)
    X1, X2, XH = (fields[n] for n in ("X1", "X2", "XH"))
    return _outcome(
        qk.check_jacobi, _scaled(X1, k), _scaled(X2, k), _scaled(XH, 2 * k), cfg
    )


# (fixture, check, fields scaled, first k, last k) of the range that
# agrees with k = 0. check_poisson_pair takes (X1, X2), or (X1, X3) on
# hojman-2d; "X", "Y" or "XY" scales the first, the second or both.
RANGES = [
    ("exp-realization", "poisson", "X", -33, 1022),
    ("exp-realization", "poisson", "Y", -32, 1023),
    ("exp-realization", "poisson", "XY", -32, 1022),
    ("rotation", "poisson", "X", -32, 1023),
    ("rotation", "poisson", "Y", -33, 1023),
    ("rotation", "poisson", "XY", -32, 1023),
    ("so3-jacobi", "poisson", "X", -31, 11),
    ("so3-jacobi", "poisson", "Y", -31, 11),
    ("so3-jacobi", "poisson", "XY", -31, 5),
    ("heisenberg-jacobi", "poisson", "X", -29, 511),
    ("heisenberg-jacobi", "poisson", "Y", -29, 511),
    ("heisenberg-jacobi", "poisson", "XY", -14, 255),
    ("linear-abelian", "poisson", "X", -32, 1023),
    ("linear-abelian", "poisson", "Y", -33, 1023),
    ("linear-abelian", "poisson", "XY", -32, 1023),
    ("hojman-2d", "poisson", "X", -32, 1022),
    ("hojman-2d", "poisson", "Y", -33, 35),
    ("hojman-2d", "poisson", "XY", -32, 511),
    ("exp-realization", "compatibility", "X1", -33, 1022),
    ("exp-realization", "compatibility", "X2", -32, 1022),
    ("exp-realization", "compatibility", "XH", -32, 1021),
    ("exp-realization", "compatibility", "X3", -33, 1022),
    ("rotation", "compatibility", "X1", -32, 20),
    ("rotation", "compatibility", "X2", -33, 20),
    ("rotation", "compatibility", "XH", -32, 20),
    ("rotation", "compatibility", "X3", -23, 20),
    ("so3-jacobi", "jacobi", "X1 X2 XH", -31, 6),
    ("heisenberg-jacobi", "jacobi", "X1 X2 XH", -33, 255),
]


@pytest.mark.parametrize(
    "name, check, scaled, first, last",
    RANGES,
    ids=[f"{n}-{c}-{s.replace(' ', '')}" for n, c, s, _, _ in RANGES],
)
def test_rescaled_fields_keep_the_outcome_over_the_pinned_range(
    name, check, scaled, first, last
):
    base = _run(name, check, scaled, 0)
    assert _run(name, check, scaled, first) == base
    assert _run(name, check, scaled, last) == base
    # the jacobi check scales XH by 2^2k, so 2k must stay representable
    k_max = K_MAX // 2 if check == "jacobi" else K_MAX
    if last < k_max:
        assert _run(name, check, scaled, last + 1) != base
    assert _run(name, check, scaled, first - 1) != base


def test_heisenberg_pair_is_certified_poisson_once_rescaled():
    # X1 ^ X2 is not Poisson, but every residual scales with the fields
    # while the tolerances do not
    assert _run("heisenberg-jacobi", "poisson", "XY", 0) == (1, [0, 0], [])
    assert _run("heisenberg-jacobi", "poisson", "XY", -15) == (0, [0, 0], [])
    assert _run("heisenberg-jacobi", "poisson", "XY", -30) == (0, [0, 0], [])
    assert _run("heisenberg-jacobi", "poisson", "XY", -34) == (3, [], [])
