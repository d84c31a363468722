"""Metamorphic relations of the Poisson-pair, Jacobi and compatibility
checks on the shipped fixtures.

X ^ Y, Y ^ X and (X + Y) ^ Y are the same bivector up to sign, so
whether it is a Poisson tensor cannot depend on which of them is
checked. Each is expanded in another basis of the same span (swapped or
sheared), so the pointwise linear algebra differs while the verdict and
the points skipped must not. Only the bits of residuals may move.

The same changes of basis of span{X1, X2} keep a Jacobi structure one:
(X2, X1, -XH) and (X1 + X2, X2, XH) satisfy the commutation rules and
the direct identities exactly when (X1, X2, XH) does. A compatibility
check of (X2, X1, XH, X3) is the original with the roles of X1 and X2
exchanged, so its spans in X1 and in X2 trade places; with X1 + X2 in
place of X1 the two tensors are the same, and so is the Schouten gate.
"""
from itertools import combinations

import pytest

import qbhkit as qk

PAIRS = [
    (name, a, b)
    for name in qk.fixture_names()
    for a, b in combinations(sorted(qk.load_fixture(name).fields), 2)
]


def _outcome(X, Y, cfg):
    """(verdict, (name, within tolerance, skipped) per condition) of one
    check, or the message of an AllPointsSkippedError."""
    try:
        report = qk.check_poisson_pair(X, Y, cfg)
    except qk.AllPointsSkippedError as exc:
        return str(exc)
    tol = cfg.tol.residual
    return report.passed, [(c.name, c.within(tol), c.skipped) for c in report.conditions]


def test_every_field_pair_of_the_fixtures_is_covered():
    assert len(PAIRS) == 16


@pytest.mark.parametrize("name, a, b", PAIRS, ids=[f"{n}-{a}-{b}" for n, a, b in PAIRS])
def test_swapped_and_sheared_pairs_keep_the_verdict(name, a, b):
    spec = qk.load_fixture(name)
    cfg = spec.config()
    X, Y = spec.fields[a], spec.fields[b]
    want = _outcome(X, Y, cfg)
    assert _outcome(Y, X, cfg) == want
    assert _outcome(X + Y, Y, cfg) == want


# the default config of each fixture and two other sample counts and seeds
SETTINGS = [{}, {"samples": 1000, "seed": 7}, {"samples": 50, "seed": 123}]
SETTING_IDS = ["default", "1000-7", "50-123"]


def _fields(name):
    """The fixture's fields with XH = dH | (X1 ^ X2) where it has an H,
    loaded afresh, so no bracket is cached from another check."""
    spec = qk.load_fixture(name)
    fields = dict(spec.fields)
    if "XH" not in fields:
        fields["XH"] = qk.contract_hamiltonian(
            spec.functions["H"], qk.wedge(fields["X1"], fields["X2"])
        )
    return fields, spec


def _report(check, *args):
    """(verdict, notes, conditions by name) of one check."""
    report = check(*args)
    return report.passed, report.notes, {c.name: c for c in report.conditions}


@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("name", ["so3-jacobi", "heisenberg-jacobi"])
def test_a_change_of_basis_keeps_the_jacobi_verdict(name, setting):
    f, spec = _fields(name)
    cfg = spec.config(**setting)
    X1, X2, XH = f["X1"], f["X2"], f["XH"]

    def outcome(*fields):
        passed, notes, conditions = _report(qk.check_jacobi, *fields, cfg)
        return passed, notes, [(n, c.skipped) for n, c in conditions.items()]

    want = outcome(X1, X2, XH)
    assert outcome(X2, X1, -XH) == want
    assert outcome(X1 + X2, X2, XH) == want


# the compatibility spans whose roles trade places when X1 and X2 do
EXCHANGED = {
    "span-xh-x1-bracket": "span-xh-x2-bracket",
    "span-xh-x2-bracket": "span-xh-x1-bracket",
    "span-x3-x1-bracket": "span-x3-x2-bracket",
    "span-x3-x2-bracket": "span-x3-x1-bracket",
}


@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("name", ["exp-realization", "rotation"])
def test_exchanging_x1_and_x2_exchanges_the_compatibility_spans(name, setting):
    f, spec = _fields(name)
    cfg = spec.config(**setting)
    tol = cfg.tol.residual
    passed, notes, conditions = _report(
        qk.check_compatibility, f["X1"], f["X2"], f["XH"], f["X3"], cfg
    )
    swapped = _report(qk.check_compatibility, f["X2"], f["X1"], f["XH"], f["X3"], cfg)
    assert swapped[:2] == (passed, notes)
    assert list(swapped[2]) == list(conditions)
    for cond_name, cond in swapped[2].items():
        original = conditions[EXCHANGED.get(cond_name, cond_name)]
        assert (cond.skipped, cond.within(tol)) == (
            original.skipped,
            original.within(tol),
        )


@pytest.mark.parametrize("setting", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("name", ["exp-realization", "rotation"])
def test_a_sheared_x1_keeps_the_compatibility_gate(name, setting):
    f, spec = _fields(name)
    cfg = spec.config(**setting)
    passed, notes, conditions = _report(
        qk.check_compatibility, f["X1"], f["X2"], f["XH"], f["X3"], cfg
    )
    sheared = _report(
        qk.check_compatibility, f["X1"] + f["X2"], f["X2"], f["XH"], f["X3"], cfg
    )
    assert sheared[:2] == (passed, notes)
    assert sheared[2]["schouten"].skipped == conditions["schouten"].skipped
