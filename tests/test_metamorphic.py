"""Metamorphic relations of the Poisson-pair check on the shipped fixtures.

X ^ Y, Y ^ X and (X + Y) ^ Y are the same bivector up to sign, so
whether it is a Poisson tensor cannot depend on which of them is
checked. Each is expanded in another basis of the same span (swapped or
sheared), so the pointwise linear algebra differs while the verdict and
the points skipped must not. Only the bits of residuals may move.
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
