"""Seeded problem generator for the ``generated-poisson`` workload.

Problem ``index`` of seed ``seed`` is a 3-d problem file with

    X1 = a(x, y, z) d/dx        X2 = b(x, y, z) d/dy

where ``a`` and ``b`` are random products of factors that never vanish
on the box (``exp(E)``, ``c + sin(E)``, ``c + cos(E)`` and
``c + E^2`` with ``c`` large enough), ``E`` being a polynomial or a
sine/cosine of one. Then

    [X1, X2] = (a b_x / b) X2 - (b a_y / a) X1,

so the bracket lies in the span of X1 and X2, the fields are
independent everywhere, and ``check poisson`` must PASS with no
skipped point. A guard ``sqrt(x^2 + y^2 - r^2)`` with ``r`` in
[0.75, 0.85] rejects 44-57 % of the candidate points, which sends
sampling through the scalar per-point guard evaluator.

Every number is drawn from ``random.Random`` seeded with the text
``"generated-poisson:<seed>:<index>"``, whose stream is fixed across
Python versions, so the same (seed, index) always gives the same file.
"""
from __future__ import annotations

import os
import random

COORDS = ("x", "y", "z")
SAMPLES = 1000


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _monomial(rng: random.Random) -> str:
    degree = rng.randint(0, 2)
    return "*".join(rng.choice(COORDS) for _ in range(degree))


def _polynomial(rng: random.Random) -> str:
    terms = []
    for _ in range(rng.randint(2, 4)):
        coeff = _num(rng, 0.1, 0.9)
        mono = _monomial(rng)
        sign = rng.choice("+-")
        terms.append(f"{sign} {coeff}*{mono}" if mono else f"{sign} {coeff}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _inner(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return _polynomial(rng)
    if kind == 1:
        return f"sin({_polynomial(rng)})"
    if kind == 2:
        return f"cos({_polynomial(rng)})"
    return f"({_polynomial(rng)})*cos({_polynomial(rng)})"


def _nonvanishing_factor(rng: random.Random) -> str:
    kind = rng.randrange(4)
    inner = _inner(rng)
    if kind == 0:
        return f"exp({_num(rng, 0.2, 0.5)}*({inner}))"
    if kind == 1:
        return f"({_num(rng, 1.5, 2.5)} + sin({inner}))"
    if kind == 2:
        return f"({_num(rng, 1.5, 2.5)} + cos({inner}))"
    return f"({_num(rng, 0.5, 1.5)} + ({inner})^2)"


def _coefficient(rng: random.Random) -> str:
    scale = _num(rng, 0.5, 2.0)
    sign = rng.choice(("", "-"))
    factors = [_nonvanishing_factor(rng) for _ in range(rng.randint(1, 3))]
    return f"{sign}{scale}*" + "*".join(factors)


def problem_text(seed: int, index: int) -> str:
    """The problem file for (seed, index), as text."""
    rng = random.Random(f"generated-poisson:{seed}:{index}")
    a = _coefficient(rng)
    b = _coefficient(rng)
    radius = rng.uniform(0.75, 0.85)
    problem_seed = rng.randrange(2**31)
    return (
        f"# generated-poisson seed={seed} index={index}\n"
        "[space]\n"
        "coordinates = x y z\n\n"
        "[field X1]\n"
        f"x = {a}\n\n"
        "[field X2]\n"
        f"y = {b}\n\n"
        "[domain]\n"
        "box = x:-1:1 y:-1:1 z:-1:1\n"
        f"guard = sqrt(x^2 + y^2 - {radius * radius:.4f})\n"
        f"samples = {SAMPLES}\n"
        f"seed = {problem_seed}\n"
    )


def write_problem(directory: str, seed: int, index: int) -> str:
    """Write problem (seed, index) under ``directory``; returns its path."""
    path = os.path.join(directory, f"gp-{seed}-{index}.prob")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(problem_text(seed, index))
    return path

