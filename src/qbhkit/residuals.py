"""Per-point residuals, shared by the criteria and the system builder.

A check names what must vanish and ``condition`` evaluates it over the
sampled points. A residual is one of

- a ``ScalarExpr``: its value at each point;
- a ``VectorField``, a ``DecomposableBivector`` or ``BivectorSum``, or a
  ``TrivectorSum``: the max |component| at each point, and NaN where any
  component is undefined. A multivector is reduced over its independent
  components only (i < j, or i < j < k: for n = 3, 3 of the 9 entries of
  a bivector and 1 of the 27 of a trivector); every other entry is an
  exact negation of one of them or 0, so the maximum has the bits of the
  one over the full array. A bivector's diagonal only marks where it is
  undefined (see ``fields.independent_components_at``), and a trivector
  on fewer than three coordinates is 0 at every point;
- a ready array of one value per point, as span expansions and other
  derived quantities give.

A NaN or infinite value marks a skipped point. The condition's value is
the max |residual| over the remaining points, with the point where it
is reached.

Layout. Per-point component arrays keep the public shape (m, ...), m
points first, but are stored component-major: each is the transposed
view of a C-ordered (..., m) array, so every component's values over
the points are one contiguous row. A field's rows are that C-ordered
(n, m) array itself (``fields.component_rows``), and a span basis's
stack the (m, n, k) view of its fields' rows stacked; the point cloud
holds each once, read-only, with its node values and under their one
bound (see ``chart.PointCloud``), and the checks read them in place. A reduction over components (max,
abs, isfinite, all) then runs elementwise across those rows instead of
over the short inner axis of an (m, ...) array, which costs numpy far
more per point; these reductions are exact, so their order does not
matter. A floating-point sum over components (a norm, an einsum) is
taken in an order fixed by the code, not by the layout numpy is handed,
because numpy may sum an array of another layout in another order and
so round differently. Every such sum runs on component rows, in
component order. The two-column span factors and solutions
(``criteria._two_column_factor``, ``_two_column_solve``) sum over the
rows of (n, m) arrays in an ``im,im->m`` einsum. A span expansion in any
number of fields on any number of coordinates forms its fit, its
difference and its sum of squares on component rows
(``criteria._residual_norms``). The Jacobi sweep
(``qbh.jacobi_identity_check``) adds the products of the independent
components T^{ijk} of a trivector with the 3x3 minors of the gradients
in ``combinations`` order, one component row at a time.
``criteria._least_squares`` sums over whole matrices only to test for
overflow, on a C-ordered copy of the rows it solves.
"""
from __future__ import annotations

import math

import numpy as np

from .chart import PointCloud
from .expr import ScalarExpr, _evaluate
from .fields import (
    BivectorSum,
    DecomposableBivector,
    TrivectorSum,
    VectorField,
    component_rows,
    independent_components_at,
)
from .reports import ConditionResult


def values_at(residual, points) -> np.ndarray:
    """One value per point of ``residual`` (see the module note). An
    expression's values are read where the cloud holds them, as a
    read-only array (a constant is spread over the points), and a
    field's from its component rows."""
    if isinstance(residual, ScalarExpr):
        points = PointCloud.of(residual.chart, points)
        value = _evaluate(residual.node, points)
        return value if value.ndim else np.full(len(points), value)
    if isinstance(residual, VectorField):
        points = PointCloud.of(residual.chart, points)
        return grid_values(component_rows(residual, points).T)
    if isinstance(residual, (DecomposableBivector, BivectorSum, TrivectorSum)):
        components, diagonal = independent_components_at(residual, points)
        values = grid_values(components)
        if diagonal is not None:
            values[~finite_points(diagonal)] = np.nan
        return values
    return np.asarray(residual, dtype=float)


def condition(name, residual, points, informative=False, usable=True, notes=()):
    """Build a ConditionResult from the max |residual| over the points the
    mask ``usable`` keeps (default all); a non-finite residual is skipped."""
    values = values_at(residual, points)
    valid = np.isfinite(values) & usable
    skipped = int((~valid).sum())
    notes = list(notes)
    if skipped and not notes:
        notes.append(f"{skipped} point(s) skipped")
    if not valid.any():
        return ConditionResult(
            name=name,
            max_residual=None,
            worst_point=None,
            skipped=skipped,
            informative=informative,
            notes=tuple(notes + ["no usable points"]),
        )
    masked = np.where(valid, np.abs(values), -np.inf)
    worst = int(np.argmax(masked))
    return ConditionResult(
        name=name,
        max_residual=float(masked[worst]),
        worst_point=points[worst],
        skipped=skipped,
        informative=informative,
        notes=tuple(notes),
    )


def require_nonvanishing(label, factor, points, eps, error):
    """The values of ``factor`` at ``points``; raises ``error`` at the
    first point where the factor named ``label`` is undefined (its value
    not finite) or |value| < ``eps``."""
    values = values_at(factor, points)
    bad = ~np.isfinite(values) | (np.abs(values) < eps)
    if bad.any():
        point = points[int(np.argmax(bad))]
        raise error(f"|{label}| < {eps:g} (or undefined) at sampled point {point}")
    return values


def _component_rows(arr: np.ndarray) -> np.ndarray:
    """The entries of an (m, ...) component array as rows (K, m), one
    per component, in some order: a view when ``arr`` is stored
    component-major (see the module note), else a copy."""
    return arr.T.reshape(math.prod(arr.shape[1:]), arr.shape[0])


def finite_points(arr: np.ndarray) -> np.ndarray:
    """The mask of the points at which every entry of the (m, ...)
    component array ``arr`` is finite."""
    return np.isfinite(_component_rows(arr)).all(axis=0)


def grid_values(arr: np.ndarray) -> np.ndarray:
    """Collapse (m, ...) component arrays to per-point max |entry|, 0
    where a point has no entry, NaN where an entry is not finite."""
    values = np.abs(_component_rows(arr)).max(axis=0, initial=0.0)
    values[~finite_points(arr)] = np.nan
    return values
