"""Per-point residual helpers shared by the criteria and the system
builder: collapsing component arrays to one value per point, turning
per-point residuals into a report condition, and requiring that a
factor does not vanish at the sampled points."""
from __future__ import annotations

import numpy as np

from .reports import ConditionResult


def condition(name, values, points, informative=False, extra_skipped=0, notes=()):
    """Build a ConditionResult from per-point |residual| values (NaN =
    skipped point)."""
    values = np.asarray(values, dtype=float)
    valid = np.isfinite(values)
    skipped = int((~valid).sum()) + extra_skipped
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


def require_nonvanishing(label, values, points, eps, error):
    """Raise ``error`` at the first sampled point where the factor named
    ``label`` is undefined (its value not finite) or |value| < ``eps``."""
    bad = ~np.isfinite(values) | (np.abs(values) < eps)
    if bad.any():
        point = points[int(np.argmax(bad))]
        raise error(f"|{label}| < {eps:g} (or undefined) at sampled point {point}")


def grid_values(arr: np.ndarray) -> np.ndarray:
    """Collapse (m, ...) component arrays to per-point max |entry|."""
    flat = arr.reshape(arr.shape[0], -1)
    bad = ~np.isfinite(flat).all(axis=1)
    values = np.max(np.abs(flat), axis=1)
    values[bad] = np.nan
    return values
