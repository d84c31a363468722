"""Coordinate charts and points.

A chart is an ordered tuple of coordinate names standing in for local
coordinates on an open box of real n-space; everything else in the
package is built over one.
"""
from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatchError, UnknownCoordinateError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class CoordinateChart:
    """Ordered list of distinct coordinate names."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 1:
            raise ValueError("a chart needs at least one coordinate")
        seen = set()
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid coordinate name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate coordinate name {name!r}")
            seen.add(name)

    @property
    def dimension(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownCoordinateError(
                f"coordinate {name!r} not on chart {self.names}"
            ) from None

    def point(self, *values: float) -> "Point":
        return Point(self, tuple(values))

    def coordinate(self, name: str):
        """The coordinate function ``name`` as a scalar expression."""
        from .expr import coordinate

        return coordinate(self, name)

    def constant(self, value: float):
        from .expr import constant

        return constant(self, value)

    def coordinates(self):
        return tuple(self.coordinate(n) for n in self.names)

    def __str__(self):
        return "(" + ", ".join(self.names) + ")"


@dataclass(frozen=True)
class Point:
    """A point of a chart: one finite real value per coordinate."""

    chart: CoordinateChart
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.chart.dimension:
            raise ValueError(
                f"expected {self.chart.dimension} values, got {len(values)}"
            )
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate value {v!r}")

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.values[self.chart.index(key)]
        return self.values[key]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.chart.names, self.values))

    def shifted(self, index: int, delta: float) -> "Point":
        values = list(self.values)
        values[index] += delta
        return Point(self.chart, tuple(values))

    def __str__(self):
        return "(" + ", ".join(f"{v:.6g}" for v in self.values) + ")"


class PointCloud(Sequence):
    """Points of one chart held as a read-only (m, n) float array, stored
    column-major so that each coordinate's values are contiguous.

    Indexing with an integer builds that one Point; a slice or a boolean
    mask gives another PointCloud. Evaluators read ``values`` directly,
    so Point objects exist only where a report names one.
    """

    __slots__ = ("chart", "values")

    def __init__(self, chart: CoordinateChart, values):
        values = np.array(values, dtype=float, order="F").reshape(
            -1, chart.dimension
        )
        values.flags.writeable = False
        self.chart = chart
        self.values = values

    @classmethod
    def of(cls, chart: CoordinateChart, points) -> "PointCloud":
        """``points`` itself when it is a PointCloud, else a cloud of
        the given Point objects, in order."""
        if isinstance(points, PointCloud):
            return points
        return cls(chart, [p.values for p in points])

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Point(self.chart, tuple(self.values[key]))
        return PointCloud(self.chart, self.values[key])

    def __iter__(self):
        for row in self.values:
            yield Point(self.chart, tuple(row))


def require_same_chart(*objs):
    """Raise unless every argument shares one chart; return it."""
    chart = objs[0].chart
    for other in objs[1:]:
        if other.chart != chart:
            raise ChartMismatchError(
                f"chart mismatch: {chart} vs {other.chart}"
            )
    return chart
