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

# The largest samples x dimension a domain may ask for, so that a huge
# request fails as an input error rather than by running out of memory:
# the points take 8 bytes per coordinate value (8 MB at the cap), and
# every evaluated expression node holds another 8 bytes per sample.
MAX_SAMPLE_VALUES = 1_000_000

# A point cloud keeps what is computed on it for later checks while it
# holds fewer than this many values (1 MiB of floats): the values of the
# expression nodes evaluated on it, the component rows of the fields
# evaluated on it and the factored span bases built on it, all counted
# as they are held, an array as one value per entry, a constant as one
# value, a basis as the entries of all its arrays. Past the bound an
# evaluation still reads what is held, but keeps what it computes only
# for the call. A domain draws one cloud (see ``sampling.sample_points``),
# so every check of a run shares that cloud and this one bound. Counted
# after one ``example run`` of each shipped fixture, where a structure
# evaluated by several checks is one node and one entry, and a field or
# basis built alike by several checks one row array or one basis: at 200
# points no run reaches the bound, and rotation's cloud holds the most
# (77 node values, 10 row arrays and 4 bases, 33 814 values, of which a
# basis of two fields on three coordinates holds 19 per point); at 1 000
# points rotation's passes it (148 008) and exp-realization's holds the
# most of the others (100 020), and at 5 000 every fixture's but
# hojman-2d's and linear-abelian's passes it, where arithmetic rather
# than per-node dispatch is the cost.
MAX_CACHED_VALUES = 2**17


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
    column-major so that each coordinate's values are contiguous. Every
    value is finite, as in a Point.

    Indexing with an integer builds that one Point; a slice or a boolean
    mask gives another PointCloud. Evaluators read ``values`` directly,
    or ``columns``, which maps each coordinate name to its column of
    ``values``, so Point objects exist only where a report names one.

    ``cache`` maps expression nodes to their values over this cloud,
    and ``derived`` maps the fields and bases built from those values:
    a field's key (``fields.field_key``) to its component rows, a
    read-only C-ordered (n, m) array, and a basis's key to its
    ``criteria._FactoredBasis``. ``cached_values`` counts the values
    both hold, under the one bound ``MAX_CACHED_VALUES``, so that every
    evaluation on the cloud reuses the subexpressions, rows and bases
    already computed. Every array the cloud holds is read-only, so a
    consumer that writes to one raises instead of changing a later
    check; the public evaluators return writable copies. The cloud a
    domain samples is the one every check of a run evaluates on, so
    what it holds, and its one bound, serve them all. Both tables are
    keyed by node objects, not their ``id()``: the nodes stay alive as
    long as the cloud, so no key can be reused.
    """

    __slots__ = ("chart", "values", "columns", "cache", "derived", "cached_values")

    def __init__(self, chart: CoordinateChart, values):
        values = np.array(values, dtype=float, order="F").reshape(
            -1, chart.dimension
        )
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite][0])
            raise ValueError(f"non-finite coordinate value {bad!r}")
        values.flags.writeable = False
        self.chart = chart
        self.values = values
        self.columns = dict(zip(chart.names, values.T))
        self.cache = {}
        self.derived = {}
        self.cached_values = 0

    @classmethod
    def of(cls, chart: CoordinateChart, points) -> "PointCloud":
        """``points`` itself when it is a PointCloud, else a cloud of
        the given Point objects, in order. Raises ChartMismatchError
        for a cloud or a Point of another chart."""
        if isinstance(points, PointCloud):
            _require_chart(chart, points)
            return points
        points = list(points)
        for p in points:
            _require_chart(chart, p)
        return cls(chart, [p.values for p in points])

    def hold(self, key, value):
        """``value`` (an array or a factored basis, with its count of
        values in ``size``), kept in ``derived`` under ``key`` while the
        cloud holds fewer than ``MAX_CACHED_VALUES`` values."""
        if self.cached_values < MAX_CACHED_VALUES:
            self.derived[key] = value
            self.cached_values += value.size
        return value

    def __len__(self):
        return self.values.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Point(self.chart, tuple(self.values[key]))
        return PointCloud(self.chart, self.values[key])

    def __iter__(self):
        for row in self.values:
            yield Point(self.chart, tuple(row))


def _require_chart(chart: CoordinateChart, obj) -> None:
    """Raise unless ``obj`` is on ``chart``; the same chart object
    costs one identity test."""
    if obj.chart is not chart and obj.chart != chart:
        raise ChartMismatchError(f"chart mismatch: {chart} vs {obj.chart}")


def require_same_chart(*objs):
    """Raise unless every argument shares one chart; return it."""
    chart = objs[0].chart
    for other in objs[1:]:
        _require_chart(chart, other)
    return chart
