"""Computational stand-ins for separable metric spaces.

A space model is a dense finite sample with a metric and a countable
dense enumeration.  Built-in models cover the unit interval (with the
exact Gray classifier), the circle, square and torus grids, finite
metric spaces loaded from JSON, and the two counterexample models from
the boundary-duplication remark and the one-point compactification.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from .seq import BD, ONE, ZERO
from .subbase import OracleSubbase
from .subbase import duplicated_subbase  # noqa: F401  (re-export: counterexample helper)


class MetricError(ValueError):
    """A loaded metric violates a metric space axiom."""


class InfinityPoint:
    """The added point of the one-point compactification model."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "p"


POINT_AT_INFINITY = InfinityPoint()


class SpaceModel:
    """Dense sample points + metric + dense enumeration at a stated resolution."""

    def __init__(self, name: str, sample_points: Sequence, metric: Callable,
                 resolution: Fraction, row_fn: Callable = None):
        self.name = name
        self.sample_points = list(sample_points)
        self.metric = metric
        self.resolution = Fraction(resolution)
        self._row_fn = row_fn
        self._row_cache = {}
        self._dense_order: List[int] = []
        self._dense_mindist = None

    def __len__(self) -> int:
        return len(self.sample_points)

    def _row(self, i: int) -> np.ndarray:
        """Distances from sample i to every sample, as floats; uncached."""
        if self._row_fn is not None:
            return np.asarray(self._row_fn(i), dtype=float)
        x = self.sample_points[i]
        return np.array([float(self.metric(x, y)) for y in self.sample_points])

    def distance_row(self, i: int) -> np.ndarray:
        """Distances from sample i to every sample, as floats; cached."""
        row = self._row_cache.get(i)
        if row is None:
            row = self._row_cache[i] = self._row(i)
        return row

    def neighbor_lists(self, radius) -> np.ndarray:
        """Indices of the samples within radius of each sample (excluding
        itself) as a (samples, width) intp array: row i lists them ascending,
        padded on the right with len(self) up to the widest neighbourhood.
        Distance rows are computed uncached, so memory is linear in the
        sample count."""
        r = float(radius) + 1e-9
        n = len(self.sample_points)
        rows = [np.flatnonzero(self._row(i) <= r) for i in range(n)]
        rows = [nb[nb != i] for i, nb in enumerate(rows)]
        out = np.full((n, max(map(len, rows), default=0)), n, dtype=np.intp)
        for i, nb in enumerate(rows):
            out[i, :len(nb)] = nb
        return out

    # -- dense enumeration: greedy farthest-point order over the samples --

    def _extend_dense_order(self, upto: int):
        n = len(self.sample_points)
        if not self._dense_order:
            self._dense_order.append(0)
            self._dense_mindist = self.distance_row(0).copy()
        while len(self._dense_order) < min(upto + 1, n):
            nxt = int(np.argmax(self._dense_mindist))
            self._dense_order.append(nxt)
            np.minimum(self._dense_mindist, self.distance_row(nxt),
                       out=self._dense_mindist)

    def dense_index(self, i: int) -> int:
        """Sample index of the i-th point of the dense enumeration."""
        n = len(self.sample_points)
        self._extend_dense_order(min(i, n - 1))
        return self._dense_order[i % n]

    def dense_seq(self, i: int):
        return self.sample_points[self.dense_index(i)]


def validate_metric(points: Sequence, metric: Callable, limit: int = 200):
    """Check symmetry, identity of indiscernibles and triangle inequality."""
    pts = list(points)[:limit]
    n = len(pts)
    d = [[metric(a, b) for b in pts] for a in pts]
    for i in range(n):
        if d[i][i] != 0:
            raise MetricError("d(x,x) != 0 at point %d" % i)
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise MetricError("asymmetric at (%d, %d)" % (i, j))
            if d[i][j] <= 0:
                raise MetricError("non-positive distance between distinct "
                                  "points %d, %d" % (i, j))
    slack = 1e-9
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k] + slack:
                    raise MetricError("triangle inequality fails at "
                                      "(%d, %d, %d)" % (i, j, k))


# -- the Gray classifier of the unit interval ----------------------------


def gray_digit(x: Fraction, n: int) -> str:
    """Exact digit of the n-th Gray pair at a rational x in [0, 1].

    Computed arithmetically from t = (2^n x) mod 2, which carries the
    sign of -cos(2^n pi x): the digit is '0' on [0,1/2) u (3/2,2),
    '1' on (1/2,3/2) and the boundary digit at t in {1/2, 3/2}.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]: %s" % x)
    t = (Fraction(2) ** n * x) % 2
    if t == Fraction(1, 2) or t == Fraction(3, 2):
        return BD
    return ONE if Fraction(1, 2) < t < Fraction(3, 2) else ZERO


def gray_boundary_points(n: int) -> List[Fraction]:
    """The boundary set of pair n: odd multiples of 1/2^(n+1) in [0, 1]."""
    return [Fraction(2 * k + 1, 2 ** (n + 1)) for k in range(2 ** n)]


def _as_scalar(x) -> Fraction:
    if isinstance(x, tuple):
        if len(x) != 1:
            raise ValueError("expected a scalar point, got %r" % (x,))
        x = x[0]
    return Fraction(x)


def gray_subbase(pairs: int = 8) -> OracleSubbase:
    """The Gray subbase of [0, 1] with the exact digit oracle."""
    return OracleSubbase(pairs, lambda n, x: gray_digit(_as_scalar(x), n))


# -- built-in space models ----------------------------------------------


def _grid(resolution: Fraction, half_open: bool = False) -> List[Fraction]:
    res = Fraction(resolution)
    if res <= 0 or res > 1:
        raise ValueError("resolution must be in (0, 1]: %s" % res)
    pts = []
    x = Fraction(0)
    while x < 1 or (not half_open and x == 1):
        pts.append(x)
        x += res
    return pts


def interval_space(resolution: Fraction) -> SpaceModel:
    pts = [(x,) for x in _grid(resolution)]
    xs = np.array([float(p[0]) for p in pts])

    def metric(a, b):
        return abs(_as_scalar(a) - _as_scalar(b))

    return SpaceModel("interval", pts, metric, resolution,
                      row_fn=lambda i: np.abs(xs - xs[i]))


def circle_space(resolution: Fraction) -> SpaceModel:
    pts = [(x,) for x in _grid(resolution, half_open=True)]
    xs = np.array([float(p[0]) for p in pts])

    def metric(a, b):
        d = abs(_as_scalar(a) - _as_scalar(b))
        return min(d, 1 - d)

    def row(i):
        d = np.abs(xs - xs[i])
        return np.minimum(d, 1 - d)

    return SpaceModel("circle", pts, metric, resolution, row_fn=row)


def square_space(resolution: Fraction) -> SpaceModel:
    g = _grid(resolution)
    pts = [(x, y) for x in g for y in g]
    coords = np.array([[float(a), float(b)] for a, b in pts])

    def metric(a, b):
        return math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))

    def row(i):
        return np.sqrt(((coords - coords[i]) ** 2).sum(axis=1))

    return SpaceModel("square", pts, metric, resolution, row_fn=row)


def torus_space(resolution: Fraction) -> SpaceModel:
    g = _grid(resolution, half_open=True)
    pts = [(x, y) for x in g for y in g]
    coords = np.array([[float(a), float(b)] for a, b in pts])

    def wrap(d):
        return np.minimum(d, 1 - d)

    def metric(a, b):
        dx = abs(float(a[0]) - float(b[0]))
        dy = abs(float(a[1]) - float(b[1]))
        return math.hypot(min(dx, 1 - dx), min(dy, 1 - dy))

    def row(i):
        d = np.abs(coords - coords[i])
        return np.sqrt((wrap(d) ** 2).sum(axis=1))

    return SpaceModel("torus", pts, metric, resolution, row_fn=row)


def load_finite_space(path: str, resolution: Fraction = Fraction(1)) -> SpaceModel:
    """Finite space from JSON {"points": [[...], ...], "metric": [[row-major]]}.

    All metric axioms are validated eagerly; a bad matrix raises MetricError.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data or "metric" not in data:
        raise ValueError("space file must contain 'points' and 'metric'")
    pts = [tuple(Fraction(str(c)) for c in p) for p in data["points"]]
    mat = data["metric"]
    n = len(pts)
    if len(mat) != n or any(len(r) != n for r in mat):
        raise ValueError("metric matrix must be %dx%d" % (n, n))
    mat = [[Fraction(str(v)) for v in r] for r in mat]
    index = {p: i for i, p in enumerate(pts)}
    if len(index) != n:
        raise ValueError("duplicate points in space file")

    def metric(a, b):
        return mat[index[a]][index[b]]

    validate_metric(pts, metric, limit=max(n, 1))
    return SpaceModel("finite", pts, metric, resolution,
                      row_fn=lambda i: np.array([float(v) for v in mat[i]]))


BUILTIN_SPACES = ("interval", "circle", "square", "torus", "finite")


def builtin_space(name: str, resolution: Fraction, file: str = None) -> SpaceModel:
    if name == "interval":
        return interval_space(resolution)
    if name == "circle":
        return circle_space(resolution)
    if name == "square":
        return square_space(resolution)
    if name == "torus":
        return torus_space(resolution)
    if name == "finite":
        if file is None:
            raise ValueError("finite space requires a JSON file")
        return load_finite_space(file, resolution)
    raise ValueError("unknown space %r (expected one of %s)"
                     % (name, ", ".join(BUILTIN_SPACES)))


# -- one-point compactification counterexample ---------------------------


def compactified_example(resolution: Fraction = Fraction(1, 256),
                         pairs: int = 8):
    """The one-point compactification of [0,1] minus the two quarter points.

    Points are the grid rationals excluding 1/4 and 3/4 plus the added
    point p.  Digits follow the Gray classifier except that p's code is
    bottom, bottom, 1, then all zeros; the first two classifications of
    p report the boundary digit since p lies in neither open set of
    those pairs.  The metric identifies p with the removed points:
    d(x, p) = min(|x - 1/4|, |x - 3/4|), and two ordinary points may be
    connected through p.
    """
    quarter, three_quarter = Fraction(1, 4), Fraction(3, 4)
    pts = [(x,) for x in _grid(resolution) if x not in (quarter, three_quarter)]
    pts.append(POINT_AT_INFINITY)

    def dist_to_p(x):
        return min(abs(x - quarter), abs(x - three_quarter))

    def metric(a, b):
        if a is POINT_AT_INFINITY and b is POINT_AT_INFINITY:
            return Fraction(0)
        if a is POINT_AT_INFINITY:
            return dist_to_p(_as_scalar(b))
        if b is POINT_AT_INFINITY:
            return dist_to_p(_as_scalar(a))
        xa, xb = _as_scalar(a), _as_scalar(b)
        return min(abs(xa - xb), dist_to_p(xa) + dist_to_p(xb))

    def digit_fn(n, x):
        if x is POINT_AT_INFINITY:
            if n < 2:
                return BD
            return ONE if n == 2 else ZERO
        return gray_digit(_as_scalar(x), n)

    model = SpaceModel("compactified", pts, metric, resolution)
    return model, OracleSubbase(pairs, digit_fn)
