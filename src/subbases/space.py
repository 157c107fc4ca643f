"""Computational stand-ins for separable metric spaces.

A space model is a dense finite sample with a metric and a countable
dense enumeration.  Built-in models cover the unit interval, the circle,
square and torus grids, finite metric spaces loaded from JSON, and the
one-point compactification counterexample.  No subbase is defined here:
the subbases of these models live in `subbase`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class MetricError(ValueError):
    """A loaded metric violates a metric space axiom."""


class InfinityPoint:
    """The added point of the one-point compactification model."""

    def __repr__(self):
        return "p"


POINT_AT_INFINITY = InfinityPoint()


class Lattice:
    """The index grid of a lattice model of step p/q and its one, exact
    geometry.  Sample i sits at grid position `np.unravel_index(i, shape)`,
    k p / q along each axis; axes flagged in `wrap` are periodic."""

    def __init__(self, shape: Tuple[int, ...], wrap: Tuple[bool, ...],
                 resolution: Fraction):
        self.shape, self.wrap = shape, wrap
        self.p, self.q = resolution.numerator, resolution.denominator

    def squares(self, i: int) -> np.ndarray:
        """s = q^2 d(i, j)^2 for every sample j, exact integers: float64
        values while dims q^2 < 2^53, Python ints (object) past it.  Per
        axis the gap is g = |k - k_i| p, or min(g, q - g) on a periodic
        axis, and s is the outer sum of the g^2."""
        dtype = float if len(self.shape) * self.q ** 2 < 2 ** 53 else object
        g = [np.abs(np.arange(size, dtype=dtype) - int(k)) * self.p
             for k, size in zip(np.unravel_index(i, self.shape), self.shape)]
        g = [np.minimum(v, self.q - v) if wrap else v
             for v, wrap in zip(g, self.wrap)]
        return functools.reduce(np.add.outer, [v * v for v in g]).ravel()

    def gaps(self, a, b) -> list:
        """The exact gap of two points (tuples of rationals, or a scalar on
        one axis) along each axis, the ring minimum on a periodic axis."""
        if len(self.shape) == 1:
            a, b = (_as_scalar(a),), (_as_scalar(b),)
        return [min(g, 1 - g) if wrap else g
                for g, wrap in zip((abs(s - t) for s, t in zip(a, b)), self.wrap)]

    def neighbor_lists(self, radius: Fraction, rows: np.ndarray) -> np.ndarray:
        """The slot array of `SpaceModel.neighbor_lists` for distance <=
        radius + 10^-9, from the offsets of at most radius q / p + 1 steps
        per axis: slot k holds, for each of `rows`, the sample at the k-th
        offset in reach if that pair is within the bound, else the pad.  A
        pair's distance depends only on its offset and on the periodic
        seams it crosses, so each offset is decided once per crossing
        pattern, in exact integers, and the rows are only indexed:
        temporaries are O(rows)."""
        p, q = self.p, self.q
        steps = math.floor(radius * q / p) + 1
        # an open axis needs no offset past its length; on a periodic axis
        # too short for the whole stencil every residue is taken once, so
        # no two offsets name the same sample and only (0, ..., 0) is itself
        spans = [range(-min(steps, size - 1), min(steps, size - 1) + 1)
                 if not wrap or 2 * steps + 1 < size else range(size)
                 for size, wrap in zip(self.shape, self.wrap)]
        # in units of 1/q for the step p/q, a pair d steps apart on an axis
        # is |d| p apart inside the grid and (size - |d|) p across a seam,
        # read round the ring on a periodic axis

        def squares(d, size, wrap):
            """The squared gap inside and across the seam (None where no
            pair crosses, or a crossing leaves the grid)."""
            if not wrap:
                return [(d * p) ** 2, None]
            inside, across = (min(g, q - g) ** 2
                              for g in (abs(d) * p, (size - abs(d)) * p))
            return [inside, across if d else None]

        axes = [{d: squares(d, size, wrap) for d in span}
                for span, size, wrap in zip(spans, self.shape, self.wrap)]
        # g <= bound is g^2 <= (bound q)^2 in these units; a bound below 0
        # has steps <= 0, so its only offset is (0, ..., 0), never kept
        reach = ((radius + Fraction(1, 10 ** 9)) * q) ** 2
        stencil = []
        for off in itertools.product(*spans):
            # each crossing pattern's verdict, index 1 on an axis crossed
            verdict = [
                None not in g and sum(g) <= reach
                for g in itertools.product(*(sq[d] for sq, d in zip(axes, off)))]
            if any(off) and any(verdict):
                stencil.append((off, np.reshape(verdict, (2,) * len(off))))
        pos = np.unravel_index(rows, self.shape)
        out = np.full((len(stencil), len(rows)), math.prod(self.shape),
                      dtype=np.int32)
        for slot, (off, verdict) in zip(out, stencil):
            at = [x + d for x, d in zip(pos, off)]
            keep = verdict[tuple(((t < 0) | (t >= size)).view(np.uint8)
                                 for t, size in zip(at, self.shape))]
            np.copyto(slot, np.ravel_multi_index(at, self.shape, mode="wrap"),
                      where=keep, casting="same_kind")
        return out


class SpaceModel:
    """Dense sample points + metric + dense enumeration at a stated resolution.

    Distance rows come from the `lattice` of a grid model, else from the
    read-only float64 `distances` matrix, else from the exact metric.
    Cuts compare the `exact` matrix: a loaded finite space's own entries,
    else the `distances` floats taken as exact.

    A lattice model is given no sample list: sample i is made from its
    grid position by `point(i)`, and `sample_points` lists them all only
    when it is first read.
    """

    def __init__(self, name: str, sample_points: Optional[Sequence],
                 metric: Optional[Callable], resolution: Fraction,
                 distances: np.ndarray = None, lattice: Lattice = None):
        self.name = name
        self._points = None if sample_points is None else list(sample_points)
        self.metric = metric
        self.resolution = Fraction(resolution)
        self.distances = self.exact = distances
        self.lattice = lattice
        self._dense_order: List[int] = []
        self._dense_mindist = None

    def __len__(self) -> int:
        if self.lattice is not None:
            return math.prod(self.lattice.shape)
        return len(self._points)

    def point(self, i: int):
        """Sample i; on a lattice the tuple of its rational coordinates,
        k p / q along each axis at grid position k for resolution p/q."""
        if self.lattice is None:
            return self._points[i]
        return tuple(int(k) * self.resolution
                     for k in np.unravel_index(i, self.lattice.shape))

    @property
    def sample_points(self) -> list:
        """Every sample, in index order."""
        if self._points is None:
            self._points = list(itertools.product(
                *(_grid(self.resolution, w) for w in self.lattice.wrap)))
        return self._points

    def distance_row(self, i: int) -> np.ndarray:
        """Distances from sample i to every sample, as floats: a read-only
        row of a finite space's matrix, else computed on each call, on a
        lattice as sqrt(s) / q from its exact squares s."""
        if self.lattice is not None:
            s = np.asarray(self.lattice.squares(i), dtype=float)
            return np.divide(np.sqrt(s, out=s), self.lattice.q, out=s)
        if self.distances is not None:
            return self.distances[i]
        x = self.sample_points[i]
        return np.array([float(self.metric(x, y)) for y in self.sample_points])

    def check_point(self, x):
        """Raise a ValueError naming x and the space unless x is a point of
        it: for a lattice model a tuple of one rational per axis in [0, 1],
        or in [0, 1) on a periodic axis; for any other model a sample."""
        text = ",".join(map(str, x)) if isinstance(x, tuple) else repr(x)
        if self.lattice is None:
            if x not in self.sample_points:
                raise ValueError("point %s is not one of the %d points of the "
                                 "%s space" % (text, len(self), self.name))
            return
        wrap = self.lattice.wrap
        if not (isinstance(x, tuple) and len(x) == len(wrap)
                and all(0 <= c < 1 if w else 0 <= c <= 1
                        for c, w in zip(x, wrap))):
            raise ValueError("point %s is not in the %s space %s" % (
                text, self.name,
                " x ".join("[0, 1)" if w else "[0, 1]" for w in wrap)))

    def neighbor_lists(self, radius, rows=None) -> np.ndarray:
        """Indices of the samples within radius of each sample in `rows`
        (default: all), excluding itself, as a (slots, len(rows)) int32
        array padded with len(self): each column lists one sample's
        neighbours, in no set order, and each slot row is contiguous.

        Within is distance <= radius + 1e-9.  A lattice model decides each
        stencil offset once, exactly (`Lattice.neighbor_lists`), one slot
        per offset in reach; other models scan one float distance row per
        sample of `rows`, and slot k holds each sample's k-th neighbour.
        Either way memory is linear in the number of rows."""
        n = len(self)
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        if self.lattice is not None:
            return self.lattice.neighbor_lists(Fraction(radius), rows)
        r = float(radius) + 1e-9
        nbs = [np.flatnonzero(self.distance_row(i) <= r) for i in rows]
        nbs = [nb[nb != i] for i, nb in zip(rows, nbs)]
        out = np.full((max(map(len, nbs), default=0), len(rows)), n, dtype=np.int32)
        for k, nb in enumerate(nbs):
            out[:len(nb), k] = nb
        return out

    # -- dense enumeration: greedy farthest-point order over the samples --

    def _extend_dense_order(self, upto: int):
        n = len(self)
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
        n = len(self)
        self._extend_dense_order(min(i, n - 1))
        return self._dense_order[i % n]


_TRIANGLE_BLOCK = 1 << 18  # float64 cells per block of the triangle screen


def validate_metric(d: Sequence[Sequence]) -> np.ndarray:
    """Check symmetry, identity of indiscernibles and triangle inequality
    of the n x n matrix d, and return it as a read-only float64 array.

    The triangle inequality d(i, k) <= d(i, j) + d(j, k) + 1e-9 is
    screened in float64, a block of i at a time.  Every triple the screen
    cannot clear is rechecked on the matrix's own values, in
    lexicographic order, so the error names the first failing (i, j, k)
    of a triple loop.
    """
    n = len(d)
    for i in range(n):
        if d[i][i] != 0:
            raise MetricError("d(x,x) != 0 at point %d" % i)
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise MetricError("asymmetric at (%d, %d)" % (i, j))
            if d[i][j] <= 0:
                raise MetricError("non-positive distance between distinct "
                                  "points %d, %d" % (i, j))
    try:
        f = np.array(d, dtype=float).reshape(n, n)
    except OverflowError:  # from 2^1024 - 2^970 on, an int or Fraction does
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if d[i][j] >= 2 ** 1024 - 2 ** 970)
        raise MetricError("metric entry (%d, %d) is too large for a float"
                          % (i, j)) from None
    slack = 1e-9
    # the screen's rounding error, and that of the exact test's float
    # right-hand side, stay below 16 ulps of the largest distance; an
    # infinite distance sends every triple to the recheck
    tol = 2.0 ** -48 * (f.max(initial=0.0) + slack)
    step = max(1, _TRIANGLE_BLOCK // max(n * n, 1))
    for lo in range(0, n, step):
        # excess[i, j, k] = d(i, k) - (d(i, j) + d(j, k)), i in the block
        excess = f[lo:lo + step, :, None] + f[None]
        np.subtract(f[lo:lo + step, None, :], excess, out=excess)
        for i, j, k in zip(*np.nonzero(~(excess < slack - tol))):
            i, j, k = int(i) + lo, int(j), int(k)
            if d[i][k] > d[i][j] + d[j][k] + slack:
                raise MetricError("triangle inequality fails at "
                                  "(%d, %d, %d)" % (i, j, k))
    f.setflags(write=False)
    return f


def _as_scalar(x) -> Fraction:
    """The coordinate of a one-axis point: a rational x, or (x,)."""
    if isinstance(x, tuple) and len(x) == 1:
        x = x[0]
    if isinstance(x, (tuple, InfinityPoint)):
        raise ValueError("expected a scalar point, got %r" % (x,))
    return x if type(x) is Fraction else Fraction(x)


# -- built-in space models ----------------------------------------------


def _grid_size(resolution: Fraction, half_open: bool = False) -> int:
    """The number of multiples k p / q of the resolution p/q in [0, 1],
    or in [0, 1) when half open."""
    res = Fraction(resolution)
    if res <= 0 or res > 1:
        raise ValueError("resolution must be in (0, 1]: %s" % res)
    p, q = res.numerator, res.denominator
    return -(-q // p) if half_open else q // p + 1


def _grid(resolution: Fraction, half_open: bool = False) -> List[Fraction]:
    res = Fraction(resolution)
    p, q = res.numerator, res.denominator
    return [Fraction(k * p, q) for k in range(_grid_size(res, half_open))]


# neighbour arrays are int32 and padded with the sample count
_MAX_SAMPLES = 2 ** 31 - 1


def _lattice_space(name: str, resolution: Fraction, dims: int,
                   wrap: bool) -> SpaceModel:
    """The grid of step `resolution` on [0, 1]^dims, or on [0, 1)^dims with
    every axis periodic.  In one dimension the metric is the exact
    |a - b| (with the ring minimum); in two there is none.  Distance rows
    and cuts read the lattice's exact squared distances."""
    res = Fraction(resolution)
    size = _grid_size(res, half_open=wrap)
    if size ** dims > _MAX_SAMPLES:
        raise ValueError("the %s grid at resolution %s has %d samples, more "
                         "than the %d an int32 neighbour array can index"
                         % (name, res, size ** dims, _MAX_SAMPLES))
    lattice = Lattice((size,) * dims, (wrap,) * dims, res)
    metric = (lambda a, b: lattice.gaps(a, b)[0]) if dims == 1 else None
    return SpaceModel(name, None, metric, res, lattice=lattice)


def load_finite_space(path: str, resolution: Fraction = Fraction(1)) -> SpaceModel:
    """Finite space from JSON {"points": [[...], ...], "metric": [[row-major]]}.

    Integer entries stay ints, the others become Fractions.  All metric
    axioms are validated eagerly; a bad matrix raises MetricError.  A
    resolution that is not positive is refused before the file is read.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive: %s" % resolution)
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data or "metric" not in data:
        raise ValueError("space file must contain 'points' and 'metric'")
    pts, mat = data["points"], data["metric"]
    if not (isinstance(pts, list) and pts and isinstance(mat, list)
            and all(isinstance(r, list) for r in pts + mat)):
        raise ValueError("space file 'points' must be a non-empty list of "
                         "coordinate lists, and 'metric' a list of rows")
    pts = [tuple(Fraction(str(c)) for c in p) for p in pts]
    n = len(pts)
    if len(mat) != n or any(len(r) != n for r in mat):
        raise ValueError("metric matrix must be %dx%d" % (n, n))
    # a bool is not an int here: Fraction("True") fails as it always did
    mat = [[v if type(v) is int else Fraction(str(v)) for v in r] for r in mat]
    index = {p: i for i, p in enumerate(pts)}
    if len(index) != n:
        raise ValueError("duplicate points in space file")
    M = SpaceModel("finite", pts, lambda a, b: mat[index[a]][index[b]],
                   resolution, distances=validate_metric(mat))
    M.exact = mat
    return M


# name -> (dimensions, periodic)
_LATTICES = {"interval": (1, False), "circle": (1, True),
             "square": (2, False), "torus": (2, True)}
BUILTIN_SPACES = (*_LATTICES, "finite")


def builtin_space(name: str, resolution: Fraction, file: str = None) -> SpaceModel:
    if name in _LATTICES:
        return _lattice_space(name, resolution, *_LATTICES[name])
    if name == "finite":
        if file is None:
            raise ValueError("finite space requires a JSON file")
        return load_finite_space(file, resolution)
    raise ValueError("unknown space %r (expected one of %s)"
                     % (name, ", ".join(BUILTIN_SPACES)))


# -- one-point compactification counterexample ---------------------------


def compactified_space(resolution: Fraction = Fraction(1, 256)) -> SpaceModel:
    """The one-point compactification of [0,1] minus the two quarter points.

    Points are the grid rationals excluding 1/4 and 3/4 plus the added
    point p.  The metric identifies p with the removed points:
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

    return SpaceModel("compactified", pts, metric, resolution)
