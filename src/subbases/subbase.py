"""Dyadic subbases as indexed digit classifiers, the coding map, and K slices.

A subbase is a finite enumeration of disjoint open pairs (S_n^0, S_n^1).
The classifier returns the digit code ZERO for points of S_n^0, ONE for
S_n^1 and BD for the leftover set S_n^bd = X \\ (S_n^0 u S_n^1).  The
coding map reports bottom at every BD classification.

The digit code of a sample (0, 1 or 2 = boundary; int8 in a row) is
decided here alone: `digit_row` classifies every sample of a space model
at once, and `digit_table`, which stacks the rows, is read by the
checker, the K slices and the builder.  Distance cuts compare exact
values, with no tolerance (`_sides`); the Gray subbase of [0, 1] and the
compactification's subbase read one integer Gray rule, `_gray_codes`.

A K slice is one sorted array of bitset keys, one per element, read
straight off the code classes: the order, the cusl check and the Hasse
diagram work on the keys, and codes (`seq`'s bytes) are made only for
output: a failing pair's report and the DOT labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .seq import BD, BOT, DIGITS, ONE, ZERO, as_code, render
from .space import POINT_AT_INFINITY, _as_scalar, compactified_space


def _sides(values, low, on):
    """Digit codes of exact values, an array or one: 0 below `low`, 2
    equal to `on`, 1 otherwise.  A cut at c is (low, on) = (c, c)."""
    return np.add(values >= low, values == on, dtype=np.int8)


class DyadicSubbase:
    """Interface: a finite enumeration of cuts with a digit classifier."""

    def __len__(self) -> int:
        raise NotImplementedError

    def digit(self, n: int, x) -> int:
        """Digit code of x under pair n: ZERO, ONE or BD."""
        raise NotImplementedError

    def digit_row(self, n: int, M) -> np.ndarray:
        """Digit codes of pair n at every sample of the space model M."""
        self._check_index(n)
        return np.array([self.digit(n, x) for x in M.sample_points],
                        dtype=np.int8)

    def _check_index(self, n: int):
        if not 0 <= n < len(self):
            raise IndexError("cut index %d out of range [0, %d)" % (n, len(self)))


@dataclass(frozen=True)
class DistanceCut:
    """One pair of a distance subbase: the open ball and the exterior of the
    closed ball of radius c around the sample with index center_index."""

    center_index: int
    c: Fraction


class DistanceSubbase(DyadicSubbase):
    """Subbase of distance cuts to samples of a space model:
    S_n^0 = {d(p_n, x) < c_n}, S_n^1 = {d(p_n, x) > c_n}.

    Classification is exact, with no tolerance: the boundary digit is the
    sphere d(p_n, x) = c_n itself.  A lattice compares squared distances
    with c_n |c_n|, any other model its exact distances with c_n.
    """

    def __init__(self, space, cuts: Sequence[DistanceCut]):
        for cut in cuts:
            if not 0 <= cut.center_index < len(space):
                raise ValueError("center_index %d out of range for the %s space "
                                 "of %d samples" % (cut.center_index, space.name,
                                                    len(space)))
        self.space = space
        self.cuts = list(cuts)

    def __len__(self) -> int:
        return len(self.cuts)

    def digit(self, n: int, x) -> int:
        self._check_index(n)
        cut, M = self.cuts[n], self.space
        center = M.point(cut.center_index)
        if M.lattice is None:
            return int(_sides(M.metric(center, x), cut.c, cut.c))
        c2 = cut.c * abs(cut.c)
        return int(_sides(sum(g * g for g in M.lattice.gaps(center, x)), c2, c2))

    def digit_row(self, n: int, M) -> np.ndarray:
        if M is not self.space or M.lattice is None and M.exact is None:
            return super().digit_row(n, M)
        self._check_index(n)
        cut = self.cuts[n]
        if M.lattice is None:
            return _sides(np.asarray(M.exact[cut.center_index]), cut.c, cut.c)
        s = M.lattice.squares(cut.center_index)
        # s = q^2 d^2 is an integer: d < c iff s < ceil(x) for x = q^2 c |c|,
        # and d = c iff s = x.  Clipped to -1, a negative x puts every sample
        # above; float64 values are exact below 2^53, so x is clipped there
        x = max(cut.c * abs(cut.c) * M.lattice.q ** 2, -1)
        x = x if s.dtype == object else min(x, 2 ** 53)
        return _sides(s, math.ceil(x), int(x) if x.denominator == 1 else -1)


class ReindexedSubbase(DyadicSubbase):
    """View of another subbase through an index map (permutation or duplication)."""

    def __init__(self, base: DyadicSubbase, index_map: Sequence[int]):
        for i in index_map:
            if not 0 <= i < len(base):
                raise IndexError("mapped index %d out of range" % i)
        self.base = base
        self.index_map = list(index_map)

    def __len__(self) -> int:
        return len(self.index_map)

    def digit(self, n: int, x) -> int:
        self._check_index(n)
        return self.base.digit(self.index_map[n], x)

    def digit_row(self, n: int, M) -> np.ndarray:
        self._check_index(n)
        return self.base.digit_row(self.index_map[n], M)


def duplicated_subbase(S: DyadicSubbase, n: int) -> DyadicSubbase:
    """Append a second copy of pair n at the end of the enumeration."""
    if not 0 <= n < len(S):
        raise IndexError("pair index %d out of range" % n)
    return ReindexedSubbase(S, list(range(len(S))) + [n])


# -- the Gray subbase of [0, 1] and the one-point compactification ------


def _gray_codes(k, Q: int, n: int):
    """Digit codes of the n-th Gray pair at x = k/Q, for an int k or an
    int array of them.

    With u = 2^n k mod 2Q, u/Q is t = 2^n x mod 2, which carries the sign
    of -cos(2^n pi x): the code is the boundary 2 at 2u in {Q, 3Q}, 1 for
    Q < 2u < 3Q and 0 otherwise.  Ints up to 2 Q max(k) occur.
    """
    twice_u = 2 * ((pow(2, n, 2 * Q) * k) % (2 * Q))
    one = (twice_u > Q) & (twice_u < 3 * Q)
    return one + 2 * ((twice_u == Q) | (twice_u == 3 * Q))


def gray_digit(x, n: int) -> int:
    """Exact digit code of the n-th Gray pair at a rational x in [0, 1] (or
    a point holding x alone)."""
    x = _as_scalar(x)
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError("x must lie in [0, 1]: %s" % x)
    return _gray_codes(x.numerator, x.denominator, n)


class GraySubbase(DyadicSubbase):
    """The Gray subbase of [0, 1]: `digit` is the exact `gray_digit`.

    `digit_row` on a one-axis lattice of resolution p/q reads the same
    rule on the whole row: sample i is x = i p / q.  Any other model is
    read point by point, but a lattice of more than one axis is refused
    before any sample is read.
    """

    def __init__(self, pairs: int):
        self.pairs = pairs

    def __len__(self) -> int:
        return self.pairs

    def digit(self, n: int, x) -> int:
        self._check_index(n)
        return gray_digit(x, n)

    def digit_row(self, n: int, M) -> np.ndarray:
        if M.lattice is None:
            return super().digit_row(n, M)
        if len(M.lattice.shape) != 1:
            raise ValueError("the Gray subbase reads scalar points, but the "
                             "%s's points have %d coordinates"
                             % (M.name, len(M.lattice.shape)))
        self._check_index(n)
        q = M.resolution.denominator
        # ints up to 2 q^2 occur in the rule; past int64 they are Python ints
        dtype = np.int64 if 2 * q * q <= np.iinfo(np.int64).max else object
        k = np.arange(len(M), dtype=dtype) * M.resolution.numerator
        return _gray_codes(k, q, n).astype(np.int8)


class CompactifiedSubbase(GraySubbase):
    """The Gray digits on the one-point compactification, where the added
    point p is coded bottom, bottom, 1, then all zeros: p lies in neither
    open set of the first two pairs."""

    def digit(self, n: int, x) -> int:
        if x is not POINT_AT_INFINITY:
            return super().digit(n, x)
        self._check_index(n)
        return BD if n < 2 else ONE if n == 2 else ZERO


def compactified_example(resolution: Fraction = Fraction(1, 256),
                         pairs: int = 8):
    """The model `space.compactified_space` and its subbase: proper, but
    not strongly proper."""
    return compactified_space(resolution), CompactifiedSubbase(pairs)


# -- coding map ----------------------------------------------------------


def check_depth(S: DyadicSubbase, depth: int):
    if depth < 0:
        raise ValueError("depth must be non-negative, got %d" % depth)
    if depth > len(S):
        raise IndexError("depth %d exceeds number of cuts %d" % (depth, len(S)))


def phi(S: DyadicSubbase, x, depth: int) -> bytes:
    """Length-depth prefix of the code of x; boundary digits become bottom."""
    check_depth(S, depth)
    digits = (S.digit(n, x) for n in range(depth))
    return as_code(BOT if d == BD else d for d in digits)


# -- the digit table -----------------------------------------------------


def digit_table(S: DyadicSubbase, M, depth: int) -> np.ndarray:
    """depth x n_samples int8 table of digit codes (0, 1, 2=boundary)."""
    check_depth(S, depth)
    table = np.empty((depth, len(M)), dtype=np.int8)
    for k in range(depth):
        table[k] = S.digit_row(k, M)
    return table


def code_classes(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct columns of a digit table (sorted) and, per sample, the
    index of its column among them: `np.unique(table, axis=1,
    return_inverse=True)` by one lexicographic sort of the columns and a
    comparison of neighbours in that order.  An all-zero key row makes
    the sort well defined for a table of no rows."""
    keys = np.concatenate([table[::-1], np.zeros((1, table.shape[1]), table.dtype)])
    order = np.lexsort(keys)
    ordered = table[:, order]
    new = np.ones(table.shape[1], dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    inverse = np.empty(table.shape[1], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[:, new], inverse


# -- K slices ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KSlice:
    """Finite depth slice of K_S sampled from a space model: one key per
    element, in (length, rendering) order.  Bit a*width + k of a key is
    set when the element has digit a at position k < width (the longest
    element's length): u <= v iff key(u) is a subset of key(v), and the
    OR of a pair with no two digits at one position is its join's key.
    Keys are uint64 while 3 * width <= 64, Python ints (object) past it."""

    depth: int
    width: int
    elements: np.ndarray


def enumerate_K(S: DyadicSubbase, M, depth: int) -> KSlice:
    """All restrictions of sampled codes: {phi(x)|_m : x in samples, m <= depth}."""
    return table_kslice(digit_table(S, M, depth))


def table_kslice(table: np.ndarray) -> KSlice:
    """The K slice of a digit table: every prefix of its codes, boundary
    digits read as bottom.  Row k of the table of a permuted subbase is
    row pi[k] of the original's, so one table serves every permutation.

    The elements are the empty prefix and every prefix that ends at a
    binary digit of a code class.  `code_classes` sorts the classes by
    column, 0 < 1 < 2 as the rendering's '0' < '1' < '_': the prefixes
    ending at row k come in rendering order, and the classes that share
    one are adjacent, so the first of them is kept.  No sort is needed."""
    classes = code_classes(table)[0]
    defined = np.flatnonzero((classes != BD).any(axis=1))
    width = int(defined[-1]) + 1 if len(defined) else 0
    dtype = np.uint64 if 3 * width <= 64 else object
    key = np.zeros(classes.shape[1], dtype=dtype)
    # changed[j]: class j differs from class j - 1 in the rows read so far
    changed = np.zeros(classes.shape[1], dtype=bool)
    changed[:1] = True
    out = [key[:1].copy()]  # the empty element, if there is a sample
    for k, row in enumerate(classes[:width]):
        key[row == ZERO] |= 1 << k
        key[row == ONE] |= 1 << (width + k)
        changed[1:] |= row[1:] != row[:-1]
        out.append(key[changed & (row != BD)])
    return KSlice(depth=table.shape[0], width=width,
                  elements=np.concatenate(out))


def _element(key, width: int) -> bytes:
    """The code of a K-slice key, for output."""
    key = int(key)
    return as_code(next((a for a in DIGITS if key >> (a * width + k) & 1), BOT)
                   for k in range(width))


def _counts(keys: np.ndarray) -> np.ndarray:
    """The number of defined entries of each K-slice key: its set bits."""
    return np.array([k.bit_count() for k in keys.tolist()], dtype=np.intp)


# a block of the cusl scan: about this many (sigma, tau) cells, and at
# least this many sigma rows however long the slice
_CUSL_CELLS = 1 << 12
_CUSL_MIN_ROWS = 8


@dataclass(frozen=True)
class CuslReport:
    """Verdict of the conditional-upper-semilattice check, with witness on failure."""

    ok: bool
    sigma: Optional[bytes] = None
    tau: Optional[bytes] = None
    minimal_upper_bounds: Tuple[bytes, ...] = ()


def _clash_bits(k, width: int):
    """The key bits that clash with key k: at each position k defines, the
    bits of the other two digits."""
    low = (1 << width) - 1
    defined = (k | k >> width | k >> (2 * width)) & low
    return (defined | defined << width | defined << (2 * width)) ^ k


def _minimal(key: np.ndarray, count: np.ndarray,
             members: np.ndarray) -> List[int]:
    """The minimal elements among the member indices, ascending.  Taken a
    defined-entry count at a time, from the fewest up: elements of one
    count are incomparable, and each taken one removes its up-set from
    the rest."""
    keys, counts = key[members], count[members]
    left = np.ones(len(members), dtype=bool)
    minimal = []
    while left.any():
        level = np.flatnonzero(left & (counts == counts[left].min()))
        for m in level:
            left &= (keys & keys[m]) != keys[m]
        minimal.extend(members[level].tolist())
    return sorted(minimal)


def is_cusl(K: KSlice) -> CuslReport:
    """Every bounded pair must have a least upper bound within the slice.

    On failure reports the first offending pair (in (length, rendering)
    order) together with its minimal upper bounds.  A block of sigma rows
    at a time is tested against every tau from the block's first row on.
    Of the compatible pairs only those whose join differs from both, the
    incomparable ones, can miss their join, so only their joins are
    looked up.  Pairs whose join is not in the slice are searched for
    upper bounds, all on the keys.
    """
    key, width = K.elements, K.width
    keys, count = np.sort(key), _counts(key)
    n = len(key)
    lo = 0
    while lo < n:
        hi = min(n, lo + max(_CUSL_MIN_ROWS, _CUSL_CELLS // (n - lo)))
        # a tau before its sigma repeats a pair of an earlier row with the
        # roles swapped; a failure is symmetric and was reported there, so
        # these pairs are not masked out
        pair = (key[lo:] & _clash_bits(key[lo:hi, None], width)) == 0
        # row-major, so (sigma, tau) pairs come in scan order
        sigma, tau = (lo + a for a in np.nonzero(pair))
        join = key[sigma] | key[tau]
        apart = (join != key[sigma]) & (join != key[tau])
        sigma, tau, join = sigma[apart], tau[apart], join[apart]
        # a sorted lookup: np.isin re-sorts the slice's keys on every call
        slot = np.minimum(np.searchsorted(keys, join), n - 1)
        missing = keys[slot] != join
        for i, t, j in zip(sigma[missing].tolist(), tau[missing].tolist(),
                           join[missing]):
            ubs = np.flatnonzero((key & j) == j)
            if not len(ubs):
                continue  # unbounded within the slice
            minimal = _minimal(key, count, ubs)
            if len(minimal) >= 2:
                return CuslReport(False, _element(key[i], width),
                                  _element(key[t], width),
                                  tuple(_element(key[m], width)
                                        for m in minimal))
            # unique minimal element of a finite set of upper bounds is least
        lo = hi
    return CuslReport(True)


# -- Hasse diagram export ------------------------------------------------


def kslice_to_dot(K: KSlice) -> str:
    """DOT digraph of the covering relation, nodes sorted by (length, label).
    The covers of u are the minimal elements of its strict up-set."""
    key, width = K.elements, K.width
    count = _counts(key)
    lines = ["digraph kslice {", '  rankdir="BT";']
    lines.extend('  n%d [label="%s"];' % (i, render(_element(k, width)))
                 for i, k in enumerate(key.tolist()))
    for u in range(len(key)):
        up = (key & key[u]) == key[u]
        up[u] = False
        lines.extend("  n%d -> n%d;" % (u, v)
                     for v in _minimal(key, count, np.flatnonzero(up)))
    lines.append("}")
    return "\n".join(lines) + "\n"
