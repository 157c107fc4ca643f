"""Dyadic subbases as indexed digit classifiers, the coding map, and K slices.

A subbase is a finite enumeration of disjoint open pairs (S_n^0, S_n^1).
The classifier returns '0' for points of S_n^0, '1' for S_n^1 and 'b' for
the leftover set S_n^bd = X \\ (S_n^0 u S_n^1).  The coding map reports
bottom at every 'b' classification.

The digit code of a sample (int8 0, 1, 2 = boundary) is decided here
alone: `digit_row` classifies every sample of a space model at once, and
`digit_table`, which stacks the rows, is read by the checker, the K slices
and the builder.  Distance cuts classify with `classify`; the Gray subbase
of [0, 1] and the one-point compactification's subbase read one integer
Gray rule, `_gray_codes`.

A K slice is read through one bitset key per element (`_kslice_keys`):
the order, the cusl check and the Hasse diagram work on the keys, and
`BottomedSeq`s are only rendered for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .seq import BD, DIGITS, ONE, ZERO, BottomedSeq, render, sort_key
from .space import POINT_AT_INFINITY, _as_scalar, compactified_space

BOUNDARY_TOL = 1e-9
DIGIT_CODE = {ZERO: 0, ONE: 1, BD: 2}
CODE_DIGIT = (ZERO, ONE, BD)


def classify(values, c) -> np.ndarray:
    """Digit codes of function values against the cut value c: 0 below,
    1 above, 2 within BOUNDARY_TOL of c."""
    cf = float(c)
    values = np.asarray(values, dtype=float)
    return np.where(values < cf - BOUNDARY_TOL, 0,
                    np.where(values > cf + BOUNDARY_TOL, 1, 2)).astype(np.int8)


class DyadicSubbase:
    """Interface: a finite enumeration of cuts with a digit classifier."""

    def __len__(self) -> int:
        raise NotImplementedError

    def digit(self, n: int, x) -> str:
        """Classification of x by pair n: ZERO, ONE or BD."""
        raise NotImplementedError

    def digit_row(self, n: int, M) -> np.ndarray:
        """Digit codes of pair n at every sample of the space model M."""
        self._check_index(n)
        return np.array([DIGIT_CODE[self.digit(n, x)] for x in M.sample_points],
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

    Distances within BOUNDARY_TOL of c_n are classified as the boundary
    digit.  On its own space the rows come from the model's distance rows.
    """

    def __init__(self, space, cuts: Sequence[DistanceCut]):
        for cut in cuts:
            if not 0 <= cut.center_index < len(space.sample_points):
                raise ValueError("center_index %d out of range for the %s space "
                                 "of %d samples" % (cut.center_index, space.name,
                                                    len(space.sample_points)))
        self.space = space
        self.cuts = list(cuts)

    def __len__(self) -> int:
        return len(self.cuts)

    def digit(self, n: int, x) -> str:
        self._check_index(n)
        cut = self.cuts[n]
        center = self.space.sample_points[cut.center_index]
        return CODE_DIGIT[classify(float(self.space.metric(center, x)), cut.c)]

    def digit_row(self, n: int, M) -> np.ndarray:
        if M is not self.space:
            return super().digit_row(n, M)
        self._check_index(n)
        cut = self.cuts[n]
        return classify(M.distance_row(cut.center_index), cut.c)


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

    def digit(self, n: int, x) -> str:
        self._check_index(n)
        return self.base.digit(self.index_map[n], x)

    def digit_row(self, n: int, M) -> np.ndarray:
        self._check_index(n)
        return self.base.digit_row(self.index_map[n], M)


def permute(S: DyadicSubbase, pi: Sequence[int]) -> DyadicSubbase:
    """Reorder the enumeration: digit(permute(S, pi), n, x) = digit(S, pi[n], x)."""
    if sorted(pi) != list(range(len(S))):
        raise ValueError("pi must be a bijection on {0..%d}" % (len(S) - 1))
    return ReindexedSubbase(S, pi)


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


def gray_digit(x, n: int) -> str:
    """Exact digit of the n-th Gray pair at a rational x in [0, 1] (or a
    point holding x alone)."""
    x = _as_scalar(x)
    if not 0 <= x.numerator <= x.denominator:
        raise ValueError("x must lie in [0, 1]: %s" % x)
    return CODE_DIGIT[_gray_codes(x.numerator, x.denominator, n)]


class GraySubbase(DyadicSubbase):
    """The Gray subbase of [0, 1]: `digit` is the exact `gray_digit`.

    `digit_row` on a one-axis lattice of resolution p/q reads the same
    rule on the whole row: sample i is x = i p / q.  Any other model is
    read point by point.
    """

    def __init__(self, pairs: int):
        self.pairs = pairs

    def __len__(self) -> int:
        return self.pairs

    def digit(self, n: int, x) -> str:
        self._check_index(n)
        return gray_digit(x, n)

    def digit_row(self, n: int, M) -> np.ndarray:
        if M.lattice is None or len(M.lattice.shape) != 1:
            return super().digit_row(n, M)
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

    def digit(self, n: int, x) -> str:
        if x is not POINT_AT_INFINITY:
            return super().digit(n, x)
        self._check_index(n)
        return BD if n < 2 else ONE if n == 2 else ZERO


def compactified_example(resolution: Fraction = Fraction(1, 256),
                         pairs: int = 8):
    """The model `space.compactified_space` and its subbase: proper, but
    not strongly proper."""
    return compactified_space(resolution), CompactifiedSubbase(pairs)


# -- coding map and membership ------------------------------------------


def phi(S: DyadicSubbase, x, depth: int) -> BottomedSeq:
    """Length-depth prefix of the code of x; boundary digits become bottom."""
    if depth < 0:
        raise ValueError("depth must be non-negative, got %d" % depth)
    if depth > len(S):
        raise IndexError("depth %d exceeds number of cuts %d" % (depth, len(S)))
    entries = {}
    for n in range(depth):
        d = S.digit(n, x)
        if d in (ZERO, ONE):
            entries[n] = d
    return BottomedSeq(entries)


def member_open(S: DyadicSubbase, sigma: BottomedSeq, x) -> bool:
    """x in S(sigma): the digit equals sigma(k) at every defined index."""
    for k, a in sigma.items():
        if S.digit(k, x) != a:
            return False
    return True


def member_closed(S: DyadicSubbase, sigma: BottomedSeq, x) -> bool:
    """x in S-bar(sigma): the digit is sigma(k) or the boundary digit."""
    for k, a in sigma.items():
        if S.digit(k, x) not in (a, BD):
            return False
    return True


# -- the digit table -----------------------------------------------------


def digit_table(S: DyadicSubbase, M, depth: int) -> np.ndarray:
    """depth x n_samples int8 table of digit codes (0, 1, 2=boundary)."""
    if depth < 0:
        raise ValueError("depth must be non-negative, got %d" % depth)
    if depth > len(S):
        raise IndexError("depth %d exceeds number of cuts %d" % (depth, len(S)))
    table = np.empty((depth, len(M.sample_points)), dtype=np.int8)
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


def letter_masks(row: np.ndarray, a: str):
    """Where a row of digit codes puts the open set of digit a, and where
    its closed set (digit a or, for a binary digit, the boundary)."""
    hit = row == DIGIT_CODE[a]
    return hit, hit if a == BD else hit | (row == DIGIT_CODE[BD])


# -- K slices ------------------------------------------------------------


@dataclass(frozen=True)
class KSlice:
    """Finite depth slice of K_S sampled from a space model."""

    depth: int
    elements: frozenset

    def sorted_elements(self) -> List[BottomedSeq]:
        return sorted(self.elements, key=sort_key)

    def is_downward_closed(self) -> bool:
        for sigma in self.elements:
            for m in range(self.depth + 1):
                if sigma.restrict(m) not in self.elements:
                    return False
        return True


def enumerate_K(S: DyadicSubbase, M, depth: int) -> KSlice:
    """All restrictions of sampled codes: {phi(x)|_m : x in samples, m <= depth}."""
    return table_kslice(digit_table(S, M, depth))


def table_kslice(table: np.ndarray) -> KSlice:
    """The K slice of a digit table: every prefix of its codes, boundary
    digits read as bottom.  Row k of the table of a permuted subbase is
    row pi[k] of the original's, so one table serves every permutation.

    The prefix of length m of a code class is keyed by one int, with bit
    2k + d set for each binary digit d at a position k < m, and a
    `BottomedSeq` is built only for each new key."""
    elems = {0: BottomedSeq()} if table.shape[1] else {}
    for column in code_classes(table)[0].T.tolist():
        key, entries = 0, {}
        for k, code in enumerate(column):
            if code == DIGIT_CODE[BD]:
                continue  # the same element as the prefix before it
            key |= 1 << (2 * k + code)
            entries[k] = CODE_DIGIT[code]
            if key not in elems:
                elems[key] = BottomedSeq(entries)  # copies entries
    return KSlice(depth=table.shape[0], elements=frozenset(elems.values()))


@dataclass(frozen=True)
class CuslReport:
    """Verdict of the conditional-upper-semilattice check, with witness on failure."""

    ok: bool
    sigma: Optional[BottomedSeq] = None
    tau: Optional[BottomedSeq] = None
    minimal_upper_bounds: Tuple[BottomedSeq, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _kslice_keys(elems: Sequence[BottomedSeq]):
    """One int key per element over the slice's width w: bit k, w+k or
    2w+k is set when the element has digit 0, 1 or b at position k.
    u <= v iff key(u) is a subset of key(v), and a pair whose OR puts no
    two digits at one position is compatible, with the OR as the key of
    its join.  Returns the keys (uint64 while a key fits, Python ints
    otherwise), the defined-entry counts and w."""
    width = max((e.length for e in elems), default=0)
    dtype = np.uint64 if 3 * width <= 64 else object
    shift = {a: DIGIT_CODE[a] * width for a in DIGITS}
    key = np.array([sum(1 << (shift[a] + k) for k, a in e.items())
                    for e in elems], dtype=dtype)
    count = np.array([len(e.dom) for e in elems], dtype=np.intp)
    return key, count, width


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
    order) together with its minimal upper bounds.  For each sigma one
    row of joined keys over the tau at or after it finds the compatible
    pairs whose join is not in the slice; only those are searched for
    upper bounds, all on the keys.
    """
    elems = K.sorted_elements()
    key, count, width = _kslice_keys(elems)
    keys = np.sort(key)
    for i, sigma in enumerate(elems):
        join_key = key[i:] | key[i]
        # a sorted lookup: np.isin re-sorts the slice's keys on every row
        slot = np.minimum(np.searchsorted(keys, join_key), len(keys) - 1)
        compatible = (key[i:] & _clash_bits(key[i], width)) == 0
        outside = compatible & (keys[slot] != join_key)
        for h in np.flatnonzero(outside):
            j = join_key[h]  # a compatible pair's join, missing from the slice
            ubs = np.flatnonzero((key & j) == j)
            if not len(ubs):
                continue  # unbounded within the slice
            minimal = _minimal(key, count, ubs)
            if len(minimal) >= 2:
                return CuslReport(False, sigma, elems[i + h],
                                  tuple(elems[m] for m in minimal))
            # unique minimal element of a finite set of upper bounds is least
    return CuslReport(True)


# -- Hasse diagram export ------------------------------------------------


def kslice_to_dot(K: KSlice) -> str:
    """DOT digraph of the covering relation, nodes sorted by (length, label).
    The covers of u are the minimal elements of its strict up-set."""
    elems = K.sorted_elements()
    key, count, _width = _kslice_keys(elems)
    lines = ["digraph kslice {", '  rankdir="BT";']
    lines.extend('  n%d [label="%s"];' % (i, render(e))
                 for i, e in enumerate(elems))
    for u in range(len(elems)):
        up = (key & key[u]) == key[u]
        up[u] = False
        lines.extend("  n%d -> n%d;" % (u, v)
                     for v in _minimal(key, count, np.flatnonzero(up)))
    lines.append("}")
    return "\n".join(lines) + "\n"
