"""Dyadic subbases as indexed digit classifiers, the coding map, and K slices.

A subbase is a finite enumeration of disjoint open pairs (S_n^0, S_n^1).
The classifier returns '0' for points of S_n^0, '1' for S_n^1 and 'b' for
the leftover set S_n^bd = X \\ (S_n^0 u S_n^1).  The coding map reports
bottom at every 'b' classification.

The digit code of a sample (int8 0, 1, 2 = boundary) is decided here
alone: `digit_row` classifies every sample of a space model at once, and
`digit_table`, which stacks the rows, is read by the checker, the K slices
and the builder.  Distance cuts classify with `classify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .seq import BD, DIGITS, ONE, ZERO, BottomedSeq, render, sort_key

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

    @property
    def classifies_boundary(self) -> bool:
        """True when BD classifications are observable (exact or tolerance band)."""
        raise NotImplementedError

    def _check_index(self, n: int):
        if not 0 <= n < len(self):
            raise IndexError("cut index %d out of range [0, %d)" % (n, len(self)))


@dataclass(frozen=True)
class Cut:
    """One pair: the sublevel/superlevel sets of f at value c."""

    f: Callable
    c: object


class FunctionalSubbase(DyadicSubbase):
    """Subbase cut from functions: S_n^0 = {f_n < c_n}, S_n^1 = {f_n > c_n}.

    |f_n(x) - c_n| <= boundary_tol is classified as the boundary digit.
    """

    def __init__(self, cuts: Sequence[Cut], boundary_tol: float = BOUNDARY_TOL):
        self.cuts = list(cuts)
        self.boundary_tol = boundary_tol

    def __len__(self) -> int:
        return len(self.cuts)

    @property
    def classifies_boundary(self) -> bool:
        return self.boundary_tol > 0

    def digit(self, n: int, x) -> str:
        self._check_index(n)
        cut = self.cuts[n]
        v = cut.f(x) - cut.c
        if v < -self.boundary_tol:
            return ZERO
        if v > self.boundary_tol:
            return ONE
        return BD


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

    classifies_boundary = True

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


class OracleSubbase(DyadicSubbase):
    """Subbase given directly by a digit oracle, e.g. Gray or counterexample models."""

    classifies_boundary = True

    def __init__(self, length: int, digit_fn: Callable):
        self._length = length
        self._digit_fn = digit_fn

    def __len__(self) -> int:
        return self._length

    def digit(self, n: int, x) -> str:
        self._check_index(n)
        return self._digit_fn(n, x)


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

    @property
    def classifies_boundary(self) -> bool:
        return self.base.classifies_boundary

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


# -- coding map and membership ------------------------------------------


def digit(S: DyadicSubbase, n: int, x) -> str:
    return S.digit(n, x)


def phi(S: DyadicSubbase, x, depth: int) -> BottomedSeq:
    """Length-depth prefix of the code of x; boundary digits become bottom."""
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


def table_codes(table: np.ndarray) -> List[BottomedSeq]:
    """The distinct codes among the table's columns, boundary read as bottom."""
    return [BottomedSeq({k: CODE_DIGIT[c] for k, c in enumerate(column.tolist())
                         if c != 2})
            for column in np.unique(table, axis=1).T]


# -- K slices ------------------------------------------------------------


@dataclass(frozen=True)
class KSlice:
    """Finite depth slice of K_S sampled from a space model."""

    depth: int
    elements: frozenset
    resolution: Optional[Fraction] = None

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
    return table_kslice(digit_table(S, M, depth),
                        resolution=getattr(M, "resolution", None))


def table_kslice(table: np.ndarray, resolution: Optional[Fraction] = None) -> KSlice:
    """The K slice of a digit table: every prefix of its codes.  Row k of
    the table of a permuted subbase is row pi[k] of the original's, so
    one table serves every permutation."""
    depth = table.shape[0]
    elems = {code.restrict(m) for code in table_codes(table)
             for m in range(depth + 1)}
    return KSlice(depth=depth, elements=frozenset(elems), resolution=resolution)


@dataclass(frozen=True)
class CuslReport:
    """Verdict of the conditional-upper-semilattice check, with witness on failure."""

    ok: bool
    sigma: Optional[BottomedSeq] = None
    tau: Optional[BottomedSeq] = None
    minimal_upper_bounds: Tuple[BottomedSeq, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _kslice_bits(elems: Sequence[BottomedSeq]):
    """Per element, int bitsets over positions: defined, one and boundary
    digits, plus their concatenation as a key.  The join of a compatible
    pair has the OR of their keys as its key.  The arrays are uint64 while
    a key fits, and hold Python ints otherwise."""
    width = max((e.length for e in elems), default=0)
    dtype = np.uint64 if 3 * width <= 64 else object
    defined, one, bd = (
        np.array([sum(1 << k for k, a in e.items() if a in digits)
                  for e in elems], dtype=dtype)
        for digits in (DIGITS, (ONE,), (BD,)))
    return defined, one, bd, defined | (one << width) | (bd << (2 * width))


def is_cusl(K: KSlice) -> CuslReport:
    """Every bounded pair must have a least upper bound within the slice.

    On failure reports the first offending pair (in (length, rendering)
    order) together with its minimal upper bounds.  For each sigma one
    bitset row over the tau at or after it finds the compatible pairs
    whose pointwise join is not in the slice; only those are searched for
    upper bounds.
    """
    elems = K.sorted_elements()
    defined, one, bd, key = _kslice_bits(elems)
    keys = np.sort(key)
    for i, sigma in enumerate(elems):
        clash = (((one[i:] ^ one[i]) | (bd[i:] ^ bd[i]))
                 & defined[i:] & defined[i])
        join_key = key[i:] | key[i]
        # a sorted lookup: np.isin re-sorts the slice's keys on every row
        slot = np.minimum(np.searchsorted(keys, join_key), len(keys) - 1)
        outside = (clash == 0) & (keys[slot] != join_key)
        for h in np.flatnonzero(outside):
            tau = elems[i + h]
            j = sigma.join(tau)  # compatible, and not the least upper bound
            ubs = [u for u in elems if j.leq(u)]
            if not ubs:
                continue  # unbounded within the slice
            minimal = [u for u in ubs
                       if not any(v is not u and v.leq(u) for v in ubs)]
            if len(minimal) >= 2:
                return CuslReport(False, sigma, tau,
                                  tuple(sorted(minimal, key=sort_key)))
            # unique minimal element of a finite set of upper bounds is least
    return CuslReport(True)


# -- Hasse diagram export ------------------------------------------------


def kslice_to_dot(K: KSlice, name: str = "kslice") -> str:
    """DOT digraph of the covering relation, nodes sorted by (length, label)."""
    elems = K.sorted_elements()
    index = {e: i for i, e in enumerate(elems)}
    lines = ["digraph %s {" % name, '  rankdir="BT";']
    for e in elems:
        lines.append('  n%d [label="%s"];' % (index[e], render(e)))
    for u in elems:
        for v in elems:
            if u is v or not u.leq(v):
                continue
            covers = not any(w is not u and w is not v
                             and u.leq(w) and w.leq(v) for w in elems)
            if covers:
                lines.append("  n%d -> n%d;" % (index[u], index[v]))
    lines.append("}")
    return "\n".join(lines) + "\n"
