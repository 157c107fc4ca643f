"""Slow reference definitions that the tests compare the package against.

None of them is used by the package itself: the checker, the K slices and
the builder work on code classes and bitsets instead.  The K-slice
oracle keeps the representation the keys replaced: a set of
`BottomedSeq`s, sorted by `sort_key`.
"""

import itertools
from fractions import Fraction
from typing import Iterator, List

import numpy as np

from subbases.seq import BD, BOT, DIGITS, ONE, ZERO, BottomedSeq, sort_key
from subbases.space import _LATTICES, _grid
from subbases.subbase import KSlice, code_classes, letter_masks


def gray_digit(x: Fraction, n: int) -> int:
    """The digit of the n-th Gray pair at a rational x in [0, 1], as the
    paper defines it: t = 2^n x mod 2 carries the sign of -cos(2^n pi x),
    so the digit is ZERO on [0, 1/2) u (3/2, 2), ONE on (1/2, 3/2) and the
    boundary digit at t in {1/2, 3/2}."""
    t = (Fraction(2) ** n * x) % 2
    if t == Fraction(1, 2) or t == Fraction(3, 2):
        return BD
    return ONE if Fraction(1, 2) < t < Fraction(3, 2) else ZERO


def lattice_points(name: str, resolution: Fraction) -> list:
    """The samples of a built-in lattice model as tuples of rationals, by
    the product of one grid per axis (the first axis slowest)."""
    dims, wrap = _LATTICES[name]
    return list(itertools.product(_grid(resolution, wrap), repeat=dims))


def unpruned_neighbor_lists(lattice, steps: int, r: float,
                            rows: np.ndarray) -> np.ndarray:
    """`Lattice.neighbor_lists` testing every offset of at most `steps`
    grid steps per axis, none skipped, one offset at a time."""
    n = len(lattice.coords)
    pos = np.unravel_index(rows, lattice.shape)
    # an open axis needs no offset past its length; on a periodic axis
    # too short for the whole stencil every residue is taken once, so
    # no two offsets name the same sample and only (0, ..., 0) is itself
    spans = [range(-min(steps, size - 1), min(steps, size - 1) + 1)
             if not wrap or 2 * steps + 1 < size else range(size)
             for size, wrap in zip(lattice.shape, lattice.wrap)]
    offsets = [o for o in itertools.product(*spans) if any(o)]
    out = np.full((len(rows), min(len(offsets), 16)), n, dtype=np.intp)
    count = np.zeros(len(rows), dtype=np.intp)
    for off in offsets:
        inside = np.ones(len(rows), dtype=bool)
        axes = []
        for p, d, size, wrap in zip(pos, off, lattice.shape, lattice.wrap):
            q = p + d
            if wrap:
                q %= size
            else:
                inside &= (q >= 0) & (q < size)
            axes.append(q)
        src = np.flatnonzero(inside)
        cand = np.ravel_multi_index([q[src] for q in axes], lattice.shape)
        keep = lattice.dist(lattice.coords[cand],
                            lattice.coords[rows[src]]) <= r
        src, cand = src[keep], cand[keep]
        if src.size and count[src].max() == out.shape[1]:
            out = np.concatenate([out, np.full_like(out, n)], axis=1)
        out[src, count[src]] = cand
        count[src] += 1
    return np.sort(out[:, :int(count.max(initial=0))], axis=1)


def enumerate_sequences(depth: int, alphabet=DIGITS) -> Iterator[BottomedSeq]:
    """All sequences with dom within {0..depth-1} and entries from alphabet,
    in itertools.product order over the positions (position 0 slowest),
    each exactly once."""
    letters = tuple(alphabet) + (BOT,)
    for tup in itertools.product(letters, repeat=depth):
        yield BottomedSeq({i: ch for i, ch in enumerate(tup) if ch != BOT})


def table_codes(table: np.ndarray) -> List[BottomedSeq]:
    """The distinct codes among the table's columns, boundary read as bottom."""
    return [BottomedSeq({k: c for k, c in enumerate(column.tolist())
                         if c != BD})
            for column in code_classes(table)[0].T]


def pattern_masks(table: np.ndarray, sigma: BottomedSeq):
    """Sampled membership of S(sigma) and S-bar(sigma) as boolean arrays."""
    open_mask = np.ones(table.shape[1], dtype=bool)
    closed_mask = np.ones(table.shape[1], dtype=bool)
    for k, a in sigma.items():
        hit, near = letter_masks(table[k], a)
        open_mask &= hit
        closed_mask &= near
    return open_mask, closed_mask


# -- K slices as sets of sequences ---------------------------------------


def table_kslice_sequences(table: np.ndarray) -> frozenset:
    """The elements of a digit table's K slice as `BottomedSeq`s: every
    prefix of every code class, boundary digits read as bottom, with one
    sequence built for each new prefix (bit 2k + d for digit d at k)."""
    elems = {0: BottomedSeq()} if table.shape[1] else {}
    for column in code_classes(table)[0].T.tolist():
        key, entries = 0, {}
        for k, code in enumerate(column):
            if code == BD:
                continue  # the same element as the prefix before it
            key |= 1 << (2 * k + code)
            entries[k] = code
            if key not in elems:
                elems[key] = BottomedSeq(entries)  # copies entries
    return frozenset(elems.values())


def sorted_elements(elements) -> List[BottomedSeq]:
    """Sequences in (length, rendering) order."""
    return sorted(elements, key=sort_key)


def kslice_keys(elems: List[BottomedSeq]):
    """One int key per sequence over the longest one's length w: bit
    a*w + k is set when it has digit a at position k.  Returns the keys
    (uint64 while 3w <= 64, Python ints otherwise) and w."""
    width = max((e.length for e in elems), default=0)
    dtype = np.uint64 if 3 * width <= 64 else object
    key = np.array([sum(1 << (a * width + k) for k, a in e.items())
                    for e in elems], dtype=dtype)
    return key, width


def kslice_of(elements, depth: int = None) -> KSlice:
    """The K slice of a set of sequences (by default as deep as the
    longest), keyed in (length, rendering) order."""
    key, width = kslice_keys(sorted_elements(elements))
    return KSlice(depth=width if depth is None else depth, width=width,
                  elements=key)


def kslice_sequences(K: KSlice) -> List[BottomedSeq]:
    """The elements of a K slice in its order, read bit by bit off the keys."""
    w = K.width
    return [BottomedSeq({k: a for a in DIGITS for k in range(w)
                         if key >> (a * w + k) & 1})
            for key in K.elements.tolist()]


def is_downward_closed(K: KSlice) -> bool:
    """Every restriction of every element is an element."""
    elems = set(kslice_sequences(K))
    return all(sigma.restrict(m) in elems
               for sigma in elems for m in range(K.depth + 1))
