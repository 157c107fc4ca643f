"""Slow reference definitions that the tests compare the package against.

None of them is used by the package itself: the checker, the K slices and
the builder work on code classes and bitsets instead.
"""

import itertools
from fractions import Fraction
from typing import Iterator, List

import numpy as np

from subbases.seq import BD, BOT, DIGITS, ONE, ZERO, BottomedSeq
from subbases.space import _LATTICES, _grid
from subbases.subbase import code_classes, letter_masks


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
