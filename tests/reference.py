"""Slow reference definitions that the tests compare the package against.

None of them is used by the package itself: the checker, the K slices and
the builder work on code classes and bitsets instead.
"""

import itertools
from typing import Iterator, List

import numpy as np

from subbases.seq import BOT, DIGITS, BottomedSeq
from subbases.subbase import CODE_DIGIT, code_classes, letter_masks


def enumerate_sequences(depth: int, alphabet=DIGITS) -> Iterator[BottomedSeq]:
    """All sequences with dom within {0..depth-1} and entries from alphabet,
    in itertools.product order over the positions (position 0 slowest),
    each exactly once."""
    letters = tuple(alphabet) + (BOT,)
    for tup in itertools.product(letters, repeat=depth):
        yield BottomedSeq({i: ch for i, ch in enumerate(tup) if ch != BOT})


def table_codes(table: np.ndarray) -> List[BottomedSeq]:
    """The distinct codes among the table's columns, boundary read as bottom."""
    return [BottomedSeq({k: CODE_DIGIT[c] for k, c in enumerate(column.tolist())
                         if c != 2})
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
