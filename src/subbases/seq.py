"""Bottomed sequences over {0, 1, b, _}: the output form of codes.

A bottomed sequence is a finite-support map from indices to non-bottom
digits; every index outside the support is implicitly bottom.  A digit is
its int code: ZERO, ONE, the boundary digit BD and the bottom BOT.  Only
`render` reads letters: `CODEC[code]`, so 'b' marks a boundary
classification and '_' the bottom (undecided) digit.

The order on codes is computed on K-slice keys (`subbase.KSlice`); a
`BottomedSeq` is a value for reports, labels and `phi`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Tuple, Union

ZERO, ONE, BD, BOT = 0, 1, 2, 3
CODEC = "01b_"  # the ASCII letter of each code

BINARY_DIGITS = (ZERO, ONE)
DIGITS = (ZERO, ONE, BD)


class BottomedSeq:
    """Immutable finite-support sequence over {0, 1, b} plus implicit bottoms."""

    __slots__ = ("_entries", "_length", "_hash")

    def __init__(self, entries: Union[Mapping[int, int], Iterable[Tuple[int, int]]] = ()):
        d = dict(entries)
        for k, v in d.items():
            if not isinstance(k, int) or k < 0:
                raise ValueError("index must be a non-negative integer: %r" % (k,))
            if type(v) is not int or v not in DIGITS:
                raise ValueError("digit must be one of %r: %r" % (DIGITS, v))
        self._entries = d
        self._length = max(d) + 1 if d else 0
        self._hash = hash(frozenset(d.items()))

    @property
    def length(self) -> int:
        return self._length

    def __getitem__(self, k: int) -> int:
        return self._entries.get(k, BOT)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._entries.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BottomedSeq):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "BottomedSeq(%r)" % render(self)


def render(sigma: BottomedSeq, width: int = None) -> str:
    """Print in the ASCII codec, padded with '_' up to width if given."""
    n = sigma.length if width is None else max(width, sigma.length)
    return "".join(CODEC[sigma[k]] for k in range(n))
