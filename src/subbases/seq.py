"""Bottomed sequences over {0, 1, b, _} with the product order.

A bottomed sequence is a finite-support map from indices to non-bottom
digits; every index outside the support is implicitly bottom.  The digit
'b' marks a boundary classification and '_' the bottom (undecided) digit
in the ASCII codec.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Tuple, Union

ZERO = "0"
ONE = "1"
BD = "b"
BOT = "_"

BINARY_DIGITS = (ZERO, ONE)
DIGITS = (ZERO, ONE, BD)
ALPHABET = (ZERO, ONE, BD, BOT)


class Incompatible(Exception):
    """Two sequences clash at an index, so they have no upper bound."""

    def __init__(self, index: int):
        super().__init__("sequences disagree at index %d" % index)
        self.index = index


class BottomedSeq:
    """Immutable finite-support sequence over {0, 1, b} plus implicit bottoms."""

    __slots__ = ("_entries", "_items", "_length", "_hash")

    def __init__(self, entries: Union[Mapping[int, str], Iterable[Tuple[int, str]]] = ()):
        d = dict(entries)
        for k, v in d.items():
            if not isinstance(k, int) or k < 0:
                raise ValueError("index must be a non-negative integer: %r" % (k,))
            if v not in DIGITS:
                raise ValueError("digit must be one of %r: %r" % (DIGITS, v))
        self._entries = d
        self._items = frozenset(d.items())
        self._length = max(d) + 1 if d else 0
        self._hash = hash(self._items)

    @property
    def length(self) -> int:
        return self._length

    @property
    def dom(self) -> Tuple[int, ...]:
        return tuple(sorted(self._entries))

    def __getitem__(self, k: int) -> str:
        return self._entries.get(k, BOT)

    def items(self) -> Iterator[Tuple[int, str]]:
        return iter(sorted(self._entries.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BottomedSeq):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "BottomedSeq(%r)" % render(self)

    def is_empty(self) -> bool:
        return not self._entries

    def is_binary(self) -> bool:
        """True iff no entry is the boundary digit."""
        return all(v != BD for v in self._entries.values())

    # -- operations ------------------------------------------------------

    def update(self, n: int, a: str) -> "BottomedSeq":
        """sigma[n -> a]; a == BOT erases index n."""
        d = dict(self._entries)
        if a == BOT:
            d.pop(n, None)
        else:
            d[n] = a
        return BottomedSeq(d)

    def concat(self, other: "BottomedSeq") -> "BottomedSeq":
        """Append other after this sequence's length."""
        d = dict(self._entries)
        off = self._length
        for k, v in other._entries.items():
            d[k + off] = v
        return BottomedSeq(d)

    def repeat(self, n: int) -> "BottomedSeq":
        """n-fold self concatenation."""
        out = EMPTY
        for _ in range(n):
            out = out.concat(self)
        return out

    def leq(self, other: "BottomedSeq") -> bool:
        """Product order: every defined entry agrees with other."""
        return self._items <= other._items

    def join(self, other: "BottomedSeq") -> "BottomedSeq":
        """Least upper bound; raises Incompatible on a digit clash."""
        d = dict(self._entries)
        for k, v in other._entries.items():
            w = d.get(k)
            if w is not None and w != v:
                raise Incompatible(k)
            d[k] = v
        return BottomedSeq(d)

    def try_join(self, other: "BottomedSeq"):
        """join, or None when the pair is incompatible."""
        try:
            return self.join(other)
        except Incompatible:
            return None

    def restrict(self, n: int) -> "BottomedSeq":
        """Keep entries with index < n."""
        return BottomedSeq({k: v for k, v in self._entries.items() if k < n})

    def decompose(self) -> Tuple["BottomedSeq", "BottomedSeq"]:
        """Split into the {0,1} part and the boundary part; their join is self."""
        binary = BottomedSeq({k: v for k, v in self._entries.items() if v != BD})
        bd = BottomedSeq({k: v for k, v in self._entries.items() if v == BD})
        return binary, bd


EMPTY = BottomedSeq()


def parse(text: str) -> BottomedSeq:
    """Parse the ASCII codec '0', '1', 'b', '_'; error on any other character."""
    d = {}
    for i, ch in enumerate(text):
        if ch == BOT:
            continue
        if ch not in DIGITS:
            raise ValueError("invalid character %r at position %d" % (ch, i))
        d[i] = ch
    return BottomedSeq(d)


def render(sigma: BottomedSeq, width: int = None) -> str:
    """Print in the ASCII codec, padded with '_' up to width if given."""
    n = sigma.length if width is None else max(width, sigma.length)
    return "".join(sigma[k] for k in range(n))


def sort_key(sigma: BottomedSeq) -> Tuple[int, str]:
    """Deterministic ordering: by length, then ASCII rendering."""
    return (sigma.length, render(sigma))
