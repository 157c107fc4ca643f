"""Slow reference definitions that the tests compare the package against.

None of them is used by the package itself: the checker, the K slices and
the builder work on code classes and bitsets instead.  Here live
`BottomedSeq`, the finite-support map that the package's codes replaced,
with `seq_code` to read one as a code, the order on bottomed sequences
as plain functions of `BottomedSeq` values (`leq`, `join`, `restrict`
and the rest), the membership of a point in S(sigma) and S-bar(sigma),
the ASCII parser, and permuted views.  The
package computes that order only on K-slice keys, and the tests check
the keys against these functions.  The K-slice oracle keeps the
representation the keys replaced: a set of `BottomedSeq`s, sorted by
`sort_key`.  The lattice neighbour oracles keep the samples x width
layout that the slot rows replaced, and `per_sample` reads slot rows in
that layout: one tests every offset by a float distance per pair, from
float coordinates of its own, the other every pair by exact rational
gaps.
"""

import functools
import itertools
from fractions import Fraction
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from subbases.seq import BD, BOT, CODEC, DIGITS, ONE, ZERO, as_code, render
from subbases.space import _LATTICES, _grid
from subbases.subbase import (DyadicSubbase, KSlice, ReindexedSubbase,
                              _clash_bits, code_classes)


# -- bottomed sequences and the order on them ----------------------------


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
        return "BottomedSeq(%r)" % render(seq_code(self))


EMPTY = BottomedSeq()


def seq_code(sigma: BottomedSeq) -> bytes:
    """The package's code of sigma: its digit codes up to its length."""
    return as_code(sigma[k] for k in range(sigma.length))


def parse(text: str) -> BottomedSeq:
    """Parse the ASCII codec '0', '1', 'b', '_'; error on any other character."""
    d = {}
    for i, ch in enumerate(text):
        code = CODEC.find(ch)
        if code < 0:
            raise ValueError("invalid character %r at position %d" % (ch, i))
        if code != BOT:
            d[i] = code
    return BottomedSeq(d)


def sort_key(sigma: BottomedSeq) -> Tuple[int, str]:
    """The K-slice order: by length, then ASCII rendering."""
    return (sigma.length, render(seq_code(sigma)))


def dom(sigma: BottomedSeq) -> Tuple[int, ...]:
    """The defined indices, ascending."""
    return tuple(k for k, _ in sigma.items())


def is_binary(sigma: BottomedSeq) -> bool:
    """True iff no entry is the boundary digit."""
    return all(a != BD for _, a in sigma.items())


@functools.lru_cache(maxsize=1 << 16)
def graph(sigma: BottomedSeq) -> frozenset:
    """The set of (index, digit) entries of sigma."""
    return frozenset(sigma.items())


def leq(u: BottomedSeq, v: BottomedSeq) -> bool:
    """Product order: every defined entry of u is an entry of v."""
    return graph(u) <= graph(v)


def join(u: BottomedSeq, v: BottomedSeq) -> Optional[BottomedSeq]:
    """Least upper bound, or None when the two clash at an index."""
    d = dict(graph(u))
    for k, a in graph(v):
        if d.setdefault(k, a) != a:
            return None
    return BottomedSeq(d)


def restrict(sigma: BottomedSeq, n: int) -> BottomedSeq:
    """Keep the entries with index < n."""
    return BottomedSeq((k, a) for k, a in sigma.items() if k < n)


def update(sigma: BottomedSeq, n: int, a: int) -> BottomedSeq:
    """sigma[n -> a]; a == BOT erases index n."""
    d = dict(sigma.items())
    d.pop(n, None)
    if a != BOT:
        d[n] = a
    return BottomedSeq(d)


def decompose(sigma: BottomedSeq) -> Tuple[BottomedSeq, BottomedSeq]:
    """Split into the {0,1} part and the boundary part; their join is sigma."""
    return (BottomedSeq((k, a) for k, a in sigma.items() if a != BD),
            BottomedSeq((k, a) for k, a in sigma.items() if a == BD))


def seq_key(sigma: BottomedSeq, width: int) -> int:
    """The K-slice key of sigma over width w: bit a*w + k for digit a at k."""
    return sum(1 << (a * width + k) for k, a in sigma.items())


def assert_keys_follow_the_order(elems: List[BottomedSeq]):
    """The package's order on the K-slice keys of the elements, checked
    pair by pair against `leq` and `join`: key(u) is a subset of key(v)
    iff u <= v, u and v have no `_clash_bits` in common iff they join,
    and then the OR of their keys is the key of the join.  A pair with
    no join has no common upper bound among the elements, by `leq`.
    Then, on the keys alone: the pair relations are symmetric, a join's
    key is an element's whose up-set is the pair's common up-set (the
    least upper bound law), and a clashing pair has no common upper
    key."""
    key, width = kslice_keys(elems)
    u, v = key[:, None], key[None, :]
    subset = (u & v) == u
    apart = (u & _clash_bits(v, width)) == 0
    joined = u | v
    below = np.zeros(subset.shape, dtype=np.int64)
    for (i, a), (j, b) in itertools.product(enumerate(elems), repeat=2):
        below[i, j] = leq(a, b)
        assert subset[i, j] == below[i, j], (a, b)
        c = join(a, b)
        assert apart[i, j] == (c is not None), (a, b)
        if c is not None:
            assert joined[i, j] == seq_key(c, width), (a, b)
    # the number of common upper bounds of each pair, by `leq`
    assert not (below @ below.T)[~apart].any()
    assert (apart == apart.T).all() and (joined == joined.T).all()
    assert np.isin(joined[apart], key).all()
    for i in range(len(key)):
        above = (joined[i][:, None] & key) == joined[i][:, None]
        common = subset[i] & subset
        assert (above == common)[apart[i]].all(), elems[i]
        assert not common[~apart[i]].any(), elems[i]


# -- subbases: membership and permuted views -----------------------------


def member_open(S: DyadicSubbase, sigma: BottomedSeq, x) -> bool:
    """x in S(sigma): the digit equals sigma(k) at every defined index."""
    return all(S.digit(k, x) == a for k, a in sigma.items())


def member_closed(S: DyadicSubbase, sigma: BottomedSeq, x) -> bool:
    """x in S-bar(sigma): the digit is sigma(k) or the boundary digit."""
    return all(S.digit(k, x) in (a, BD) for k, a in sigma.items())


def permute(S: DyadicSubbase, pi: Sequence[int]) -> DyadicSubbase:
    """Reorder the enumeration: digit(permute(S, pi), n, x) = digit(S, pi[n], x)."""
    if sorted(pi) != list(range(len(S))):
        raise ValueError("pi must be a bijection on {0..%d}" % (len(S) - 1))
    return ReindexedSubbase(S, pi)


# -- digits, lattices and tables -----------------------------------------


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


def lattice_squares(name: str, resolution: Fraction, i: int) -> list:
    """d^2 from sample i to every sample of a built-in lattice, as
    Fractions from its rational points: the sum over axes of the squared
    gap, read round the ring on a periodic axis."""
    wrap = _LATTICES[name][1]
    points = lattice_points(name, resolution)
    return [sum(min(g, 1 - g) ** 2 if wrap else g ** 2
                for g in (abs(a - b) for a, b in zip(points[i], y)))
            for y in points]


def unpruned_neighbor_lists(M, steps: int, r: float,
                            rows: np.ndarray) -> np.ndarray:
    """The neighbours of `rows` on the built-in lattice model M in the
    layout of `per_sample` by the float rule: every offset of at most
    `steps` grid steps per axis, none skipped, one offset at a time, each
    pair kept iff its float distance is at most r: |a - b| of the float
    coordinates (the ring minimum on a periodic axis), and on two axes the
    sqrt of the sum of their squares."""
    lattice = M.lattice
    dims, wrap = len(lattice.shape), lattice.wrap[0]
    coords = np.array([[float(c) for c in x]
                       for x in lattice_points(M.name, M.resolution)])
    if dims == 1:
        coords = coords[:, 0]

    def dist(a, b):
        d = np.abs(a - b)
        if wrap:  # the ring minimum
            d = np.minimum(d, 1 - d)
        return d if dims == 1 else np.sqrt((d ** 2).sum(axis=-1))

    n = len(coords)
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
        keep = dist(coords[cand], coords[rows[src]]) <= r
        src, cand = src[keep], cand[keep]
        if src.size and count[src].max() == out.shape[1]:
            out = np.concatenate([out, np.full_like(out, n)], axis=1)
        out[src, count[src]] = cand
        count[src] += 1
    return np.sort(out[:, :int(count.max(initial=0))], axis=1)


def exact_neighbor_lists(name: str, resolution: Fraction, radius: Fraction,
                         rows: np.ndarray) -> np.ndarray:
    """The neighbours of `rows` on a built-in lattice in the layout of
    `per_sample`, by the exact rule over every pair: sample j != i is a
    neighbour of i iff the sum over axes of g^2 is at most
    (radius + 10^-9)^2, g the gap of their coordinates k p / q as
    Fractions, read round the ring on a periodic axis.  The sum is taken
    once per distinct tuple of axis gaps and looked up for each pair."""
    dims, wrap = _LATTICES[name]
    axis = _grid(resolution, wrap)
    size, n = len(axis), len(axis) ** dims
    gaps = [[abs(x - y) for y in axis] for x in axis]
    if wrap:
        gaps = [[min(g, 1 - g) for g in row] for row in gaps]
    values = sorted({g for row in gaps for g in row})
    which = np.array([[values.index(g) for g in row] for row in gaps])
    bound = radius + Fraction(1, 10 ** 9)
    within = np.array([bound >= 0 and sum(g * g for g in c) <= bound * bound
                       for c in itertools.product(values, repeat=dims)]
                      ).reshape((len(values),) * dims)
    here = np.unravel_index(rows, (size,) * dims)
    every = np.unravel_index(np.arange(n), (size,) * dims)
    near = within[tuple(which[h[:, None], e[None, :]]
                        for h, e in zip(here, every))]
    near[np.arange(len(rows)), rows] = False
    cols = np.sort(np.where(near, np.arange(n), n), axis=1)
    return cols[:, :int(near.sum(axis=1).max(initial=0))]


def per_sample(slots: np.ndarray, n: int) -> np.ndarray:
    """The samples x width layout of a slots x samples neighbour array:
    each sample's neighbours ascending, padded on the right with n, as
    wide as the most neighbours a sample has, intp.  The pad n is past
    every index, so it sorts last."""
    rows = np.sort(slots.T.astype(np.intp), axis=1)
    return rows[:, :int((rows < n).sum(axis=1).max(initial=0))]


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
        open_mask &= table[k] == a
        closed_mask &= (table[k] == a) | (table[k] == BD)
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
    key = np.array([seq_key(e, width) for e in elems], dtype=dtype)
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
    return all(restrict(sigma, m) in elems
               for sigma in elems for m in range(K.depth + 1))
