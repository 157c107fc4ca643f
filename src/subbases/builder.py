"""Randomized construction of (strongly) proper dyadic subbases.

Cuts are distance functions to points of the dense enumeration, with
cut values drawn from a base of open rational intervals.  The countable
sets of dangerous values (local extrema of the cut function restricted
to the regions definable from earlier cuts) are replaced by finite
sampled surrogates, and the random draw rejects values within a margin
of them.  The checkers remain the acceptance gate for the result.

The surrogate for cut n is collected per family of regions, not per
region: whether a sample lies in a region depends only on its code
class under the earlier cuts, so a family is a regions x classes
membership matrix, and one bit-packed pass over the neighbour array
decides, for a block of regions at once, which samples are local
extrema of f_n in which region.  The strong interaction test with an
earlier cut reads that cut's record only near its level set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .seq import BD, BINARY_DIGITS, DIGITS, ONE
from .space import SpaceModel
from .subbase import DistanceCut, DistanceSubbase, code_classes

_EPS = 1e-9
REGION_SUPPORT = 2  # max #fixed digits in enumerated avoid regions
_REGION_BLOCK = 128  # regions per packed block: two 64-bit words per sample
AVOID_MARGIN = Fraction(1, 1000)  # a drawn cut keeps this far from avoid values
MAX_RETRIES = 64  # draws per base interval, and base intervals per cut


class Exhaustion(ValueError):
    """No admissible cut value found: the interval is too crowded.  A
    ValueError, since the build's inputs leave no admissible cut."""


# -- enumerations --------------------------------------------------------


def unpair(n: int) -> Tuple[int, int]:
    """Cantor-style diagonal unpairing, surjective onto pairs.

    unpair(0)=(0,0), unpair(1)=(0,1), unpair(2)=(1,0), unpair(3)=(0,2), ...
    """
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    i = n - s * (s + 1) // 2
    return i, s - i


def positive_rational(i: int) -> Fraction:
    """i-th positive rational of the Calkin-Wilf sequence (0-based, starts at 1)."""
    q = Fraction(1)
    for _ in range(i):
        q = 1 / (2 * (q.numerator // q.denominator) + 1 - q)
    return q


def base_interval(m: int) -> Tuple[Fraction, Fraction]:
    """m-th interval of a base of the positive reals: centers run over all
    positive rationals, radii shrink along the second unpaired coordinate."""
    a, b = unpair(m)
    center = positive_rational(a)
    radius = min(Fraction(1, b + 2), center / 2)
    return center - radius, center + radius


# -- avoid sets ----------------------------------------------------------


@dataclass
class AvoidSet:
    """Finite sampled surrogate of the countable set of dangerous cut values."""

    values: List[Tuple[float, str]] = field(default_factory=list)

    def extend(self, values: np.ndarray, tag: str):
        self.values.extend((v, tag) for v in np.asarray(values, float).tolist())

    def clipped(self, lo: float, hi: float) -> List[float]:
        """The distinct values in [lo, hi], sorted."""
        return sorted({v for v, _ in self.values if lo <= v <= hi})

    def __len__(self):
        return len(self.values)


class Centre(NamedTuple):
    """A cut centre's distance row and neighbour steps, made by `_centre`."""

    row: np.ndarray
    up: np.ndarray
    down: np.ndarray


def _centre(row: np.ndarray, nbr: np.ndarray) -> Centre:
    """The record of the centre with distance row `row`, made once per
    build: bit (slot, i) of `up` (`down`) says the neighbour in that slot
    of sample i lies above (below) it by more than the slack, packed as by
    `np.packbits(bits, axis=0, bitorder="little")` one slot row of `nbr`
    at a time; a samples x slots gather adds about 10 MB to the peak on
    the 1/256 square.  A sample is maximal (within slack) among selected
    neighbours iff none is `up`, minimal iff none is `down`: rounding is
    monotone, so v >= fl(max f - eps) iff v >= fl(f - eps)."""
    f_pad = np.append(row, 0.0)
    up = np.zeros((-(-nbr.shape[0] // 8), nbr.shape[1]), dtype=np.uint8)
    down = np.zeros_like(up)
    for slot, col in enumerate(nbr):
        byte, bit, nb = slot // 8, np.uint8(1 << slot % 8), f_pad[col]
        np.bitwise_or(up[byte], bit, out=up[byte], where=row < nb - _EPS)
        np.bitwise_or(down[byte], bit, out=down[byte], where=row > nb + _EPS)
    return Centre(row, up, down)


def _region_extrema(member: np.ndarray, inverse: np.ndarray, nbr: np.ndarray,
                    cut: Centre):
    """The samples that are local extrema of f in each of a block of
    regions, as (region, sample) index pairs, region-major.

    `member` is regions x code classes and `inverse` gives each sample's
    class; `cut` is the record of f.  The regions are packed into
    64-bit words, one row per class and a zero row for the pad of `nbr`.
    Over the slot rows of `nbr` the neighbours' words are OR-ed into `above`
    where the neighbour lies above the sample and into `below` where it
    lies below.  A sample of a region is a local extremum there unless
    the region holds a neighbour of each kind; isolated samples count.
    """
    regions, classes = member.shape
    packed = np.zeros((classes + 1, 8 * -(-regions // 64)), dtype=np.uint8)
    packed[:classes, :-(-regions // 8)] = np.packbits(member, axis=0,
                                                      bitorder="little").T
    words = packed.view(np.uint64)[np.append(inverse, classes)]
    above = np.zeros_like(words[:-1])
    below = np.zeros_like(above)
    for slot, col in enumerate(nbr):  # each slot's bits as it is reached
        nb, byte, bit = words[col], slot // 8, np.uint8(1 << slot % 8)
        np.bitwise_or(above, nb, out=above, where=(cut.up[byte] & bit)[:, None] > 0)
        np.bitwise_or(below, nb, out=below, where=(cut.down[byte] & bit)[:, None] > 0)
    extremal = words[:-1] & ~(above & below)
    samples = np.flatnonzero(extremal.any(axis=1))
    bits = np.unpackbits(extremal[samples].view(np.uint8), axis=1,
                         bitorder="little")[:, :regions]
    region, k = np.nonzero(bits.T)
    return region, samples[k]


def _pattern_index(n: int, digits: Sequence[int]) -> np.ndarray:
    """Every pattern over positions < n fixing at most REGION_SUPPORT
    digits from `digits`, as a row of letter-table rows 3k + digit, padded
    with the all-true row 3n: the empty pattern first, then by size,
    positions and digits in itertools order."""
    blocks = []
    for size in range(REGION_SUPPORT + 1):
        ks = list(itertools.combinations(range(n), size))
        ds = list(itertools.product(digits, repeat=size))
        block = np.full((len(ks), len(ds), REGION_SUPPORT), 3 * n, dtype=np.intp)
        block[..., :size] = (3 * np.array(ks, dtype=np.intp).reshape(len(ks), 1, size)
                             + np.array(ds, dtype=np.intp))
        blocks.append(block.reshape(-1, REGION_SUPPORT))
    return np.concatenate(blocks)


def collect_avoid(table: np.ndarray, cut: Centre, nbr: np.ndarray, band,
                  strong: bool,
                  earlier: Sequence[Tuple[float, Centre]] = ()) -> AvoidSet:
    """Sampled avoid set for the cut centred at `cut`, given the earlier
    cuts' digit table and (value, centre) pairs and neighbours within `band`.

    Regions are the closed sets of sigma with at most REGION_SUPPORT
    fixed binary digits, plus every region realized by a sampled code;
    when strong, additionally the sampled boundary regions and the cut
    values of earlier pairs that interact with level sets of f_n.

    Membership in a region depends only on a sample's code class, so a
    family of regions is a regions x classes matrix: the AND of rows of
    one letter table, where row 3k + d is the closed set of digit d at
    position k and row 3n holds every class.  Each region family is one
    index of such rows, built and searched _REGION_BLOCK regions at a
    time by `_region_extrema` on the centre's record.  Each value is
    tagged with its family: closed, code, boundary or interaction.
    """
    avoid = AvoidSet()
    n, f_vals = table.shape[0], cut.row
    codes, inverse = code_classes(table)
    classes = codes.shape[1]
    letters = np.ones((3 * n + 1, classes), dtype=bool)
    for k, row in enumerate(codes):
        for d in DIGITS:
            letters[3 * k + d] = (row == d) | (row == BD)

    def closed_sets(kind, index):
        """One region per row of `index`: the AND of the letter rows it
        names, from all-true one column at a time, so a block's work
        space stays two blocks however wide the rows are.  Adds f's local
        extrema in each region, region-major, tagged kind."""
        for lo in range(0, len(index), _REGION_BLOCK):
            rows = index[lo:lo + _REGION_BLOCK]
            block = np.ones((len(rows), classes), dtype=bool)
            for column in rows.T:
                block &= letters[column]
            if block.any():
                _, sample = _region_extrema(block, inverse, nbr, cut)
                avoid.extend(f_vals[sample], kind)

    closed_sets("closed", _pattern_index(n, BINARY_DIGITS))

    # regions realized by sampled codes: the closed set of phi(x)|_n, the
    # AND of the code's binary letters, one row per code class.
    # Built from masks: an int8 -> int64 cast of codes costs ~0.1 MB peak RSS
    code = 3 * np.arange(n)[:, None] + (codes == ONE)
    code[codes == BD] = 3 * n
    closed_sets("code", code.T)

    if strong:
        # sampled boundary regions S(tau), tau over {bd, bot} and not
        # empty; the closed and the open set of tau coincide
        closed_sets("boundary", _pattern_index(n, (BD,))[1:])
        # earlier cut values with a sampled critical interaction: the
        # candidates x, f_k(x) within band of c_k, with neighbours on their
        # own f_n level band (the pad is off it) and extremal for f_k among
        # them.  Gaps in place: with the avoid set full they set the peak
        band = float(band)
        f_inf = np.append(f_vals, np.inf)
        for c_k, g in earlier:
            x = np.flatnonzero(np.abs(g.row - c_k) <= band)
            gap = f_inf.take(nbr.take(x, axis=1))
            gap -= f_vals[x]
            level = np.packbits(np.abs(gap, out=gap) <= band, axis=0,
                                bitorder="little")
            up, down = g.up.take(x, axis=1) & level, g.down.take(x, axis=1) & level
            hit = level.any(axis=0) & ~(up.any(axis=0) & down.any(axis=0))
            avoid.extend(f_vals[x[hit]], "interaction")
    return avoid


def choose_cut(interval: Tuple[Fraction, Fraction], avoid: AvoidSet,
               rng: random.Random) -> Fraction:
    """Uniform rational draw from the interval, rejecting values within
    AVOID_MARGIN of any avoid value, at most MAX_RETRIES draws;
    deterministic given the rng state."""
    lo, hi = interval
    if hi <= lo:
        raise Exhaustion("empty interval %s" % (interval,))
    margin = float(AVOID_MARGIN)
    blocked = avoid.clipped(float(lo) - margin, float(hi) + margin)
    for _ in range(MAX_RETRIES):
        c = lo + (hi - lo) * Fraction(rng.randrange(1, 2 ** 30), 2 ** 30)
        cf = float(c)
        if all(abs(cf - v) >= margin - _EPS for v in blocked):
            return c
    raise Exhaustion("no admissible cut in %s after %d draws"
                     % (interval, MAX_RETRIES))


@dataclass
class BuildResult:
    subbase: DistanceSubbase
    log: List[dict]  # per cut: n, n0, interval, avoid_count, c_n, retries
    table: np.ndarray  # the builder's digit codes of every cut at every sample


def separation_fraction(table: np.ndarray) -> float:
    """Fraction of sample pairs distinguished by at least one digit."""
    npts = table.shape[1]
    if npts < 2:
        return 1.0
    groups = np.bincount(code_classes(table)[1])
    same = sum(int(g) * (int(g) - 1) // 2 for g in groups)
    total = npts * (npts - 1) // 2
    return 1.0 - same / total


def build(M: SpaceModel, count: int, strong: bool = False,
          seed: int = 0) -> BuildResult:
    """Build `count` cuts inductively: cut n is centred at the n0-th dense
    point and drawn from the n1-th base interval, (n0, n1) = unpair(n).

    On exhaustion the next base interval for the same center is tried.
    The result is expected, not guaranteed, to pass the checkers at the
    model's resolution; run them to accept it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = random.Random(seed)
    band = 2 * M.resolution
    nbr = M.neighbor_lists(band)
    table = np.empty((count, len(M)), dtype=np.int8)
    subbase = DistanceSubbase(M, [])
    centres = {}  # sample index -> Centre: a centre recurs, its record is made once
    earlier: List[Tuple[float, Centre]] = []
    log: List[dict] = []

    for n in range(count):
        n0, n1 = unpair(n)
        center_index = M.dense_index(n0)
        if center_index not in centres:
            centres[center_index] = _centre(M.distance_row(center_index), nbr)
        cut = centres[center_index]
        avoid = collect_avoid(table[:n], cut, nbr, band, strong, earlier)
        for retries in itertools.count():
            interval = base_interval(n1 + retries)
            try:
                c = choose_cut(interval, avoid, rng)
                break
            except Exhaustion:
                if retries == MAX_RETRIES:
                    raise
        subbase.cuts.append(DistanceCut(center_index, c))
        table[n] = subbase.digit_row(n, M)
        earlier.append((float(c), cut))
        log.append({"n": n, "n0": n0,
                    "interval": [str(interval[0]), str(interval[1])],
                    "avoid_count": len(avoid), "c_n": str(c), "retries": retries})

    return BuildResult(subbase, log, table)
