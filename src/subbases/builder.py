"""Randomized construction of (strongly) proper dyadic subbases.

Cuts are distance functions to points of the dense enumeration, with
cut values drawn from a base of open rational intervals.  The countable
sets of dangerous values (local extrema of the cut function restricted
to the regions definable from earlier cuts) are replaced by finite
sampled surrogates, and the random draw rejects values within a margin
of them.  The checkers remain the acceptance gate for the result.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .seq import BD, BINARY_DIGITS, BottomedSeq, render
from .space import SpaceModel
from .subbase import (DistanceCut, DistanceSubbase, classify, code_classes,
                      pattern_masks, table_codes)

_EPS = 1e-9
REGION_SUPPORT = 2  # max #fixed digits in enumerated avoid regions


class Exhaustion(RuntimeError):
    """No admissible cut value found: the interval is too crowded."""


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
    """m-th interval of a base of the positive reals.

    Centers run over all positive rationals, radii shrink along the
    second unpaired coordinate; every interval stays positive.
    """
    a, b = unpair(m)
    center = positive_rational(a)
    radius = min(Fraction(1, b + 2), center / 2)
    return center - radius, center + radius


# -- parameters and avoid sets ------------------------------------------


@dataclass
class BuilderParams:
    count: int
    strong: bool = False
    avoid_margin: Fraction = Fraction(1, 1000)
    max_retries: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.avoid_margin <= 0:
            raise ValueError("avoid_margin must be positive")


@dataclass
class AvoidSet:
    """Finite sampled surrogate of the countable set of dangerous cut values."""

    values: List[Tuple[float, str]] = field(default_factory=list)

    def extend(self, values: np.ndarray, tag: str):
        self.values.extend((v, tag) for v in np.asarray(values, float).tolist())

    def clipped(self, lo: Fraction, hi: Fraction, margin) -> List[float]:
        m = float(margin)
        lo_f, hi_f = float(lo) - m, float(hi) + m
        return sorted({v for v, _ in self.values if lo_f <= v <= hi_f})

    def __len__(self):
        return len(self.values)


def candidate(M: SpaceModel, n: int) -> Tuple[int, Tuple[Fraction, Fraction]]:
    """Centre and target interval for step n: the sample index of the
    n0-th dense point, and the n1-th base interval."""
    n0, n1 = unpair(n)
    return M.dense_index(n0), base_interval(n1)


def _extremal(v: np.ndarray, nb_vals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row: v is maximal or minimal (within slack) among the masked
    neighbour values; a row with none masked counts as both."""
    hi = nb_vals.max(axis=1, where=mask, initial=-np.inf)
    lo = nb_vals.min(axis=1, where=mask, initial=np.inf)
    return (v >= hi - _EPS) | (v <= lo + _EPS)


def _local_extrema(f_pad: np.ndarray, region: np.ndarray,
                   nbr: np.ndarray) -> np.ndarray:
    """Values of f at samples extremal among region neighbors.

    A sample is a local extremum of f restricted to the region when its
    value is maximal or minimal (within slack) among the region samples
    in its neighborhood; isolated region samples count as both.  `nbr` is
    the padded neighbour array of `SpaceModel.neighbor_lists`, and `f_pad`
    holds f at every sample followed by one value read at the pad index.
    """
    nb = nbr[region]
    v = f_pad[:-1][region]
    return v[_extremal(v, f_pad[nb], np.append(region, False)[nb])]


def _small_support(n: int, digits, support: int):
    """Patterns over indices < n fixing at most `support` digits from
    `digits`, the empty pattern first."""
    for size in range(support + 1):
        for ks in itertools.combinations(range(n), size):
            for vals in itertools.product(digits, repeat=size):
                yield BottomedSeq(zip(ks, vals))


def collect_avoid(M: SpaceModel, table: np.ndarray, f_vals: np.ndarray,
                  n: int, strong: bool, nbr: np.ndarray,
                  chosen: Sequence[float] = (),
                  cut_vals: Sequence[np.ndarray] = ()) -> AvoidSet:
    """Sampled avoid set for cut n given the digit table of cuts 0..n-1.

    Regions are the closed sets of sigma with at most REGION_SUPPORT
    fixed binary digits, plus every region realized by a sampled code;
    when strong, additionally the sampled boundary regions and the cut
    values of earlier pairs that interact with level sets of f_n.
    """
    avoid = AvoidSet()
    f_pad = np.append(f_vals, 0.0)

    for sigma in _small_support(n, BINARY_DIGITS, REGION_SUPPORT):
        _, mask = pattern_masks(table, sigma)
        if mask.any():
            avoid.extend(_local_extrema(f_pad, mask, nbr),
                         "extremum|closed[%s]" % render(sigma))

    # regions realized by sampled codes: the closed set of phi(x)|_n
    for code in table_codes(table):
        _, mask = pattern_masks(table, code)
        avoid.extend(_local_extrema(f_pad, mask, nbr),
                     "extremum|code[%s]" % render(code, width=n))

    if strong:
        # sampled boundary regions S(tau), tau over {bd, bot}; the closed
        # and the open set of tau coincide
        for tau in _small_support(n, (BD,), REGION_SUPPORT):
            _, mask = pattern_masks(table, tau)
            if not tau.is_empty() and mask.any():
                avoid.extend(_local_extrema(f_pad, mask, nbr),
                             "extremum|boundary[%s]" % render(tau))
        # earlier cut values with a sampled critical interaction:
        # x extremal for f_k among neighbors on its own f_n level band
        band = 2 * float(M.resolution)
        level = np.abs(np.append(f_vals, np.inf)[nbr] - f_vals[:, None]) <= band
        for k, (c_k, g_vals) in enumerate(zip(chosen, cut_vals)):
            hit = (level.any(axis=1) & (np.abs(g_vals - c_k) <= band)
                   & _extremal(g_vals, np.append(g_vals, 0.0)[nbr], level))
            avoid.extend(f_vals[hit], "interaction|cut%d" % k)
    return avoid


def choose_cut(interval: Tuple[Fraction, Fraction], avoid: AvoidSet,
               params: BuilderParams, rng: random.Random) -> Fraction:
    """Uniform rational draw from the interval, rejecting values within
    the margin of any avoid value; deterministic given the rng state."""
    lo, hi = interval
    if hi <= lo:
        raise Exhaustion("empty interval %s" % (interval,))
    margin = float(params.avoid_margin)
    blocked = avoid.clipped(lo, hi, params.avoid_margin)
    width = hi - lo
    for _ in range(params.max_retries):
        c = lo + width * Fraction(rng.randrange(1, 2 ** 30), 2 ** 30)
        cf = float(c)
        if all(abs(cf - v) >= margin - _EPS for v in blocked):
            return c
    raise Exhaustion("no admissible cut in %s after %d draws"
                     % (interval, params.max_retries))


@dataclass
class BuildLogRecord:
    n: int
    n0: int
    interval: Tuple[Fraction, Fraction]
    avoid_count: int
    c: Fraction
    retries: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "n0": self.n0,
            "interval": [str(self.interval[0]), str(self.interval[1])],
            "avoid_count": self.avoid_count,
            "c_n": str(self.c),
            "retries": self.retries,
        }


@dataclass
class BuildResult:
    subbase: DistanceSubbase
    log: List[BuildLogRecord]
    table: np.ndarray  # the builder's digit codes of every cut at every sample

    @property
    def separation(self) -> float:
        """Fraction of sample pairs split by some digit."""
        return separation_fraction(self.table)

    def log_lines(self) -> str:
        return "\n".join(json.dumps(r.to_json()) for r in self.log)


def separation_fraction(table: np.ndarray) -> float:
    """Fraction of sample pairs distinguished by at least one digit."""
    npts = table.shape[1]
    if npts < 2:
        return 1.0
    groups = np.bincount(code_classes(table)[1])
    same = sum(int(g) * (int(g) - 1) // 2 for g in groups)
    total = npts * (npts - 1) // 2
    return 1.0 - same / total


def build(M: SpaceModel, params: BuilderParams) -> BuildResult:
    """Build `count` cuts inductively: candidate, avoid set, random cut.

    On exhaustion the next base interval for the same center is tried.
    The result is expected, not guaranteed, to pass the checkers at the
    model's resolution; run them to accept it.
    """
    rng = random.Random(params.rng_seed)
    npts = len(M.sample_points)
    nbr = M.neighbor_lists(2 * M.resolution)
    table = np.empty((0, npts), dtype=np.int8)
    cuts: List[DistanceCut] = []
    rows = {}  # centre -> distance row: a centre recurs, its row is read once
    log: List[BuildLogRecord] = []

    for n in range(params.count):
        center_index, interval = candidate(M, n)
        if center_index not in rows:
            rows[center_index] = M.distance_row(center_index)
        f_vals = rows[center_index]
        avoid = collect_avoid(M, table, f_vals, n, params.strong, nbr,
                              [float(cut.c) for cut in cuts],
                              [rows[cut.center_index] for cut in cuts])
        n1 = unpair(n)[1]
        retries = 0
        c = None
        while c is None:
            try:
                c = choose_cut(interval, avoid, params, rng)
            except Exhaustion:
                retries += 1
                if retries > params.max_retries:
                    raise
                n1 += 1
                interval = base_interval(n1)
        cuts.append(DistanceCut(center_index, c))
        table = np.vstack([table, classify(f_vals, c)])
        log.append(BuildLogRecord(n, unpair(n)[0], interval, len(avoid),
                                  c, retries))

    return BuildResult(DistanceSubbase(M, cuts), log, table)
