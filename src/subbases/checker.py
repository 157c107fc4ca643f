"""Grid-scale verification of properness and strong properness.

The closure identity "S-bar(sigma) equals the closure of S(sigma)" is
tested by a witness surrogate on the sample grid: a point of
S-bar(sigma) must lie within delta of a sample of S(sigma).  A pass
certifies the absence of violations at resolution delta only; a failure
carries self-verifying witnesses.

The checks read the digit code of every sample from `subbase.digit_table`
(re-exported here), the one place where classification is decided.  The
closure checks work over code classes, the distinct columns of the table,
and extend patterns depth-first, cutting every branch whose closed set is
already empty.  A complete pattern is decided per code class: each
boundary sample carries the bitset of the classes among its
delta-neighbours, and a candidate sample is far when that bitset misses
the pattern's open classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .seq import BD, BINARY_DIGITS, BOT, DIGITS, BottomedSeq, render
from .space import SpaceModel
from .subbase import (DIGIT_CODE, DyadicSubbase, code_classes, digit_table,
                      letter_masks)

_MAX_VIOLATIONS = 100


class CheckerError(ValueError):
    """Precondition violation of a check run."""


@dataclass(frozen=True)
class Violation:
    """A point of S-bar(sigma) with no delta-near sample of S(sigma)."""

    sigma: BottomedSeq
    point: object
    nearest: Optional[float]  # distance to nearest sampled member, None if empty

    def to_json(self) -> dict:
        return {
            "sigma": render(self.sigma),
            "point": _point_json(self.point),
            "nearest": self.nearest,
        }


@dataclass
class CheckReport:
    verdict: str  # "pass" | "fail"
    kind: str
    depth: int
    delta: float
    resolution: Fraction
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False
    # work counts of the run, up to where a truncated run stopped; not part
    # of to_json() or to_text()
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def __bool__(self) -> bool:
        return self.ok

    def add(self, violation: Violation) -> bool:
        """Record a violation; False once the list is full and truncated."""
        self.verdict = "fail"
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(violation)
            return True
        self.truncated = True
        return False

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "kind": self.kind,
            "depth": self.depth,
            "delta": float(self.delta),
            "resolution": str(self.resolution),
            "truncated": self.truncated,
            "violations": [v.to_json() for v in self.violations],
        }

    def to_text(self) -> str:
        lines = ["%s check at depth %d, delta %s, grid resolution %s: %s"
                 % (self.kind, self.depth, _fmt(self.delta),
                    self.resolution, self.verdict.upper())]
        for v in self.violations:
            near = "none within sample" if v.nearest is None else _fmt(v.nearest)
            lines.append("  sigma=%s point=%s nearest=%s"
                         % (render(v.sigma), _point_text(v.point), near))
        if self.truncated:
            lines.append("  ... violation list truncated at %d" % _MAX_VIOLATIONS)
        return "\n".join(lines)


def _fmt(v) -> str:
    return str(v) if isinstance(v, Fraction) else "%g" % float(v)


def _point_text(p) -> str:
    if isinstance(p, tuple):
        return ",".join(str(c) for c in p)
    return str(p)


def _point_json(p):
    if isinstance(p, tuple):
        return [str(c) for c in p]
    return str(p)


def check_delta(resolution: Fraction, delta):
    if Fraction(delta) < 2 * resolution:
        raise CheckerError("delta %s is below twice the grid resolution %s"
                           % (delta, resolution))


def _nearest(M: SpaceModel, i: int, target: np.ndarray) -> Optional[float]:
    """Distance from sample i to the nearest sample of the target mask, the
    one distance row read; None if the target is empty."""
    return float(M.distance_row(i)[target].min()) if target.any() else None


def _bits(mask: np.ndarray) -> int:
    """A boolean array as an int bitset: bit j is mask[j]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _unbits(bits: int, n: int) -> np.ndarray:
    """The first n bits of an int bitset as a boolean array."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool)


def _class_reach(near: np.ndarray, inverse: np.ndarray, n_classes: int):
    """Per row of a padded neighbour array, the code classes of its
    neighbours as an int bitset shifted down by the lowest of them: two
    lists, the shifted bitsets and the shifts.  Neighbours of one sample
    mostly fall in a narrow range of classes, so the shifted bitsets stay
    small however many classes there are.  Built one slot at a time; a
    row without neighbours holds no class (at most the bit past the last
    one, which no set of classes holds)."""
    classes = np.append(inverse, n_classes)
    low = np.full(len(near), n_classes)
    for col in near.T:
        np.minimum(low, classes[col], out=low)
    bits = [0] * len(near)
    for col in near.T:
        # a pad sets the bit of its row's lowest class again
        offsets = np.where(col < len(inverse), classes[col] - low, 0)
        for p, r in enumerate(offsets.tolist()):
            bits[p] |= 1 << r
    return bits, low.tolist()


def _search(steps, k: int, open_bits: int, closed_bits: int, word: list,
            stats: dict, complete) -> bool:
    """Extend word[:k] by the letters of steps[k:] in itertools.product
    order and call complete(open bits, closed bits) on each full pattern;
    a branch whose closed set is empty is cut and counted.  False once
    complete returns False.  Being a module function, the recursion
    leaves no reference cycle behind."""
    if k == len(steps):
        return complete(open_bits, closed_bits)
    for a, open_k, closed_k in steps[k]:
        closed = closed_bits & closed_k
        if not closed:
            stats["patterns_pruned"] += len(steps[k]) ** (len(steps) - k - 1)
            continue
        word[k] = a
        if not _search(steps, k + 1, open_bits & open_k, closed, word, stats,
                       complete):
            return False
    return True


def _run_check(S: DyadicSubbase, M: SpaceModel, depth: int, delta,
               alphabet, kind: str) -> CheckReport:
    """Every pattern over alphabet + bottom, in itertools.product order
    (position 0 slowest), with the first far candidate sample of each
    recorded.  Branches with an empty closed set are cut, since no
    extension of them has a candidate."""
    check_delta(M.resolution, delta)
    table = digit_table(S, M, depth)
    codes, inverse = code_classes(table)
    n_classes = codes.shape[1]
    everything = (1 << n_classes) - 1
    # per position: (letter, open bitset, closed bitset) over code classes
    steps = [[(a, *map(_bits, letter_masks(row, a))) for a in alphabet]
             + [(BOT, everything, everything)] for row in codes]
    report = CheckReport("pass", kind, depth, delta, M.resolution)
    stats = report.stats
    stats.update(patterns_examined=0, patterns_pruned=0,
                 patterns_with_candidates=0, code_classes=n_classes,
                 candidates_scanned=0)
    word = [BOT] * depth
    # candidates need a boundary digit: elsewhere open and closed masks agree
    boundary = np.flatnonzero((table == DIGIT_CODE[BD]).any(axis=0))
    # per boundary sample, the classes of its delta-neighbours
    reach, shift = _class_reach(M.neighbor_lists(delta, rows=boundary),
                                inverse, n_classes)
    owner = inverse[boundary]

    def complete(open_bits: int, closed_bits: int) -> bool:
        stats["patterns_examined"] += 1
        candidate_bits = closed_bits & ~open_bits
        if not candidate_bits:
            return True
        stats["patterns_with_candidates"] += 1
        # the ascending positions in `boundary` of the candidate classes'
        # samples: each of them has a boundary digit
        rows = _unbits(candidate_bits, n_classes)[owner].nonzero()[0].tolist()
        # first violation per sigma only: the first candidate, in sample
        # order, with no neighbour in an open class
        far = next((k for k, p in enumerate(rows)
                    if not (reach[p] << shift[p]) & open_bits), None)
        if far is None:
            stats["candidates_scanned"] += len(rows)
            return True
        stats["candidates_scanned"] += far + 1
        i = int(boundary[rows[far]])
        target = _unbits(open_bits, n_classes)[inverse]
        sigma = BottomedSeq({k: a for k, a in enumerate(word) if a != BOT})
        return report.add(Violation(sigma, M.sample_points[i],
                                    _nearest(M, i, target)))

    _search(steps, 0, everything, everything, word, stats, complete)
    return report


def check_proper(S: DyadicSubbase, M: SpaceModel, depth: int, delta) -> CheckReport:
    """Closure identity over sigma with binary digits only."""
    return _run_check(S, M, depth, delta, BINARY_DIGITS, "proper")


def check_strong_proper(S: DyadicSubbase, M: SpaceModel, depth: int,
                        delta) -> CheckReport:
    """Closure identity over sigma allowing boundary digits."""
    return _run_check(S, M, depth, delta, DIGITS, "strong-proper")


def report_to_json_file(report: CheckReport, path: str):
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
