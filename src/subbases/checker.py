"""Grid-scale verification of properness and strong properness.

The closure identity "S-bar(sigma) equals the closure of S(sigma)" is
tested by a witness surrogate on the sample grid: a point of
S-bar(sigma) must lie within delta of a sample of S(sigma).  A pass
certifies the absence of violations at resolution delta only; a failure
carries self-verifying witnesses.

The checks read the digit code of every sample from `subbase.digit_table`
(re-exported here), the one place where classification is decided.
Refining sigma only shrinks S(sigma), so a sample violates some sigma iff
it violates a total one: a sigma that fixes every position, copies the
sample's binary digits and puts letters at its boundary positions, not
all of them b.  Such a sigma's open set holds a delta-neighbour iff the
neighbour agrees with the sample on its binary positions and shows
sigma's letters at its boundary positions.  So the checks make one cover
test per boundary sample, with no search over patterns, and a failure
lists the violated total sigmas.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .seq import BD, BINARY_DIGITS, BOT, DIGITS, ZERO, render
from .space import SpaceModel
from .subbase import DyadicSubbase, digit_table

_MAX_VIOLATIONS = 100


class CheckerError(ValueError):
    """Precondition violation of a check run."""


@dataclass(frozen=True)
class Violation:
    """A point of S-bar(sigma) with no delta-near sample of S(sigma)."""

    sigma: bytes  # a total sigma's code
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
    # the boundary and failing samples of the run; not part of to_json()
    # or to_text()
    stats: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

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
    return ",".join(map(str, p)) if isinstance(p, tuple) else str(p)


def _point_json(p):
    return [str(c) for c in p] if isinstance(p, tuple) else str(p)


def check_delta(resolution: Fraction, delta):
    if Fraction(delta) < 2 * resolution:
        raise CheckerError("delta %s is below twice the grid resolution %s"
                           % (delta, resolution))


def _nearest(M: SpaceModel, i: int, target: np.ndarray) -> Optional[float]:
    """Distance from sample i to the nearest sample of the target mask, the
    one distance row read; None if the target is empty."""
    return float(M.distance_row(i)[target].min()) if target.any() else None


def _run_check(S: DyadicSubbase, M: SpaceModel, depth: int, delta,
               alphabet, kind: str) -> CheckReport:
    """A sample fails iff its agreeing neighbours do not show every
    assignment of alphabet letters, all-b excluded, at its boundary
    positions.  The report lists the violated total sigmas in
    itertools.product order (position 0 slowest), each with its first far
    sample in sample order."""
    check_delta(M.resolution, delta)
    table = digit_table(S, M, depth)
    # only a sample with a boundary digit can fail: elsewhere open and
    # closed sets agree
    boundary = np.flatnonzero((table == BD).any(axis=0))
    near = M.neighbor_lists(delta, rows=boundary).T
    base, width = len(alphabet), near.shape[1]
    # per sample, the number of assignments it needs shown: every word of
    # letters at its m boundary positions but all-b; or width + 1, more
    # than it has neighbours, so it fails without a key
    m = (table[:, boundary] == BD).sum(axis=0)
    needed = np.array([min(base ** k - (BD in alphabet), width + 1)
                       for k in range(depth + 1)])[m]
    keyed = needed <= width
    # one pass per digit row: whether each neighbour agrees (the sample's
    # binary digit, or a letter at its boundary positions), and the word
    # it shows as a base-`base` key, first position most significant; a
    # key is below base ** m <= width + 1, so int32 holds it exactly
    agree = np.ones(near.shape, dtype=bool)
    key = np.zeros(near.shape, dtype=np.int32)
    for row in table:
        row = np.append(row, BOT)  # the pad of `near` agrees with nothing
        x, y = row[boundary], row[near]
        on = x == BD
        agree &= np.where(on[:, None], y < base, y == x[:, None])
        grow = on & keyed
        key *= np.where(grow, base, 1)[:, None]
        key += y * grow[:, None]
    # drop the disagreeing neighbours and the all-b key, 3 ** m - 1
    key[~agree | (key >= needed[:, None])] = -1
    key.sort(axis=1)
    shown = (key[:, :1] >= 0).sum(axis=1) + (
        (key[:, 1:] != key[:, :-1]) & (key[:, 1:] >= 0)).sum(axis=1)
    failing = np.flatnonzero(shown < needed)
    # per violated total sigma, as its bytes of digit codes (whose order
    # is sigma's), its first sample.  After each failing sample only the
    # `keep` smallest sigmas stay, one more than the report lists: a
    # sigma cut has `keep` smaller ones for good.  So a sample's
    # uncovered sigmas, which come in order, are read `keep` at most, and
    # none when its least sigma, 0 at every boundary position, is past
    # the largest kept
    first, keep, largest = {}, _MAX_VIOLATIONS + 1, None
    for p in failing.tolist():
        i = int(boundary[p])
        column = table[:, i].copy()
        at = np.flatnonzero(column == BD)
        column[at] = ZERO
        if largest is not None and column.tobytes() > largest:
            continue
        seen = set(map(tuple, table[np.ix_(at, near[p][agree[p]])].T.tolist()))
        seen.add((BD,) * len(at))
        words = (w for w in itertools.product(alphabet, repeat=len(at))
                 if w not in seen)
        for w in itertools.islice(words, keep):
            column[at] = w
            first.setdefault(column.tobytes(), i)
        if len(first) > keep:
            kept = sorted(first)[:keep]
            first, largest = {q: first[q] for q in kept}, kept[-1]
    patterns = sorted(first)
    violations = []
    for pattern in patterns[:_MAX_VIOLATIONS]:
        i = first[pattern]
        letters = np.frombuffer(pattern, dtype=table.dtype)
        target = (table == letters[:, None]).all(axis=0)  # open set of sigma
        violations.append(Violation(pattern, M.point(i),
                                    _nearest(M, i, target)))
    return CheckReport("fail" if patterns else "pass", kind, depth, delta,
                       M.resolution, violations,
                       truncated=len(patterns) > _MAX_VIOLATIONS,
                       stats={"boundary_samples": len(boundary),
                              "failing_samples": len(failing)})


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
