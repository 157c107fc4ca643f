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
already empty; only the candidate classes of a complete pattern are
expanded to samples for the nearest scan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .seq import (BD, BINARY_DIGITS, BOT, DIGITS, ONE, ZERO, BottomedSeq,
                  render)
from .space import SpaceModel
from .subbase import DIGIT_CODE, DyadicSubbase, digit_table  # noqa: F401  (re-export)

_SLACK = 1e-9
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


def _letter_masks(row: np.ndarray, a: str):
    """Where a row of digit codes puts the open set of digit a, and where
    its closed set (digit a or, for a binary digit, the boundary)."""
    hit = row == DIGIT_CODE[a]
    return hit, hit if a == BD else hit | (row == DIGIT_CODE[BD])


def _masks(table: np.ndarray, sigma: BottomedSeq):
    """Sampled membership of S(sigma) and S-bar(sigma) as boolean arrays."""
    open_mask = np.ones(table.shape[1], dtype=bool)
    closed_mask = np.ones(table.shape[1], dtype=bool)
    for k, a in sigma.items():
        hit, near = _letter_masks(table[k], a)
        open_mask &= hit
        closed_mask &= near
    return open_mask, closed_mask


def _check_delta(M: SpaceModel, delta):
    if Fraction(delta) < 2 * M.resolution:
        raise CheckerError("delta %s is below twice the grid resolution %s"
                           % (delta, M.resolution))


def _far_samples(M: SpaceModel, samples: np.ndarray, target: np.ndarray, delta):
    """(index, nearest) for each sample with no target sample within delta;
    nearest is the distance to the nearest target sample, None if none."""
    has_target = bool(target.any())
    limit = float(delta) + _SLACK
    for i in samples:
        nearest = None
        if has_target:
            nearest = float(M.distance_row(int(i))[target].min())
            if nearest <= limit:
                continue
        yield int(i), nearest


def _bits(mask: np.ndarray) -> int:
    """A boolean array as an int bitset: bit j is mask[j]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _unbits(bits: int, n: int) -> np.ndarray:
    """The first n bits of an int bitset as a boolean array."""
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def _run_check(S: DyadicSubbase, M: SpaceModel, depth: int, delta,
               alphabet, kind: str) -> CheckReport:
    """Every pattern over alphabet + bottom, in itertools.product order
    (position 0 slowest), with the first far candidate sample of each
    recorded.  Branches with an empty closed set are cut, since no
    extension of them has a candidate."""
    _check_delta(M, delta)
    table = digit_table(S, M, depth)
    codes, inverse = np.unique(table, axis=1, return_inverse=True)
    n_classes = codes.shape[1]
    everything = (1 << n_classes) - 1
    # per position: (letter, open bitset, closed bitset) over code classes
    steps = [[(a, *map(_bits, _letter_masks(row, a))) for a in alphabet]
             + [(BOT, everything, everything)] for row in codes]
    report = CheckReport("pass", kind, depth, delta, M.resolution)
    stats = report.stats
    stats.update(patterns_examined=0, patterns_pruned=0,
                 patterns_with_candidates=0, code_classes=n_classes,
                 candidates_scanned=0)
    word = [BOT] * depth

    def complete(open_bits: int, closed_bits: int) -> bool:
        stats["patterns_examined"] += 1
        candidate_bits = closed_bits & ~open_bits
        if not candidate_bits:
            return True
        stats["patterns_with_candidates"] += 1
        candidates = np.flatnonzero(_unbits(candidate_bits, n_classes)[inverse])
        target = _unbits(open_bits, n_classes)[inverse]
        # first violation per sigma only
        far = next(_far_samples(M, candidates, target, delta), None)
        if far is None:
            stats["candidates_scanned"] += len(candidates)
            return True
        i, nearest = far
        stats["candidates_scanned"] += int(np.searchsorted(candidates, i)) + 1
        sigma = BottomedSeq({k: a for k, a in enumerate(word) if a != BOT})
        return report.add(Violation(sigma, M.sample_points[i], nearest))

    def extend(k: int, open_bits: int, closed_bits: int) -> bool:
        """False once the report is full."""
        if k == depth:
            return complete(open_bits, closed_bits)
        for a, open_k, closed_k in steps[k]:
            closed = closed_bits & closed_k
            if not closed:
                stats["patterns_pruned"] += (len(alphabet) + 1) ** (depth - k - 1)
                continue
            word[k] = a
            if not extend(k + 1, open_bits & open_k, closed):
                return False
        return True

    extend(0, everything, everything)
    return report


def check_proper(S: DyadicSubbase, M: SpaceModel, depth: int, delta) -> CheckReport:
    """Closure identity over sigma with binary digits only."""
    return _run_check(S, M, depth, delta, BINARY_DIGITS, "proper")


def check_strong_proper(S: DyadicSubbase, M: SpaceModel, depth: int,
                        delta) -> CheckReport:
    """Closure identity over sigma allowing boundary digits."""
    if not S.classifies_boundary:
        raise CheckerError("subbase has no boundary classification "
                           "(exact oracle or boundary_tol > 0 required)")
    return _run_check(S, M, depth, delta, DIGITS, "strong-proper")


def check_exterior_pair(S: DyadicSubbase, M: SpaceModel, sigma: BottomedSeq,
                        delta) -> CheckReport:
    """Diagnostic for the exterior characterization of properness.

    S(sigma) and the union of the opposite-digit sets must be the
    exteriors of each other; at grid scale every sample outside one set
    must lie within delta of a sample of the other.
    """
    if not sigma.is_binary():
        raise CheckerError("exterior check requires sigma over {0,1,_}")
    _check_delta(M, delta)
    depth = sigma.length
    table = digit_table(S, M, depth)
    open_mask, _closed = _masks(table, sigma)
    opposite = np.zeros(table.shape[1], dtype=bool)
    for k, a in sigma.items():
        opposite |= table[k] == DIGIT_CODE[ONE if a == ZERO else ZERO]
    report = CheckReport("pass", "exterior", depth, delta, M.resolution)
    # x outside S(sigma) must be close to the opposite union, and vice versa
    for outside, target in ((~open_mask, opposite), (~opposite, open_mask)):
        for i, nearest in _far_samples(M, np.nonzero(outside)[0], target, delta):
            if not report.add(Violation(sigma, M.sample_points[i], nearest)):
                return report
    return report


def report_to_json_file(report: CheckReport, path: str):
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")
