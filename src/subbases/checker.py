"""Grid-scale verification of properness and strong properness.

The closure identity "S-bar(sigma) equals the closure of S(sigma)" is
tested by a witness surrogate on the sample grid: a point of
S-bar(sigma) must lie within delta of a sample of S(sigma).  A pass
certifies the absence of violations at resolution delta only; a failure
carries self-verifying witnesses.

The checks read the digit code of every sample from `subbase.digit_table`
(re-exported here), the one place where classification is decided.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .seq import (BD, BINARY_DIGITS, DIGITS, ONE, ZERO, BottomedSeq,
                  enumerate_sequences, render)
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


def _masks(table: np.ndarray, sigma: BottomedSeq):
    """Sampled membership of S(sigma) and S-bar(sigma) as boolean arrays."""
    open_mask = np.ones(table.shape[1], dtype=bool)
    closed_mask = np.ones(table.shape[1], dtype=bool)
    for k, a in sigma.items():
        row = table[k]
        hit = row == DIGIT_CODE[a]
        open_mask &= hit
        closed_mask &= hit if a == BD else hit | (row == DIGIT_CODE[BD])
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


def _run_check(S: DyadicSubbase, M: SpaceModel, depth: int, delta,
               alphabet, kind: str) -> CheckReport:
    _check_delta(M, delta)
    if depth > len(S):
        raise IndexError("depth %d exceeds number of cuts %d" % (depth, len(S)))
    table = digit_table(S, M, depth)
    report = CheckReport("pass", kind, depth, delta, M.resolution)
    for sigma in enumerate_sequences(depth, alphabet):
        open_mask, closed_mask = _masks(table, sigma)
        candidates = np.nonzero(closed_mask & ~open_mask)[0]
        for i, nearest in _far_samples(M, candidates, open_mask, delta):
            if not report.add(Violation(sigma, M.sample_points[i], nearest)):
                return report
            break  # first violation per sigma only
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
