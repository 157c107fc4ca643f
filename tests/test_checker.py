import gc
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subbases.checker import (CheckerError, CheckReport, Violation,
                              check_proper, check_strong_proper, digit_table,
                              report_to_json_file)
from subbases.seq import BD, BINARY_DIGITS, DIGITS, render
from subbases.space import POINT_AT_INFINITY, SpaceModel, builtin_space
from subbases.subbase import (CODE_DIGIT, DIGIT_CODE, DistanceCut,
                              DistanceSubbase, DyadicSubbase, GraySubbase,
                              ReindexedSubbase, compactified_example,
                              duplicated_subbase, member_closed, member_open,
                              permute)

from reference import enumerate_sequences


@pytest.fixture(scope="module")
def gray():
    return GraySubbase(8)


@pytest.fixture(scope="module")
def grid256():
    return builtin_space("interval", Fraction(1, 256))


def test_gray_proper_passes(gray, grid256):
    report = check_proper(gray, grid256, 3, Fraction(1, 64))
    assert report.ok and not report.violations


def test_gray_strong_passes(gray, grid256):
    report = check_strong_proper(gray, grid256, 3, Fraction(1, 32))
    assert report.ok


def test_depth_zero_vacuous(gray, grid256):
    assert check_proper(gray, grid256, 0, Fraction(1, 2)).ok


def test_delta_precondition(gray):
    M = builtin_space("interval", Fraction(1, 8))
    with pytest.raises(CheckerError):
        check_proper(gray, M, 2, Fraction(1, 16))


def test_duplication_fails_with_witness_half(gray, grid256):
    S = duplicated_subbase(GraySubbase(4), 0)
    report = check_proper(S, grid256, 5, Fraction(1, 64))
    assert not report.ok
    witnesses = {v.point for v in report.violations}
    assert (Fraction(1, 2),) in witnesses
    # the canonical pattern: 0 at the first copy, 1 at the second
    sigmas = {render(v.sigma, width=5) for v in report.violations}
    assert "0___1" in sigmas


def test_violations_are_self_verifying(grid256):
    S = duplicated_subbase(GraySubbase(4), 0)
    delta = Fraction(1, 64)
    report = check_proper(S, grid256, 5, delta)
    for v in report.violations:
        assert member_closed(S, v.sigma, v.point)
        for y in grid256.sample_points:
            if member_open(S, v.sigma, y):
                assert grid256.metric(v.point, y) > delta


def test_compactified_proper_but_not_strong():
    M, S = compactified_example(Fraction(1, 256))
    assert check_proper(S, M, 3, Fraction(1, 32)).ok
    report = check_strong_proper(S, M, 3, Fraction(1, 32))
    assert not report.ok
    hits = [v for v in report.violations
            if v.sigma[0] == "b" and v.sigma[1] == "0"
            and v.point is POINT_AT_INFINITY]
    assert hits


def test_monotone_in_delta(grid256):
    S = duplicated_subbase(GraySubbase(3), 0)
    small = check_proper(S, grid256, 4, Fraction(1, 64))
    large = check_proper(S, grid256, 4, Fraction(1, 2))
    assert not small.ok
    # a pass at delta implies a pass at larger delta; here both fail at the
    # unreachable empty pattern, whose witness has no sampled member at all
    assert {v.nearest for v in small.violations} == {None}
    assert {v.nearest for v in large.violations} == {None}
    # and on a proper subbase passes stay passes as delta grows
    G = GraySubbase(4)
    assert check_proper(G, grid256, 3, Fraction(1, 64)).ok
    assert check_proper(G, grid256, 3, Fraction(1, 8)).ok


def test_permutation_invariance(grid256):
    G = GraySubbase(4)
    P = permute(G, [2, 0, 3, 1])
    assert check_proper(G, grid256, 4, Fraction(1, 32)).ok
    assert check_proper(P, grid256, 4, Fraction(1, 32)).ok
    D = duplicated_subbase(GraySubbase(3), 0)
    DP = permute(D, [3, 1, 2, 0])
    assert not check_proper(D, grid256, 4, Fraction(1, 32)).ok
    assert not check_proper(DP, grid256, 4, Fraction(1, 32)).ok


def test_strong_pass_implies_proper_pass(gray, grid256):
    strong = check_strong_proper(gray, grid256, 3, Fraction(1, 32))
    proper = check_proper(gray, grid256, 3, Fraction(1, 32))
    assert strong.ok
    assert proper.ok


def _count_rows(M):
    calls = []
    row = M.distance_row
    M.distance_row = lambda i: calls.append(i) or row(i)
    return calls


def test_checks_read_distance_rows_only_for_violations():
    M = builtin_space("interval", Fraction(1, 4096))
    calls = _count_rows(M)
    assert check_strong_proper(GraySubbase(9), M, 9, Fraction(1, 512)).ok
    assert calls == []
    # the duplication demo: every violation has an empty open set
    M = builtin_space("interval", Fraction(1, 256))
    calls = _count_rows(M)
    report = check_proper(duplicated_subbase(GraySubbase(4), 0), M, 5,
                          Fraction(1, 64))
    assert len(report.violations) == 16 and calls == []
    # a boundary sample 12 steps from the open set of digit 0
    M = builtin_space("interval", Fraction(1, 16))
    calls = _count_rows(M)
    report = check_proper(TableSubbase(M, [[0] * 3 + [1] * 11 + [2, 1, 1]]),
                          M, 1, Fraction(1, 8))
    assert [(v.point, v.nearest) for v in report.violations] == [
        ((Fraction(14, 16),), 0.75)]
    assert calls == [14]


def test_report_json(tmp_path, grid256):
    S = duplicated_subbase(GraySubbase(3), 0)
    report = check_proper(S, grid256, 4, Fraction(1, 32))
    path = tmp_path / "report.json"
    report_to_json_file(report, str(path))
    data = json.loads(path.read_text())
    assert data["verdict"] == "fail"
    assert data["depth"] == 4
    assert data["violations"]
    first = data["violations"][0]
    assert set(first) == {"sigma", "point", "nearest"}


# -- the pruned pattern search against the flat 4^depth loop ---------------


def reference_check(S, M, depth, delta, alphabet, kind):
    """The closure check without pruning: every pattern in
    enumerate_sequences order, masked over every sample, with the first
    candidate sample that has no open sample within delta recorded."""
    table = digit_table(S, M, depth)
    report = CheckReport("pass", kind, depth, delta, M.resolution)
    stats = report.stats
    stats.update(patterns_with_candidates=0, candidates_scanned=0)
    for sigma in enumerate_sequences(depth, alphabet):
        open_mask = np.ones(len(M), dtype=bool)
        closed_mask = np.ones(len(M), dtype=bool)
        for k, a in sigma.items():
            open_mask &= table[k] == DIGIT_CODE[a]
            closed_mask &= (table[k] == DIGIT_CODE[a]) | (
                (table[k] == DIGIT_CODE[BD]) & (a != BD))
        candidates = np.nonzero(closed_mask & ~open_mask)[0]
        stats["patterns_with_candidates"] += bool(len(candidates))
        for i in candidates:
            stats["candidates_scanned"] += 1
            nearest = None
            if open_mask.any():
                nearest = float(M.distance_row(int(i))[open_mask].min())
                if nearest <= float(delta) + 1e-9:
                    continue
            if not report.add(Violation(sigma, M.sample_points[i], nearest)):
                return report
            break
    return report


def both_checks(S, M, depth, delta):
    return ((check_proper(S, M, depth, delta),
             reference_check(S, M, depth, delta, BINARY_DIGITS, "proper")),
            (check_strong_proper(S, M, depth, delta),
             reference_check(S, M, depth, delta, DIGITS, "strong-proper")))


class TableSubbase(DyadicSubbase):
    """A subbase whose digits at the samples of M are the given rows."""

    def __init__(self, M, rows):
        self.index = {x: i for i, x in enumerate(M.sample_points)}
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def digit(self, n: int, x) -> str:
        self._check_index(n)
        return CODE_DIGIT[self.rows[n][self.index[x]]]


def grid_space(points):
    """A finite space of integer plane points at scale 1/8, in the given
    order, with the Euclidean metric."""
    pts = [(Fraction(a, 8), Fraction(b, 8)) for a, b in points]
    coords = np.array([[float(a), float(b)] for a, b in pts])

    def metric(p, q):
        return math.hypot(float(p[0]) - float(q[0]), float(p[1]) - float(q[1]))

    distances = np.sqrt(((coords[None] - coords[:, None]) ** 2).sum(axis=-1))
    return SpaceModel("finite", pts, metric, Fraction(1, 16), distances=distances)


@st.composite
def distance_cases(draw):
    """Integer plane points, distance cuts at radii that put samples on
    the boundary, a depth and a delta."""
    points = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           min_size=1, max_size=24, unique=True))
    cuts = draw(st.lists(st.tuples(st.integers(0, len(points) - 1),
                                   st.integers(1, 12)),
                         min_size=1, max_size=5))
    depth = draw(st.integers(0, len(cuts)))
    delta = draw(st.sampled_from((Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))))
    return points, [DistanceCut(i, Fraction(r, 8)) for i, r in cuts], depth, delta


@st.composite
def check_cases(draw):
    """(S, M, depth, delta): random digit tables, Gray views (duplicated
    pairs fail) and distance subbases on finite spaces."""
    kind = draw(st.sampled_from(("table", "gray", "distance")))
    if kind == "table":
        M = builtin_space("interval", Fraction(1, draw(st.integers(4, 20))))
        depth = draw(st.integers(0, 5))
        rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=len(M),
                                      max_size=len(M)),
                             min_size=depth, max_size=depth))
        delta = 2 * M.resolution * draw(st.integers(1, 4))
        return TableSubbase(M, rows), M, depth, delta
    if kind == "gray":
        M = builtin_space("interval", Fraction(1, 64))
        index_map = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
        S = ReindexedSubbase(GraySubbase(5), index_map)
        return (S, M, draw(st.integers(0, len(S))),
                draw(st.sampled_from((Fraction(1, 32), Fraction(1, 8)))))
    points, cuts, depth, delta = draw(distance_cases())
    M = grid_space(points)
    return DistanceSubbase(M, cuts), M, depth, delta


@settings(max_examples=80, deadline=None)
@given(check_cases())
def test_checks_match_flat_reference(case):
    S, M, depth, delta = case
    for report, reference in both_checks(S, M, depth, delta):
        assert report.to_json() == reference.to_json()
        assert report.to_text() == reference.to_text()
        for key, count in reference.stats.items():
            assert report.stats[key] == count


def test_truncation_matches_flat_reference(grid256):
    S = ReindexedSubbase(GraySubbase(8), [0, 0, 1, 1, 2, 2, 3, 3])
    for report, reference in both_checks(S, grid256, 8, Fraction(1, 64)):
        assert report.truncated and len(report.violations) == 100
        assert report.to_json() == reference.to_json()
        for key, count in reference.stats.items():
            assert report.stats[key] == count


def test_stats_count_every_pattern(grid256):
    report = check_strong_proper(GraySubbase(8), grid256, 5, Fraction(1, 32))
    stats = report.stats
    assert stats["patterns_examined"] + stats["patterns_pruned"] == 4 ** 5
    assert stats["patterns_pruned"] > 0
    assert 0 < stats["patterns_with_candidates"] <= stats["patterns_examined"]
    assert stats["code_classes"] == 63
    assert stats["candidates_scanned"] >= stats["patterns_with_candidates"]
    assert "stats" not in report.to_json()
    proper = check_proper(duplicated_subbase(GraySubbase(4), 0), grid256, 5,
                          Fraction(1, 64))
    assert (proper.stats["patterns_examined"] + proper.stats["patterns_pruned"]
            == 3 ** 5)


def test_gray_depth_9_stats():
    """Gray at 1/4096 with delta = 1/512: candidates_scanned counts every
    candidate sample of a passing pattern, 261,632 = 19,682 patterns x
    about 13 samples."""
    M = builtin_space("interval", Fraction(1, 4096))
    report = check_strong_proper(GraySubbase(12), M, 9, Fraction(1, 512))
    assert report.verdict == "pass"
    assert report.stats == {"patterns_examined": 38854,
                            "patterns_pruned": 223290,
                            "patterns_with_candidates": 19682,
                            "code_classes": 1023,
                            "candidates_scanned": 261632}


def test_checks_leave_no_reference_cycle(grid256):
    """A check's search state is freed by reference counting alone: with
    the cyclic collector off, nothing is left for it to find, after a
    passing check and after one that stops on a full report."""
    truncating = ReindexedSubbase(GraySubbase(8), [0, 0, 1, 1, 2, 2, 3, 3])
    cases = ((GraySubbase(8), 5, Fraction(1, 64)),
             (truncating, 8, Fraction(1, 64)))
    for S, depth, delta in cases:
        for check in (check_proper, check_strong_proper):
            gc.collect()
            gc.disable()
            try:
                report = check(S, grid256, depth, delta)
                assert report.ok == (S is cases[0][0])
                del report
                assert gc.collect() == 0
            finally:
                gc.enable()


@settings(max_examples=40, deadline=None)
@given(distance_cases(), st.data())
def test_verdicts_invariant_under_sample_order(case, data):
    points, cuts, depth, delta = case
    order = data.draw(st.permutations(range(len(points))))
    M = grid_space(points)
    shuffled = grid_space([points[i] for i in order])
    new_index = {old: new for new, old in enumerate(order)}
    S = DistanceSubbase(M, cuts)
    T = DistanceSubbase(shuffled, [DistanceCut(new_index[c.center_index], c.c)
                                   for c in cuts])
    for check in (check_proper, check_strong_proper):
        a, b = check(S, M, depth, delta), check(T, shuffled, depth, delta)
        assert a.verdict == b.verdict
        assert ({render(v.sigma) for v in a.violations}
                == {render(v.sigma) for v in b.violations})
