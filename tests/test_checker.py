import gc
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subbases.checker import (CheckerError, CheckReport, Violation,
                              check_proper, check_strong_proper, digit_table,
                              report_to_json_file)
from subbases.seq import BD, BINARY_DIGITS, DIGITS, ZERO, render
from subbases.space import POINT_AT_INFINITY, SpaceModel, builtin_space
from subbases.subbase import (DistanceCut, DistanceSubbase, DyadicSubbase,
                              GraySubbase, ReindexedSubbase,
                              compactified_example, duplicated_subbase)

from reference import (count_rows, dom, enumerate_sequences, lattice_points,
                       member_closed, member_open, parse, permute,
                       seq_code)


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
    # the canonical pattern, total: 0 at the first copy, 1 at the second,
    # and the binary digits of 1/2 at the other positions
    sigmas = {render(v.sigma, width=5) for v in report.violations}
    assert "01001" in sigmas


def test_violations_are_self_verifying(grid256):
    S = duplicated_subbase(GraySubbase(4), 0)
    delta = Fraction(1, 64)
    report = check_proper(S, grid256, 5, delta)
    for v in report.violations:
        sigma = parse(render(v.sigma))
        assert member_closed(S, sigma, v.point)
        for y in grid256.sample_points:
            if member_open(S, sigma, y):
                assert grid256.metric(v.point, y) > delta


def test_compactified_proper_but_not_strong():
    M, S = compactified_example(Fraction(1, 256))
    assert check_proper(S, M, 3, Fraction(1, 32)).ok
    report = check_strong_proper(S, M, 3, Fraction(1, 32))
    assert not report.ok
    hits = [v for v in report.violations
            if v.sigma[0] == BD and v.sigma[1] == ZERO
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


def test_checks_read_distance_rows_only_for_violations():
    M = builtin_space("interval", Fraction(1, 4096))
    calls = count_rows(M)
    assert check_strong_proper(GraySubbase(9), M, 9, Fraction(1, 512)).ok
    assert calls == []
    # the duplication demo: every violation has an empty open set
    M = builtin_space("interval", Fraction(1, 256))
    calls = count_rows(M)
    report = check_proper(duplicated_subbase(GraySubbase(4), 0), M, 5,
                          Fraction(1, 64))
    assert len(report.violations) == 2 and calls == []
    # a boundary sample 12 steps from the open set of digit 0
    M = builtin_space("interval", Fraction(1, 16))
    calls = count_rows(M)
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


@pytest.mark.parametrize("name", ["square", "torus"])
def test_lattice_violation_names_its_exact_sample(tmp_path, name):
    """A duplicated cut of radius 1/4 around (1/2, 1/2) at 1/16: four grid
    samples lie exactly on its sphere, and the patterns 01 and 10 have an
    empty open set.  Each violation names the first of them in sample
    order, as the tuple of Fractions the sample list holds."""
    res = Fraction(1, 16)
    M = builtin_space(name, res)
    points = lattice_points(name, res)
    centre = points.index((Fraction(1, 2), Fraction(1, 2)))
    S = duplicated_subbase(DistanceSubbase(M, [DistanceCut(centre,
                                                           Fraction(1, 4))]), 0)
    report = check_proper(S, M, 2, 2 * res)
    assert not report.ok
    on_sphere = [x for x in points
                 if sum((c - Fraction(1, 2)) ** 2 for c in x) == Fraction(1, 16)]
    assert len(on_sphere) == 4
    assert [render(v.sigma) for v in report.violations] == ["01", "10"]
    for v in report.violations:
        assert v.point == on_sphere[0] == (Fraction(1, 4), Fraction(1, 2))
        assert all(type(c) is Fraction for c in v.point)
    path = tmp_path / "report.json"
    report_to_json_file(report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "ad6657e51ef7291c208bf5fa49b85c770eb1c9955c161f4ccff1978940ab9cee")


# -- the per-sample cover test against the flat 4^depth loop --------------


def reference_check(S, M, depth, delta, alphabet, kind, total=False):
    """The closure check without pruning: every pattern in
    enumerate_sequences order, masked over every sample, with the first
    candidate sample that has no open sample within delta recorded; with
    `total`, only the patterns that fix every position are recorded.  The
    failing samples are the far candidates of every pattern."""
    table = digit_table(S, M, depth)
    report = CheckReport("pass", kind, depth, delta, M.resolution)
    failing = set()
    for sigma in enumerate_sequences(depth, alphabet):
        open_mask = np.ones(len(M), dtype=bool)
        closed_mask = np.ones(len(M), dtype=bool)
        for k, a in sigma.items():
            open_mask &= table[k] == a
            closed_mask &= (table[k] == a) | ((table[k] == BD) & (a != BD))
        far = []
        for i in np.nonzero(closed_mask & ~open_mask)[0]:
            nearest = None
            if open_mask.any():
                nearest = float(M.distance_row(int(i))[open_mask].min())
                if nearest <= float(delta):
                    continue
            far.append((int(i), nearest))
        failing.update(i for i, _ in far)
        if far and (not total or len(dom(sigma)) == depth):
            report.verdict = "fail"
            if len(report.violations) == 100:
                report.truncated = True
            else:
                i, nearest = far[0]
                report.violations.append(Violation(
                    seq_code(sigma), M.sample_points[i], nearest))
    report.stats.update(boundary_samples=int((table == BD).any(axis=0).sum()),
                        failing_samples=len(failing))
    return report


def both_checks(S, M, depth, delta, total=True):
    return ((check_proper(S, M, depth, delta),
             reference_check(S, M, depth, delta, BINARY_DIGITS, "proper",
                             total)),
            (check_strong_proper(S, M, depth, delta),
             reference_check(S, M, depth, delta, DIGITS, "strong-proper",
                             total)))


class TableSubbase(DyadicSubbase):
    """A subbase whose digits at the samples of M are the given rows."""

    def __init__(self, M, rows):
        self.index = {x: i for i, x in enumerate(M.sample_points)}
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def digit(self, n: int, x) -> int:
        self._check_index(n)
        return int(self.rows[n][self.index[x]])


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
    """(S, M, depth, delta): random digit tables on every lattice (2-D
    stencils, periodic seams), Gray views (duplicated pairs fail) and
    distance subbases on finite spaces."""
    kind = draw(st.sampled_from(("table", "gray", "distance")))
    if kind == "table":
        name = draw(st.sampled_from(("interval", "circle", "square", "torus")))
        q = draw(st.integers(4, 20) if name in ("interval", "circle")
                 else st.integers(2, 5))
        M = builtin_space(name, Fraction(1, q))
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
        assert report.stats == reference.stats
    for report, reference in both_checks(S, M, depth, delta, total=False):
        assert report.verdict == reference.verdict


def test_truncation_matches_flat_reference():
    """Two isolated samples, each with six boundary positions and its own
    last binary digit: 63 binary and 727 strong uncovered total patterns
    each, which interleave in pattern order."""
    M = builtin_space("interval", Fraction(1, 16))
    rows = [[BD if i in (4, 12) else 0 for i in range(17)]] * 6
    S = TableSubbase(M, rows + [[0] * 9 + [1] * 8])
    for report, reference in both_checks(S, M, 7, Fraction(1, 8)):
        assert report.truncated and len(report.violations) == 100
        assert report.to_json() == reference.to_json()
        assert report.stats == reference.stats == {"boundary_samples": 2,
                                                   "failing_samples": 2}
        assert [v.point for v in report.violations[:2]] == [
            (Fraction(4, 16),), (Fraction(12, 16),)]


def test_lone_sample_truncates():
    """Eight copies of Gray digit 0: 1/2 alone has boundary digits, and
    254 binary total patterns that its neighbours do not show."""
    M = builtin_space("interval", Fraction(1, 256))
    S = ReindexedSubbase(GraySubbase(8), [0] * 8)
    for report, reference in both_checks(S, M, 8, Fraction(1, 64)):
        assert report.truncated and len(report.violations) == 100
        assert report.stats == {"boundary_samples": 1, "failing_samples": 1}
        assert report.to_json() == reference.to_json()


def test_deep_check_is_exact(grid256):
    """Depth 82, 41 copies each of Gray digits 1 and 0: 1/4 and 3/4 have
    41 boundary positions, and 3^41 words overflow an int64.  Their
    neighbours show only the constant words, so the k-th uncovered word
    is k in base 2 or 3; the two samples' patterns alternate, with 1/4's
    binary tail of zeros first."""
    S = ReindexedSubbase(GraySubbase(8), [1] * 41 + [0] * 41)
    for check, base in ((check_proper, 2), (check_strong_proper, 3)):
        report = check(S, grid256, 82, Fraction(1, 64))
        assert report.stats == {"boundary_samples": 3, "failing_samples": 3}
        assert report.truncated
        words = [np.base_repr(k, base).zfill(41).replace("2", "b")
                 for k in range(1, 51)]
        assert [(render(v.sigma), v.point) for v in report.violations] == [
            (w + tail, (x,)) for w in words
            for tail, x in (("0" * 41, Fraction(1, 4)),
                            ("1" * 41, Fraction(3, 4)))]
        assert {v.nearest for v in report.violations} == {None}


def test_cover_test_memory():
    """Gray at 1/32768 with delta = 1/2048, depth 14: 16,383 boundary
    samples x 32 neighbour slots.  The cover test holds `near`, `agree`
    and one int32 class key per slot, and gathers each digit row as int8:
    the check measured an 8.2 MB tracemalloc peak, 10.4 MB with int64
    class keys and 14.6 MB with the base-3 word keys and int64 rows."""
    M = builtin_space("interval", Fraction(1, 32768))
    tracemalloc.start()
    try:
        report = check_strong_proper(GraySubbase(20), M, 14, Fraction(1, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.stats == {"boundary_samples": 16383, "failing_samples": 0}
    assert peak < 9_300_000


def test_stats_count_boundary_and_failing_samples(grid256):
    report = check_strong_proper(GraySubbase(8), grid256, 5, Fraction(1, 32))
    assert report.stats == {"boundary_samples": 31, "failing_samples": 0}
    assert "stats" not in report.to_json()
    proper = check_proper(duplicated_subbase(GraySubbase(4), 0), grid256, 5,
                          Fraction(1, 64))
    assert proper.stats == {"boundary_samples": 15, "failing_samples": 1}


def test_gray_depth_9_stats():
    """Gray at 1/4096 with delta = 1/512: the 511 samples with a boundary
    digit in the first 9 positions all pass.  At depth 12 every sample but
    0 and 1 has one, and each fails: no sample lies inside a cell of
    width 1/4096, so no total pattern's open set holds one."""
    M = builtin_space("interval", Fraction(1, 4096))
    report = check_strong_proper(GraySubbase(12), M, 9, Fraction(1, 512))
    assert report.verdict == "pass"
    assert report.stats == {"boundary_samples": 511, "failing_samples": 0}
    report = check_strong_proper(GraySubbase(12), M, 12, Fraction(1, 512))
    assert report.verdict == "fail" and report.truncated
    assert report.stats == {"boundary_samples": 4095, "failing_samples": 4095}


def test_checks_leave_no_reference_cycle(grid256):
    """A check's search state is freed by reference counting alone: with
    the cyclic collector off, nothing is left for it to find, after a
    passing check and after one that stops on a full report."""
    truncating = ReindexedSubbase(GraySubbase(8), [0] * 8)
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
