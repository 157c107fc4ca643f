import json
from fractions import Fraction

import pytest

from subbases.checker import (CheckerError, check_exterior_pair, check_proper,
                              check_strong_proper, report_to_json_file)
from subbases.seq import EMPTY, parse, render
from subbases.space import (POINT_AT_INFINITY, builtin_space,
                            compactified_example, gray_subbase)
from subbases.subbase import (Cut, FunctionalSubbase, duplicated_subbase,
                              member_closed, member_open, permute)


@pytest.fixture(scope="module")
def gray():
    return gray_subbase(8)


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
    S = duplicated_subbase(gray_subbase(4), 0)
    report = check_proper(S, grid256, 5, Fraction(1, 64))
    assert not report.ok
    witnesses = {v.point for v in report.violations}
    assert (Fraction(1, 2),) in witnesses
    # the canonical pattern: 0 at the first copy, 1 at the second
    sigmas = {render(v.sigma, width=5) for v in report.violations}
    assert "0___1" in sigmas


def test_violations_are_self_verifying(grid256):
    S = duplicated_subbase(gray_subbase(4), 0)
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


def test_strong_needs_boundary_classification(grid256):
    cuts = [Cut(f=lambda x: float(x[0]), c=0.5),
            Cut(f=lambda x: abs(float(x[0]) - 0.5), c=0.25)]
    S = FunctionalSubbase(cuts, boundary_tol=0.0)
    with pytest.raises(CheckerError):
        check_strong_proper(S, grid256, 2, Fraction(1, 32))


def test_monotone_in_delta(grid256):
    S = duplicated_subbase(gray_subbase(3), 0)
    small = check_proper(S, grid256, 4, Fraction(1, 64))
    large = check_proper(S, grid256, 4, Fraction(1, 2))
    assert not small.ok
    # a pass at delta implies a pass at larger delta; here both fail at the
    # unreachable empty pattern, whose witness has no sampled member at all
    assert {v.nearest for v in small.violations} == {None}
    assert {v.nearest for v in large.violations} == {None}
    # and on a proper subbase passes stay passes as delta grows
    G = gray_subbase(4)
    assert check_proper(G, grid256, 3, Fraction(1, 64)).ok
    assert check_proper(G, grid256, 3, Fraction(1, 8)).ok


def test_permutation_invariance(grid256):
    G = gray_subbase(4)
    P = permute(G, [2, 0, 3, 1])
    assert check_proper(G, grid256, 4, Fraction(1, 32)).ok
    assert check_proper(P, grid256, 4, Fraction(1, 32)).ok
    D = duplicated_subbase(gray_subbase(3), 0)
    DP = permute(D, [3, 1, 2, 0])
    assert not check_proper(D, grid256, 4, Fraction(1, 32)).ok
    assert not check_proper(DP, grid256, 4, Fraction(1, 32)).ok


def test_strong_pass_implies_proper_pass(gray, grid256):
    strong = check_strong_proper(gray, grid256, 3, Fraction(1, 32))
    proper = check_proper(gray, grid256, 3, Fraction(1, 32))
    assert strong.ok
    assert proper.ok


def test_exterior_pair(gray, grid256):
    assert check_exterior_pair(gray, grid256, parse("0"), Fraction(1, 32)).ok
    assert check_exterior_pair(gray, grid256, EMPTY, Fraction(1, 32)).ok
    S = duplicated_subbase(gray_subbase(4), 0)
    sigma = parse("0___1")
    assert not check_exterior_pair(S, grid256, sigma, Fraction(1, 32)).ok
    with pytest.raises(CheckerError):
        check_exterior_pair(gray, grid256, parse("b"), Fraction(1, 32))


def test_report_json(tmp_path, grid256):
    S = duplicated_subbase(gray_subbase(3), 0)
    report = check_proper(S, grid256, 4, Fraction(1, 32))
    path = tmp_path / "report.json"
    report_to_json_file(report, str(path))
    data = json.loads(path.read_text())
    assert data["verdict"] == "fail"
    assert data["depth"] == 4
    assert data["violations"]
    first = data["violations"][0]
    assert set(first) == {"sigma", "point", "nearest"}
