import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subbases.seq import BD, ONE, ZERO
from subbases.space import (MetricError, POINT_AT_INFINITY, _grid,
                            builtin_space, compactified_example, gray_boundary_points,
                            gray_digit, gray_subbase, load_finite_space,
                            validate_metric)
from subbases.subbase import duplicated_subbase, phi
from subbases.seq import render


def cosine_sign_digit(x, n):
    """Floating-point oracle: the sign of -cos(2^n pi x).

    Values within 1e-9 of zero are classified as boundary, since float
    cosine does not hit 0.0 exactly at odd multiples of pi/2.
    """
    v = -math.cos((2 ** n) * math.pi * float(x))
    if abs(v) <= 1e-9:
        return BD
    return ZERO if v < 0 else ONE


def test_gray_digit_examples():
    assert gray_digit(Fraction(1, 4), 1) == BD
    assert gray_digit(Fraction(3, 4), 0) == ONE
    # derived: -cos(pi/3) = -1/2 < 0
    assert cosine_sign_digit(Fraction(1, 3), 0) == ZERO
    assert gray_digit(Fraction(1, 3), 0) == ZERO


def test_gray_digit_domain_error():
    with pytest.raises(ValueError):
        gray_digit(Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        gray_digit(Fraction(-1, 8), 0)


def test_gray_digit_matches_floating_sign():
    rng = random.Random(7)
    for _ in range(2000):
        x = Fraction(rng.randrange(0, 10 ** 6), 10 ** 6)
        n = rng.randrange(0, 21)
        v = math.cos((2 ** n) * math.pi * float(x))
        if abs(v) > 1e-9:
            assert gray_digit(x, n) == cosine_sign_digit(x, n)


def test_gray_boundaries_exact():
    for n in range(6):
        pts = gray_boundary_points(n)
        assert pts == [Fraction(2 * k + 1, 2 ** (n + 1)) for k in range(2 ** n)]
        for p in pts:
            assert gray_digit(p, n) == BD


def test_gray_boundary_disjointness():
    seen = {}
    for n in range(10):
        for p in gray_boundary_points(n):
            assert p not in seen, (p, n, seen[p])
            seen[p] = n


def test_gray_phi_examples():
    G = gray_subbase(8)
    assert render(phi(G, (Fraction(1, 4),), 4), width=4) == "0_10"
    assert render(phi(G, (Fraction(0),), 4), width=4) == "0000"
    # derived from the floating sign oracle at 1/2
    expected = "".join(
        {ZERO: "0", ONE: "1", BD: "_"}[cosine_sign_digit(Fraction(1, 2), n)]
        for n in range(4))
    assert expected == "_100"
    assert render(phi(G, (Fraction(1, 2),), 4), width=4) == "_100"


def test_builtin_interval_grid():
    M = builtin_space("interval", Fraction(1, 8))
    assert len(M.sample_points) == 9
    assert M.sample_points[0] == (Fraction(0),)
    assert M.sample_points[-1] == (Fraction(1),)
    assert M.metric((Fraction(0),), (Fraction(1, 2),)) == Fraction(1, 2)


def test_builtin_square_grid():
    M = builtin_space("square", Fraction(1, 4))
    assert len(M.sample_points) == 25
    d = M.metric((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    assert abs(d - math.sqrt(2)) < 1e-12


def test_builtin_circle_geodesic():
    M = builtin_space("circle", Fraction(1, 8))
    assert len(M.sample_points) == 8
    assert M.metric((Fraction(1, 8),), (Fraction(7, 8),)) == Fraction(1, 4)


def test_builtin_torus():
    M = builtin_space("torus", Fraction(1, 4))
    assert len(M.sample_points) == 16
    d = M.metric((Fraction(0), Fraction(0)), (Fraction(3, 4), Fraction(3, 4)))
    assert abs(d - math.hypot(0.25, 0.25)) < 1e-12


def test_unknown_space():
    with pytest.raises(ValueError):
        builtin_space("moebius", Fraction(1, 8))


def test_resolution_covers_finer_grid():
    for name in ("interval", "circle"):
        M = builtin_space(name, Fraction(1, 16))
        fine = builtin_space(name, Fraction(1, 32))
        for x in fine.sample_points:
            assert min(M.metric(x, y) for y in M.sample_points) <= M.resolution


def test_finite_space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "points": [[0], [1], [2]],
        "metric": [[0, 5, 4], [5, 0, 2], [4, 2, 0]],
    }))
    M = load_finite_space(str(path))
    assert len(M.sample_points) == 3
    assert M.metric((Fraction(0),), (Fraction(1),)) == 5


def test_finite_space_rejects_bad_metric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "points": [[0], [1], [2]],
        "metric": [[0, 5, 1], [5, 0, 2], [1, 2, 0]],  # 5 > 1 + 2
    }))
    with pytest.raises(MetricError):
        load_finite_space(str(path))


def test_validate_metric_axioms():
    pts = [(Fraction(k),) for k in range(5)]
    validate_metric(pts, lambda a, b: abs(a[0] - b[0]))
    with pytest.raises(MetricError):
        validate_metric(pts, lambda a, b: a[0] - b[0])  # asymmetric


def reference_grid(resolution, half_open=False):
    """The grid by repeated addition of the resolution."""
    pts = []
    x = Fraction(0)
    while x < 1 or (not half_open and x == 1):
        pts.append(x)
        x += resolution
    return pts


@pytest.mark.parametrize("half_open", (False, True))
def test_grid_matches_repeated_addition(half_open):
    for q in range(1, 61):
        for p in range(1, q + 1):
            res = Fraction(p, q)
            assert _grid(res, half_open) == reference_grid(res, half_open)


def reference_validate_metric(points, metric):
    """validate_metric as a plain triple loop over the metric's values."""
    pts = list(points)
    n = len(pts)
    d = [[metric(a, b) for b in pts] for a in pts]
    for i in range(n):
        if d[i][i] != 0:
            raise MetricError("d(x,x) != 0 at point %d" % i)
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise MetricError("asymmetric at (%d, %d)" % (i, j))
            if d[i][j] <= 0:
                raise MetricError("non-positive distance between distinct "
                                  "points %d, %d" % (i, j))
    slack = 1e-9
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k] + slack:
                    raise MetricError("triangle inequality fails at "
                                      "(%d, %d, %d)" % (i, j, k))


def _outcome(check, points, metric):
    try:
        check(points, metric)
    except MetricError as exc:
        return str(exc)
    return None


# offsets from the 1e-9 slack: far below it, within an ulp either way,
# exactly the double nearest 1e-9, and past it
_SLACK_OFFSETS = (Fraction(-1, 10 ** 6), Fraction(1, 10 ** 9) - Fraction(1, 10 ** 26),
                  Fraction(1, 10 ** 9), Fraction(1e-9), Fraction(1e-9) + Fraction(1, 10 ** 30),
                  Fraction(1, 10 ** 9) + Fraction(1, 10 ** 24), Fraction(3, 10 ** 9))


@st.composite
def metric_matrices(draw):
    """Path metrics on random rationals, whose triangles are tight, scaled
    up to 10^6 so that float rounding matters, with some pairs pushed off
    by amounts straddling the 1e-9 slack; random integer matrices, which
    often fail; and a broken diagonal, symmetry or positivity."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        xs = draw(st.lists(st.fractions(0, 10, max_denominator=97), min_size=n,
                           max_size=n, unique=True))
        scale = draw(st.sampled_from((1, 10 ** 3, 10 ** 6)))
        mat = [[abs(a - b) * scale for b in xs] for a in xs]
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            off = draw(st.sampled_from(_SLACK_OFFSETS))
            mat[i][k] = mat[k][i] = mat[i][k] + off
    else:
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for k in range(i + 1, n):
                mat[i][k] = mat[k][i] = draw(st.integers(1, 9))
    flaw = draw(st.sampled_from((None, None, None, "diag", "asym", "zero")))
    if flaw and n > 1:
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        if flaw == "diag":
            mat[i][i] = 1
        elif flaw == "asym":
            mat[i][k] += 1
        else:
            mat[i][k] = mat[k][i] = 0
    if draw(st.booleans()):
        mat = [[float(v) for v in row] for row in mat]
    return mat


@settings(max_examples=300, deadline=None)
@given(metric_matrices())
def test_validate_metric_matches_the_triple_loop(mat):
    points = [(Fraction(i),) for i in range(len(mat))]

    def metric(a, b):
        return mat[int(a[0])][int(b[0])]

    assert (_outcome(validate_metric, points, metric)
            == _outcome(reference_validate_metric, points, metric))


def test_validate_metric_names_the_first_failing_triple():
    # (0, 2, 1) and (1, 2, 0) fail: 20 > 1 + 1
    mat = [[0, 20, 1], [20, 0, 1], [1, 1, 0]]
    with pytest.raises(MetricError, match=r"fails at \(0, 2, 1\)"):
        validate_metric(range(3), lambda a, b: mat[a][b])
    slack = [[0, 1, Fraction(2) + Fraction(1, 10 ** 9)],
             [1, 0, 1], [Fraction(2) + Fraction(1, 10 ** 9), 1, 0]]
    validate_metric(range(3), lambda a, b: slack[a][b])  # within the slack
    slack[0][2] = slack[2][0] = Fraction(2) + Fraction(2, 10 ** 9)
    with pytest.raises(MetricError, match=r"fails at \(0, 1, 2\)"):
        validate_metric(range(3), lambda a, b: slack[a][b])


def test_compactified_digits():
    M, S = compactified_example(Fraction(1, 64))
    assert render(phi(S, POINT_AT_INFINITY, 4), width=4) == "__10"
    # 1/8 sits on the index-2 cut: -cos(4 pi / 8) = 0, so that digit is
    # unclassified and phi shows bottom there
    assert cosine_sign_digit(Fraction(1, 8), 2) == BD
    assert render(phi(S, (Fraction(1, 8),), 4), width=4) == "00_1"
    # p is in neither open set of the first two pairs
    assert S.digit(0, POINT_AT_INFINITY) == BD
    assert S.digit(1, POINT_AT_INFINITY) == BD
    assert S.digit(2, POINT_AT_INFINITY) == ONE
    for n in range(3, 8):
        assert S.digit(n, POINT_AT_INFINITY) == ZERO


def test_compactified_model_excludes_quarters():
    M, _ = compactified_example(Fraction(1, 64))
    xs = [p for p in M.sample_points if p is not POINT_AT_INFINITY]
    assert (Fraction(1, 4),) not in xs
    assert (Fraction(3, 4),) not in xs
    assert POINT_AT_INFINITY in M.sample_points
    # the metric identifies p with the removed points
    assert M.metric((Fraction(15, 64),), POINT_AT_INFINITY) == Fraction(1, 64)
    assert M.metric((Fraction(49, 64),), POINT_AT_INFINITY) == Fraction(1, 64)
    # a short way through p
    d = M.metric((Fraction(15, 64),), (Fraction(49, 64),))
    assert d == Fraction(2, 64)


def test_duplicated_subbase():
    G = gray_subbase(4)
    D = duplicated_subbase(G, 0)
    assert len(D) == 5
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
        assert D.digit(4, (x,)) == D.digit(0, (x,))
    with pytest.raises(IndexError):
        duplicated_subbase(G, 4)
