import json
import random
from fractions import Fraction

import numpy as np
import pytest

from subbases.builder import (AvoidSet, BuilderParams, Exhaustion,
                              base_interval, build, candidate, choose_cut,
                              collect_avoid, positive_rational,
                              separation_fraction, unpair)
from subbases.checker import check_proper, check_strong_proper
from subbases.seq import ONE, ZERO
from subbases.space import builtin_space
from subbases.subbase import DistanceCut, DistanceSubbase


def test_unpair_convention():
    assert unpair(0) == (0, 0)
    assert unpair(1) == (0, 1)
    assert unpair(2) == (1, 0)


def test_unpair_surjective():
    seen = {unpair(n) for n in range(500)}
    for i in range(10):
        for j in range(10):
            assert (i, j) in seen


def test_positive_rationals_enumerate_all():
    vals = [positive_rational(i) for i in range(64)]
    assert vals[0] == 1
    assert len(set(vals)) == len(vals)
    assert Fraction(1, 2) in vals and Fraction(3, 2) in vals


def test_base_intervals_positive():
    for m in range(100):
        lo, hi = base_interval(m)
        assert 0 <= lo < hi


def test_candidate_distance_function():
    M = builtin_space("interval", Fraction(1, 16))
    center_index, interval = candidate(M, 0)
    assert center_index == M.dense_index(0)
    assert interval == base_interval(0)
    # the candidate's cut function is the distance to its centre
    c = Fraction(5, 16) + Fraction(1, 1000)
    S = DistanceSubbase(M, [DistanceCut(center_index, c)])
    center = M.sample_points[center_index]
    assert S.digit(0, center) == ZERO
    for x in M.sample_points:
        assert S.digit(0, x) == (ZERO if M.metric(center, x) < c else ONE)


def test_candidate_uses_unpairing():
    M = builtin_space("interval", Fraction(1, 16))
    center_index, _ = candidate(M, 2)  # unpair(2) = (1, 0): second dense point
    assert center_index == M.dense_index(1)


def test_choose_cut_contract():
    params = BuilderParams(count=1, avoid_margin=Fraction(1, 100))
    rng = random.Random(0)
    avoid = AvoidSet([(0.5, "t")])
    c = choose_cut((Fraction(2, 5), Fraction(3, 5)), avoid, params, rng)
    assert Fraction(2, 5) < c < Fraction(3, 5)
    assert abs(float(c) - 0.5) >= 0.01 - 1e-9


def test_choose_cut_empty_avoid_first_draw():
    params = BuilderParams(count=1)
    c1 = choose_cut((Fraction(0), Fraction(1)), AvoidSet(), params,
                    random.Random(5))
    c2_rng = random.Random(5)
    c2 = choose_cut((Fraction(0), Fraction(1)), AvoidSet(), params, c2_rng)
    assert c1 == c2


def test_choose_cut_exhaustion():
    params = BuilderParams(count=1, avoid_margin=Fraction(1, 50),
                           max_retries=20)
    avoid = AvoidSet([(0.5, "t")])
    with pytest.raises(Exhaustion):
        choose_cut((Fraction(49, 100), Fraction(51, 100)), avoid, params,
                   random.Random(0))


def test_collect_avoid_distance_endpoints():
    M = builtin_space("interval", Fraction(1, 16))
    center_index, _ = candidate(M, 0)
    f_vals = M.distance_row(center_index)
    table = np.empty((0, len(M.sample_points)), dtype=np.int8)
    params = BuilderParams(count=1)
    avoid = collect_avoid(M, table, f_vals, 0, False, params,
                          M.neighbor_lists(2 * M.resolution))
    vals = {v for v, _ in avoid.values}
    assert 0.0 in vals          # the minimum at the center itself
    assert float(f_vals.max()) in vals


def test_build_empty():
    M = builtin_space("interval", Fraction(1, 16))
    res = build(M, BuilderParams(count=0))
    assert len(res.subbase) == 0
    assert check_proper(res.subbase, M, 0, Fraction(1, 4)).ok


def test_build_deterministic():
    M = builtin_space("interval", Fraction(1, 32))
    p = BuilderParams(count=6, rng_seed=11)
    a = build(M, p)
    b = build(builtin_space("interval", Fraction(1, 32)), p)
    assert [c.c for c in a.subbase.cuts] == [c.c for c in b.subbase.cuts]
    assert [c.center_index for c in a.subbase.cuts] == \
        [c.center_index for c in b.subbase.cuts]


def test_build_cut_in_interval_and_away_from_avoid():
    M = builtin_space("interval", Fraction(1, 32))
    p = BuilderParams(count=6, rng_seed=3)
    res = build(M, p)
    for rec in res.log:
        lo, hi = rec.interval
        assert lo < rec.c < hi


def test_build_interval_passes_checker():
    M = builtin_space("interval", Fraction(1, 32))
    res = build(M, BuilderParams(count=8, strong=False, rng_seed=42))
    assert check_proper(res.subbase, M, 4, 2 * M.resolution).ok


def test_build_square_strong_passes_checker():
    M = builtin_space("square", Fraction(1, 16))
    res = build(M, BuilderParams(count=10, strong=True, rng_seed=7))
    assert check_strong_proper(res.subbase, M, 3, 2 * M.resolution).ok


def test_build_log_shape():
    M = builtin_space("interval", Fraction(1, 32))
    res = build(M, BuilderParams(count=4, rng_seed=1))
    lines = res.log_lines().splitlines()
    assert len(lines) == 4
    for n, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["n"] == n
        assert set(rec) == {"n", "n0", "interval", "avoid_count", "c_n",
                            "retries"}


def test_separation_grows_with_count():
    M = builtin_space("interval", Fraction(1, 32))
    few = build(M, BuilderParams(count=2, rng_seed=0)).separation
    many = build(builtin_space("interval", Fraction(1, 32)),
                 BuilderParams(count=10, rng_seed=0)).separation
    assert many >= few
    assert many > 0.5


def test_separation_fraction_basic():
    table = np.array([[0, 0, 1, 1]], dtype=np.int8)
    assert separation_fraction(table) == pytest.approx(4 / 6)
