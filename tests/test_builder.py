import collections
import functools
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import subbases
from subbases import builder
from subbases.builder import (_EPS, _REGION_BLOCK, AVOID_MARGIN, MAX_RETRIES,
                              REGION_SUPPORT, AvoidSet, Exhaustion, _centre,
                              _region_extrema, base_interval, build,
                              choose_cut, collect_avoid,
                              positive_rational, separation_fraction, unpair)
from subbases.checker import check_proper, check_strong_proper
from subbases.seq import BD, BINARY_DIGITS, ONE, ZERO
from subbases.space import SpaceModel, builtin_space, compactified_space
from subbases.subbase import DistanceCut, DistanceSubbase

from reference import (BottomedSeq, count_rows, pattern_masks, per_sample,
                       table_codes)


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
    center_index = M.dense_index(unpair(0)[0])
    assert center_index == M.dense_index(0)
    assert base_interval(unpair(0)[1]) == base_interval(0)
    # a cut of step 0 is the distance to its centre
    c = Fraction(5, 16) + Fraction(1, 1000)
    S = DistanceSubbase(M, [DistanceCut(center_index, c)])
    center = M.sample_points[center_index]
    assert S.digit(0, center) == ZERO
    for x in M.sample_points:
        assert S.digit(0, x) == (ZERO if M.metric(center, x) < c else ONE)


def test_candidate_uses_unpairing():
    M = builtin_space("interval", Fraction(1, 16))
    # unpair(2) = (1, 0): the second dense point and the first base interval
    assert M.dense_index(unpair(2)[0]) == M.dense_index(1)
    assert base_interval(unpair(2)[1]) == base_interval(0)


def test_choose_cut_contract():
    assert AVOID_MARGIN == Fraction(1, 1000) and MAX_RETRIES == 64
    avoid = AvoidSet([(0.5, "t")])
    for seed in range(20):
        # half the interval lies within the margin of 0.5: draws get rejected
        c = choose_cut((Fraction(499, 1000), Fraction(503, 1000)), avoid,
                       random.Random(seed))
        assert Fraction(499, 1000) < c < Fraction(503, 1000)
        assert abs(float(c) - 0.5) >= 0.001 - 1e-9


def test_choose_cut_empty_avoid_first_draw():
    c1 = choose_cut((Fraction(0), Fraction(1)), AvoidSet(), random.Random(5))
    c2_rng = random.Random(5)
    c2 = choose_cut((Fraction(0), Fraction(1)), AvoidSet(), c2_rng)
    assert c1 == c2


def test_choose_cut_refuses_an_empty_interval():
    with pytest.raises(Exhaustion, match="empty interval"):
        choose_cut((Fraction(1), Fraction(1)), AvoidSet(), random.Random(0))


def test_choose_cut_exhaustion():
    # (0.4995, 0.5005) lies within the margin 1/1000 of the avoided 0.5
    avoid = AvoidSet([(0.5, "t")])
    rng = random.Random(0)
    with pytest.raises(Exhaustion, match="after 64 draws"):
        choose_cut((Fraction(4995, 10000), Fraction(5005, 10000)), avoid, rng)
    # every draw was made: the rng advanced MAX_RETRIES times
    replay = random.Random(0)
    for _ in range(MAX_RETRIES):
        replay.randrange(1, 2 ** 30)
    assert rng.getstate() == replay.getstate()


def test_collect_avoid_distance_endpoints():
    M = builtin_space("interval", Fraction(1, 16))
    table = np.empty((0, len(M.sample_points)), dtype=np.int8)
    nbr = M.neighbor_lists(2 * M.resolution)
    assert nbr.shape == (4, 17) and nbr.dtype == np.int32
    f_vals = M.distance_row(M.dense_index(unpair(0)[0]))
    avoid = collect_avoid(table, _centre(f_vals, nbr), nbr, 2 * M.resolution, False)
    # the minimum 0 at the center and the maximum 1 at the far endpoint,
    # once for the empty pattern's closed set and once for its code
    assert avoid.values == [(0.0, "closed"), (1.0, "closed"),
                            (0.0, "code"), (1.0, "code")]


def test_avoid_set_extend_shares_one_tag():
    avoid = AvoidSet([(0.5, "t")])
    avoid.extend(np.array([0.25, 0.75]), "u")
    avoid.extend(np.array([]), "v")
    assert avoid.values == [(0.5, "t"), (0.25, "u"), (0.75, "u")]
    assert all(type(v) is float for v, _ in avoid.values)


# -- the vectorised avoid set against the per-sample loops ----------------


def reference_neighbor_lists(M, radius):
    """The padded neighbour array from one full distance row per sample:
    the only path of models without a lattice."""
    r = float(radius)
    n = len(M.sample_points)
    rows = [np.flatnonzero(M.distance_row(i) <= r) for i in range(n)]
    rows = [nb[nb != i] for i, nb in enumerate(rows)]
    out = np.full((n, max(map(len, rows), default=0)), n, dtype=np.intp)
    for i, nb in enumerate(rows):
        out[i, :len(nb)] = nb
    return out


def _reference_neighbors(M, radius):
    """Neighbour index lists from full distance rows, one array per sample."""
    return [row[row < len(M)] for row in reference_neighbor_lists(M, radius)]


def _small_support(n, digits, support):
    """Patterns over indices < n fixing at most `support` digits from
    `digits`, the empty pattern first."""
    for size in range(support + 1):
        for ks in itertools.combinations(range(n), size):
            for vals in itertools.product(digits, repeat=size):
                yield BottomedSeq(zip(ks, vals))


def _reference_extrema(f_vals, region, neighbors):
    """The per-sample local extrema loop."""
    out = []
    for i in np.nonzero(region)[0]:
        nb = neighbors[i]
        nb = nb[region[nb]]
        v = f_vals[i]
        if nb.size == 0:
            out.append(float(v))
            continue
        vals = f_vals[nb]
        if v >= vals.max() - _EPS or v <= vals.min() + _EPS:
            out.append(float(v))
    return out


def _reference_avoid(M, table, f_vals, n, strong, neighbors, chosen, cut_vals):
    """collect_avoid with the per-sample loops, region by region, each
    value tagged with its family."""
    out = []
    for sigma in _small_support(n, BINARY_DIGITS, REGION_SUPPORT):
        _, mask = pattern_masks(table, sigma)
        if mask.any():
            out.extend((v, "closed")
                       for v in _reference_extrema(f_vals, mask, neighbors))
    for code in table_codes(table):
        _, mask = pattern_masks(table, code)
        out.extend((v, "code") for v in _reference_extrema(f_vals, mask, neighbors))
    if strong:
        for tau in _small_support(n, (BD,), REGION_SUPPORT):
            _, mask = pattern_masks(table, tau)
            if tau.length and mask.any():
                out.extend((v, "boundary")
                           for v in _reference_extrema(f_vals, mask, neighbors))
        band = 2 * float(M.resolution)
        for c_k, g_vals in zip(chosen, cut_vals):
            for i in range(len(M)):
                nb = neighbors[i]
                if nb.size == 0:
                    continue
                level = nb[np.abs(f_vals[nb] - f_vals[i]) <= band]
                if level.size == 0:
                    continue
                g = g_vals[i]
                if g >= g_vals[level].max() - _EPS or g <= g_vals[level].min() + _EPS:
                    if abs(g - c_k) <= band:
                        out.append((float(f_vals[i]), "interaction"))
    return out


def _finite_space(coords, resolution):
    """Points of the plane with integer coordinates under the L1 metric,
    without a row function, so rows come from the metric itself."""
    pts = [tuple(Fraction(c) for c in p) for p in coords]

    def metric(a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    return SpaceModel("finite", pts, metric, resolution)


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from(("interval", "square", "finite")))
    if kind == "interval":
        return builtin_space("interval", Fraction(1, draw(st.integers(2, 24))))
    if kind == "square":
        return builtin_space("square", Fraction(1, draw(st.integers(2, 8))))
    coords = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           min_size=1, max_size=20, unique=True))
    # 1/4 leaves every sample isolated: a neighbour array of width 0
    return _finite_space(coords, draw(st.sampled_from(
        (Fraction(1, 4), Fraction(1, 2), Fraction(1)))))


@st.composite
def avoid_cases(draw):
    """A space, a random digit table, a cut row and earlier cuts whose
    values sit on a sample's distance on purpose, so interactions occur."""
    M = draw(spaces())
    npts = len(M)
    n = draw(st.integers(0, 4))
    table = np.array(draw(st.lists(st.lists(st.integers(0, 2), min_size=npts,
                                            max_size=npts),
                                   min_size=n, max_size=n)),
                     dtype=np.int8).reshape(n, npts)
    f_vals = M.distance_row(draw(st.integers(0, npts - 1)))
    cut_vals = [M.distance_row(draw(st.integers(0, npts - 1))) for _ in range(n)]
    chosen = [float(g[draw(st.integers(0, npts - 1))])
              + draw(st.sampled_from((0.0, 1e-12, float(M.resolution))))
              for g in cut_vals]
    return M, table, f_vals, n, chosen, cut_vals


def _extrema_by_region(f_vals, member, inverse, nbr):
    """`_region_extrema` of f as one list of values per region."""
    region, sample = _region_extrema(member, inverse, nbr, _centre(f_vals, nbr))
    assert (np.diff(region) >= 0).all()
    return [f_vals[sample[region == r]].tolist() for r in range(len(member))]


@settings(max_examples=60, deadline=None)
@given(spaces(), st.data())
def test_local_extrema_matches_per_sample_loop(M, data):
    """A block of random regions over random code classes, more than one
    64-bit word of them, against the per-sample loop region by region.
    The membership matrix comes from a drawn seed and density: up to
    140 x 81 cells, more than one Hypothesis list may hold."""
    npts = len(M)
    f_vals = M.distance_row(data.draw(st.integers(0, npts - 1)))
    classes = data.draw(st.integers(1, npts))
    inverse = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                          min_size=npts, max_size=npts)))
    regions = data.draw(st.integers(1, 140))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    member = rng.random((regions, classes)) < data.draw(
        st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    nbr = M.neighbor_lists(2 * M.resolution)
    neighbors = _reference_neighbors(M, 2 * M.resolution)
    assert [list(row[row < npts]) for row in per_sample(nbr, npts)] == \
        [list(nb) for nb in neighbors]
    assert _extrema_by_region(f_vals, member, inverse, nbr) == \
        [_reference_extrema(f_vals, row[inverse], neighbors) for row in member]


def _binary_case(n):
    """An avoid case on the 1/8 interval whose n-row table holds no
    boundary digit, so each code's closed set is its own class."""
    M = builtin_space("interval", Fraction(1, 8))
    table = np.array([[0, 0, 1, 1, 0, 1, 0, 1, 1],
                      [1, 0, 0, 1, 1, 0, 0, 1, 0],
                      [0, 0, 0, 0, 1, 1, 1, 1, 0]], dtype=np.int8)[:n]
    cut_vals = [M.distance_row(k) for k in (2, 5, 7)[:n]]
    return M, table, M.distance_row(3), n, [float(g[0]) for g in cut_vals], cut_vals


@settings(max_examples=60, deadline=None)
@given(avoid_cases(), st.booleans())
@example(_binary_case(3), True)
@example(_binary_case(0), False)
def test_collect_avoid_matches_per_sample_loops(case, strong):
    M, table, f_vals, n, chosen, cut_vals = case
    nbr = M.neighbor_lists(2 * M.resolution)
    avoid = collect_avoid(table, _centre(f_vals, nbr), nbr, 2 * M.resolution, strong,
                          [(c, _centre(g, nbr)) for c, g in zip(chosen, cut_vals)])
    reference = _reference_avoid(M, table, f_vals, n, strong,
                                 _reference_neighbors(M, 2 * M.resolution),
                                 chosen, cut_vals)
    assert collections.Counter(avoid.values) == collections.Counter(reference)


def test_local_extrema_empty_and_isolated_regions():
    M = builtin_space("interval", Fraction(1, 16))
    f_vals = M.distance_row(3)
    nbr = M.neighbor_lists(2 * M.resolution)
    # samples 0 and 8 have no region neighbour within 2/16: both extremal
    region = np.zeros(17, dtype=bool)
    region[[0, 8, 12, 13, 14]] = True
    member = np.array([np.zeros(17, dtype=bool), region])
    assert _extrema_by_region(f_vals, member, np.arange(17), nbr) == \
        [[], [f_vals[0], f_vals[8], f_vals[12], f_vals[14]]]


@pytest.mark.parametrize("M, f_centre, g_centre, c, hit", [
    # the earlier cut is the distance to the square's centre (sample 40)
    # with the value 1/8, within the band 2/8 of its minimum 0 at the
    # centre; the new cut is the distance to the corner (sample 0)
    (builtin_space("square", Fraction(1, 8)), 0, 40, 0.125, 40),
    # no sample has a neighbour within the band 1/2: no interaction, even
    # where the earlier cut's value sits on a sample's distance
    (_finite_space([(0, 0), (0, 2), (3, 1)], Fraction(1, 4)), 0, 1, 2.0, None),
])
def test_collect_avoid_interaction_hits(M, f_centre, g_centre, c, hit):
    f_vals, g_vals = M.distance_row(f_centre), M.distance_row(g_centre)
    table = np.zeros((1, len(M)), dtype=np.int8)
    nbr = M.neighbor_lists(2 * M.resolution)
    avoid = collect_avoid(table, _centre(f_vals, nbr), nbr, 2 * M.resolution,
                          True, [(c, _centre(g_vals, nbr))])
    hits = [(v, t) for v, t in avoid.values if t == "interaction"]
    assert hits == ([] if hit is None else [(float(f_vals[hit]), "interaction")])
    reference = _reference_avoid(M, table, f_vals, 1, True,
                                 _reference_neighbors(M, 2 * M.resolution),
                                 [c], [g_vals])
    assert collections.Counter(avoid.values) == collections.Counter(reference)


def _interaction_hits(f_vals, g_vals, nbr, band, c):
    """The samples whose f value `collect_avoid` adds as an interaction of
    f with the earlier cut g = c (f's values distinct), checked against the
    boolean slot rule and against a masked max and min over the gathered
    slots x samples values of g."""
    samples = len(f_vals)
    table = np.zeros((0, samples), dtype=np.int8)
    avoid = collect_avoid(table, _centre(f_vals, nbr), nbr, band, True,
                          [(c, _centre(g_vals, nbr))])
    got = [v for v, tag in avoid.values if tag == "interaction"]
    real = nbr < samples  # the pad is no neighbour
    level = real & (np.abs(np.append(f_vals, 0.0)[nbr] - f_vals) <= band)
    g_nb = np.append(g_vals, 0.0)[nbr]
    up, down = level & (g_vals < g_nb - _EPS), level & (g_vals > g_nb + _EPS)
    near = (np.abs(g_vals - c) <= band) & level.any(axis=0)
    rule = near & ~(up.any(axis=0) & down.any(axis=0))
    hi = g_nb.max(axis=0, where=level, initial=-np.inf)
    lo = g_nb.min(axis=0, where=level, initial=np.inf)
    assert np.array_equal(rule, near & ((g_vals >= hi - _EPS) | (g_vals <= lo + _EPS)))
    assert got == f_vals[rule].tolist()
    return np.flatnonzero(rule).tolist()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(0, 6), st.data())
def test_extremal_matches_the_gathered_reduction(samples, width, data):
    """The interaction test's extremum rule (no level-band neighbour
    above, or none below) against one masked max and min over the
    gathered slots x samples values, on random padded neighbour arrays
    (width 0 included), level bands and values tied to the slack."""
    nbr = np.array(data.draw(st.lists(
        st.lists(st.integers(0, samples), min_size=samples, max_size=samples),
        min_size=width, max_size=width)), dtype=np.int32).reshape(width, samples)
    f_vals = (np.array(data.draw(st.lists(st.integers(0, 4), min_size=samples,
                                          max_size=samples))) / 4
              + np.arange(samples) * 1e-6)
    g_vals = (np.array(data.draw(st.lists(st.integers(0, 4), min_size=samples,
                                          max_size=samples))) / 4
              + data.draw(st.sampled_from((0.0, _EPS / 2))))
    _interaction_hits(f_vals, g_vals, nbr,
                      data.draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
                      data.draw(st.sampled_from((0.0, 0.5, 1.0, 10.0))))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 20), st.integers(1, 12), st.data())
def test_packed_extremal_matches_the_boolean_rule(slots, samples, data):
    """`_centre`'s packed steps against np.packbits of the boolean slot
    rows, and the interaction test on them against the rule on slots x
    samples booleans, on 0 to 20 slots (across the byte boundaries at 8
    and 16) of random neighbours with the pad, values tied within or at
    the slack, isolated samples and empty candidate sets."""
    def draw(elements, shape):
        return np.array(data.draw(st.lists(elements, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape))))
                        ).reshape(shape)

    nbr = draw(st.integers(0, samples), (slots, samples)).astype(np.int32)
    f_vals = draw(st.integers(0, 4), samples) / 4 + np.arange(samples) * 1e-6
    g_vals = (draw(st.integers(0, 4), samples) / 4
              + draw(st.sampled_from((0.0, _EPS / 2, _EPS)), samples))
    cut = _centre(g_vals, nbr)
    g_nb = np.append(g_vals, 0.0)[nbr]
    pack = functools.partial(np.packbits, axis=0, bitorder="little")
    assert cut.row is g_vals
    assert np.array_equal(cut.up, pack(g_vals < g_nb - _EPS))
    assert np.array_equal(cut.down, pack(g_vals > g_nb + _EPS))
    _interaction_hits(f_vals, g_vals, nbr,
                      data.draw(st.sampled_from((0.0, 0.25, 0.5, 1.0))),
                      data.draw(st.sampled_from((0.0, 0.5, 1.0, 10.0))))


def test_interaction_edge_cases():
    """Five samples on two slots (5 is the pad): sample 1 lies between
    its neighbours 0 and 2, sample 3 ties with its neighbour 1 within the
    slack, and sample 4 is isolated, so off every level band."""
    f_vals = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    g_vals = np.array([0.0, 0.5, 1.0, 0.5 + _EPS / 2, 3.0])
    nbr = np.array([[1, 0, 1, 1, 5], [5, 2, 5, 5, 5]], dtype=np.int32)
    assert _interaction_hits(f_vals, g_vals, nbr, 1.0, 0.5) == [0, 2, 3]
    # g = 2.5: only the isolated sample lies within the band
    assert _interaction_hits(f_vals, g_vals, nbr, 1.0, 2.5) == []
    assert _interaction_hits(f_vals, g_vals, nbr, 1.0, 10.0) == []  # no candidate
    # a band of 0.05 holds no neighbour's f value: no sample is on it
    assert _interaction_hits(f_vals, g_vals, nbr, 0.05, 0.5) == []


# -- bounded memory -------------------------------------------------------


def test_collect_avoid_working_memory_is_bounded():
    """One strong collect_avoid call on the 1/32 square with a random
    binary 40-row table, where every sample is its own code class: its
    working memory (the tracemalloc peak less what the call leaves
    allocated, which is the avoid set) stays under 2 MB.  The closed
    family alone is 3,201 regions x 1,089 classes, 3.5 MB as one dense
    boolean array; with _REGION_BLOCK regions at a time the call and
    the four centre records measured 0.7 MB."""
    M = builtin_space("square", Fraction(1, 32))
    table = np.random.default_rng(0).integers(0, 2, (40, len(M))).astype(np.int8)
    nbr = M.neighbor_lists(2 * M.resolution)
    assert len(np.unique(table, axis=1).T) == len(M)
    assert len(list(_small_support(40, BINARY_DIGITS, REGION_SUPPORT))) == 3201
    tracemalloc.start()
    try:
        cut, *cuts = (_centre(M.distance_row(i), nbr) for i in (5, 0, 100, 500))
        avoid = collect_avoid(table, cut, nbr, 2 * M.resolution, True,
                              list(zip([0.3, 0.5, 0.7], cuts)))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(avoid) > 100_000
    assert 3201 > _REGION_BLOCK
    assert peak - held < 2_000_000


def test_interaction_test_gathers_no_samples_x_slots_floats():
    """A strong call on the 1/128 square with three earlier cuts, and
    the four centre records: the steps are packed slot bits filled one
    neighbour slot at a time, and the level band is gathered only at the
    samples near an earlier cut's value.  Gathering a row's values at
    every slot of every sample is 1.6 MB alone (16,641 samples x 12
    slots of float64); the call measured 2.9 MB that way, 2.1 MB with
    boolean steps made slot by slot for every earlier cut, and 0.9 MB
    with the records' packed steps."""
    M = builtin_space("square", Fraction(1, 128))
    nbr = M.neighbor_lists(2 * M.resolution)
    table = np.zeros((3, len(M)), dtype=np.int8)
    assert nbr.shape == (12, 16641)
    tracemalloc.start()
    try:
        cut, *cuts = (_centre(M.distance_row(i), nbr) for i in (5, 0, 100, 500))
        collect_avoid(table, cut, nbr, 2 * M.resolution, True,
                      list(zip([0.3, 0.5, 0.7], cuts)))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 2_200_000


def test_neighbor_lists_padded_and_uncached():
    M = builtin_space("square", Fraction(1, 4))
    calls = count_rows(M)
    nbr = M.neighbor_lists(2 * M.resolution)
    assert nbr.dtype == np.int32 and nbr.shape == (12, 25)
    assert calls == []
    corner = per_sample(nbr, 25)[0]
    assert corner[corner < 25].tolist() == [1, 2, 5, 6, 10]
    assert (corner[5:] == 25).all()
    assert M.neighbor_lists(Fraction(1, 8)).shape == (0, 25)


def _assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("interval", "circle", "square", "torus")),
       st.integers(1, 24).flatmap(lambda q: st.fractions(
           Fraction(1, q), 1, max_denominator=q)),
       st.one_of(st.integers(0, 4).map(Fraction),
                 st.fractions(0, 4, max_denominator=12)),
       st.integers(1, 4))
@example("torus", Fraction(3, 7), Fraction(1), 1)
@example("circle", Fraction(2, 7), Fraction(1, 2), 2)
@example("torus", Fraction(2, 7), Fraction(3, 2), 3)
@example("square", Fraction(2, 5), Fraction(5, 2), 2)
@example("circle", Fraction(1, 2), Fraction(4), 1)
@example("torus", Fraction(1, 3), Fraction(0), 4)
def test_lattice_neighbor_lists_match_the_row_scan(name, res, steps, stride):
    # a non-dividing resolution leaves a periodic seam shorter than a step:
    # at 2/7 the circle's samples 6/7 and 0 lie 1/7 apart
    M = builtin_space(name, res)
    full = per_sample(M.neighbor_lists(steps * res), len(M))
    _assert_same_array(full, reference_neighbor_lists(M, steps * res))
    # a subset of rows, in descending order, gives the same neighbourhoods
    rows = np.arange(len(M) - 1, -1, -stride)
    subset = M.neighbor_lists(steps * res, rows=rows)
    assert subset.dtype == np.int32 and subset.shape[1] == len(rows)
    for got, i in zip(per_sample(subset, len(M)), rows):
        assert np.array_equal(got[got < len(M)], full[i][full[i] < len(M)])


def test_lattice_neighbor_lists_read_no_distance_row():
    """The stencil decides reach from its offsets alone: it computes no
    distance row and no row of exact squares."""
    M = builtin_space("square", Fraction(1, 128))
    calls = count_rows(M)

    def fail(*args):
        pytest.fail("the stencil computed a row of squares")

    M.lattice.squares = fail
    nbr = M.neighbor_lists(2 * M.resolution)
    assert calls == [] and nbr.shape == (12, 16641)
    assert per_sample(nbr, 16641)[0].tolist() == [1, 2, 129, 130, 258] + [16641] * 7


def test_models_without_a_lattice_keep_the_row_scan(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"points": [[i] for i in range(6)], "metric": [
        [abs(i - j) for j in range(6)] for i in range(6)]}))
    finite = builtin_space("finite", Fraction(1), file=str(path))
    compactified = compactified_space(Fraction(1, 16))
    for M, radius in ((finite, Fraction(2)), (compactified, Fraction(1, 8)),
                      (_finite_space([(0, 0), (1, 2), (3, 1)], 1), Fraction(3))):
        assert M.lattice is None
        calls = count_rows(M)
        nbr = M.neighbor_lists(radius)
        assert sorted(calls) == list(range(len(M)))
        _assert_same_array(per_sample(nbr, len(M)),
                           reference_neighbor_lists(M, radius))
        # slot k holds each sample's k-th neighbour
        assert nbr.dtype == np.int32
        assert np.array_equal(nbr.T, reference_neighbor_lists(M, radius))


def test_build_reads_only_centre_and_dense_order_rows():
    M = builtin_space("square", Fraction(1, 64))
    assert len(M) == 4225
    calls = count_rows(M)
    build(M, 4, strong=True, seed=0)
    assert 0 < len(set(calls)) <= 10


def test_build_empty():
    M = builtin_space("interval", Fraction(1, 16))
    res = build(M, 0)
    assert len(res.subbase) == 0
    assert check_proper(res.subbase, M, 0, Fraction(1, 4)).ok


def test_build_deterministic():
    M = builtin_space("interval", Fraction(1, 32))
    a = build(M, 6, seed=11)
    b = build(builtin_space("interval", Fraction(1, 32)), 6, seed=11)
    assert [c.c for c in a.subbase.cuts] == [c.c for c in b.subbase.cuts]
    assert [c.center_index for c in a.subbase.cuts] == \
        [c.center_index for c in b.subbase.cuts]


def test_build_cut_in_interval_and_away_from_avoid():
    M = builtin_space("interval", Fraction(1, 32))
    res = build(M, 6, seed=3)
    for rec in res.log:
        lo, hi = map(Fraction, rec["interval"])
        assert lo < Fraction(rec["c_n"]) < hi


def test_build_interval_passes_checker():
    M = builtin_space("interval", Fraction(1, 32))
    res = build(M, 8, strong=False, seed=42)
    assert check_proper(res.subbase, M, 4, 2 * M.resolution).ok


def test_build_square_strong_passes_checker():
    M = builtin_space("square", Fraction(1, 16))
    res = build(M, 10, strong=True, seed=7)
    assert check_strong_proper(res.subbase, M, 3, 2 * M.resolution).ok


@pytest.mark.parametrize("space, resolution, count, seed, families", [
    ("interval", Fraction(1, 128), 24, 5,
     {"closed": 9601, "code": 281, "interaction": 12}),
    ("torus", Fraction(1, 32), 24, 3,
     {"closed": 21150, "code": 1528, "interaction": 23}),
])
def test_strong_build_avoid_families(monkeypatch, space, resolution, count,
                                     seed, families):
    """Avoid values per family over every step of two strong builds where
    earlier cuts interact; the counts were recorded when each value's tag
    still named its region's pattern."""
    seen = collections.Counter()
    collect = builder.collect_avoid

    def counting(*args):
        avoid = collect(*args)
        seen.update(tag for _v, tag in avoid.values)
        return avoid

    monkeypatch.setattr(builder, "collect_avoid", counting)
    build(builtin_space(space, resolution), count, strong=True, seed=seed)
    assert seen == families


@pytest.mark.parametrize("count, centres", [(16, 5), (48, 9)])
def test_build_compares_each_centre_with_its_neighbours_once(monkeypatch, count,
                                                             centres):
    """`_centre` runs once per distinct centre (the dense points 0..n0 of
    unpair), not once per earlier cut at every step: 136 and 1,176 calls."""
    calls = []
    centre = builder._centre
    monkeypatch.setattr(builder, "_centre",
                        lambda row, nbr: calls.append(1) or centre(row, nbr))
    res = build(builtin_space("square", Fraction(1, 32)), count, strong=True,
                seed=42)
    assert len(calls) == centres
    assert len({cut.center_index for cut in res.subbase.cuts}) == centres


def test_import_subbases_loads_no_module():
    """The package itself re-exports nothing: importing it loads neither
    the builder nor the checker.  The space models sit below every other
    layer: importing them loads no subbase and no sequence module."""
    src = str(Path(subbases.__file__).resolve().parents[1])
    for module, loaded in (("subbases", ["subbases"]),
                           ("subbases.space", ["subbases", "subbases.space"])):
        code = ("import sys, %s; print(sorted(m for m in sys.modules "
                "if m.startswith('subbases')))" % module)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == repr(loaded)


def test_build_without_a_lattice_or_matrix_classifies_point_by_point():
    """The compactified model has neither a lattice nor an exact matrix,
    so `DistanceSubbase.digit_row` classifies one sample at a time."""
    M = compactified_space(Fraction(1, 16))
    assert M.lattice is None and M.exact is None
    res = build(M, 6, strong=True, seed=2)
    digits = [[ZERO if d < cut.c else ONE if d > cut.c else BD
               for d in (M.metric(M.point(cut.center_index), x)
                         for x in M.sample_points)]
              for cut in res.subbase.cuts]
    assert np.array_equal(res.table, digits)


def test_build_log_shape():
    M = builtin_space("interval", Fraction(1, 32))
    res = build(M, 4, seed=1)
    assert len(res.log) == 4
    for n, rec in enumerate(res.log):
        assert rec["n"] == n
        assert list(rec) == ["n", "n0", "interval", "avoid_count", "c_n",
                             "retries"]


def test_separation_grows_with_count():
    M = builtin_space("interval", Fraction(1, 32))
    few = separation_fraction(build(M, 2, seed=0).table)
    many = separation_fraction(build(builtin_space("interval", Fraction(1, 32)),
                                     10, seed=0).table)
    assert many >= few
    assert many > 0.5


def test_separation_fraction_basic():
    table = np.array([[0, 0, 1, 1]], dtype=np.int8)
    assert separation_fraction(table) == pytest.approx(4 / 6)
    # one sample leaves no pair to distinguish
    assert separation_fraction(np.array([[0]], dtype=np.int8)) == 1.0
