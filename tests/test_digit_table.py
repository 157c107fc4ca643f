"""Property tests for the shared digit table.

Each test keeps the slow per-sample reference (a loop over `S.digit` or
`phi`) next to the table-based code it checks.
"""

import functools
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subbases.builder import BuilderParams, build
from subbases.files import load_subbase, save_subbase, subbase_to_json
from subbases.space import SpaceModel, builtin_space, load_finite_space
from subbases.subbase import (DistanceCut, DistanceSubbase, GraySubbase,
                              ReindexedSubbase,
                              code_classes, compactified_example, digit_table,
                              duplicated_subbase, enumerate_K, gray_digit,
                              phi, table_kslice)

from reference import (gray_digit as paper_gray_digit, kslice_sequences,
                       lattice_points, lattice_squares, permute, restrict,
                       table_codes)

SPACES = (("interval", Fraction(1, 32)), ("circle", Fraction(1, 32)),
          ("square", Fraction(1, 16)), ("torus", Fraction(1, 16)))


@functools.lru_cache(maxsize=None)
def built(space: str, resolution: Fraction, seed: int, strong: bool):
    """A seeded 6-cut build and the saved file reloaded: (result, S, M)."""
    result = build(builtin_space(space, resolution),
                   BuilderParams(count=6, strong=strong, rng_seed=seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "built.json")
        save_subbase(path, subbase_to_json(result.subbase))
        S, M = load_subbase(path)
    return result, S, M


@st.composite
def subbases(draw):
    """(S, M, depth): a reloaded build, Gray or the compactified oracle,
    possibly permuted or with a pair duplicated."""
    kind = draw(st.sampled_from(("built", "gray", "compactified")))
    if kind == "built":
        space, resolution = draw(st.sampled_from(SPACES))
        _, S, M = built(space, resolution, draw(st.integers(0, 3)),
                        draw(st.booleans()))
    elif kind == "gray":
        S = GraySubbase(8)
        M = builtin_space("interval", draw(st.sampled_from(
            (Fraction(1, 64), Fraction(1, 48), Fraction(1, 10)))))
    else:
        M, S = compactified_example(Fraction(1, 64))
    view = draw(st.sampled_from(("plain", "permuted", "duplicated")))
    if view == "permuted":
        S = permute(S, draw(st.permutations(range(len(S)))))
    elif view == "duplicated":
        S = duplicated_subbase(S, draw(st.integers(0, len(S) - 1)))
    return S, M, draw(st.integers(0, len(S)))


@settings(max_examples=40, deadline=None)
@given(subbases())
def test_digit_table_matches_per_sample_digits(case):
    S, M, depth = case
    digits = [[S.digit(k, x) for x in M.sample_points] for k in range(depth)]
    assert all(type(d) is int for row in digits for d in row)
    reference = np.array(digits, dtype=np.int8)
    table = digit_table(S, M, depth)
    assert table.shape == (depth, len(M.sample_points))
    assert np.array_equal(table, reference.reshape(table.shape))


@settings(max_examples=40, deadline=None)
@given(subbases())
def test_enumerate_K_matches_restricted_codes(case):
    S, M, depth = case
    reference = {restrict(phi(S, x, depth), m)
                 for x in M.sample_points for m in range(depth + 1)}
    assert frozenset(kslice_sequences(enumerate_K(S, M, depth))) == reference


@settings(max_examples=40, deadline=None)
@given(subbases(), st.data())
def test_permuted_table_rows_give_permuted_kslice(case, data):
    S, M, depth = case
    pi = data.draw(st.permutations(range(depth)))
    full = list(pi) + list(range(depth, len(S)))
    reference = enumerate_K(permute(S, full), M, depth)
    K = table_kslice(digit_table(S, M, depth)[list(pi)])
    assert ((K.depth, K.width, K.elements.tolist())
            == (reference.depth, reference.width, reference.elements.tolist()))


def reference_table_kslice(table):
    """The elements of table_kslice by restricting every distinct code to
    every length."""
    return frozenset(restrict(code, m) for code in table_codes(table)
                     for m in range(table.shape[0] + 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(0, 6), st.integers(30, 34), st.just(40)),
       st.integers(1, 30), st.sampled_from(((0, 1, 2), (0, 2), (2,), (0, 1))),
       st.data())
def test_table_kslice_matches_restricted_codes(depth, samples, digits, data):
    """Random tables with boundary digits, from a few rows to 40, past the
    32 rows where the prefix keys stop fitting in int64."""
    cells = data.draw(st.lists(st.sampled_from(digits), min_size=depth * samples,
                               max_size=depth * samples))
    table = np.array(cells, dtype=np.int8).reshape(depth, samples)
    K = table_kslice(table)
    assert K.depth == depth
    assert frozenset(kslice_sequences(K)) == reference_table_kslice(table)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SPACES), st.integers(0, 3), st.booleans())
def test_builder_table_matches_saved_subbase(space, seed, strong):
    result, S, M = built(space[0], space[1], seed, strong)
    assert np.array_equal(result.table, digit_table(S, M, len(S)))
    assert np.array_equal(result.table,
                          digit_table(result.subbase, result.subbase.space,
                                      len(S)))


# -- the integer Gray rows against the paper's Fraction definition -------


def gray_reference_row(n, points):
    """Pair n's codes at every one-axis point (x,) through the paper's
    Fraction definition of the Gray digit."""
    return np.array([paper_gray_digit(x, n) for (x,) in points], dtype=np.int8)


RESOLUTIONS = st.one_of(
    st.sampled_from((Fraction(1, 3), Fraction(3, 7), Fraction(1, 1000),
                     Fraction(1, 1024), Fraction(1, 4096))),
    st.builds(lambda q, p: Fraction(min(p, q), q),
              st.integers(1, 600), st.integers(1, 600)),
    st.integers(0, 12).map(lambda m: Fraction(1, 2 ** m)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("interval", "circle")), RESOLUTIONS,
       st.lists(st.integers(0, 69), min_size=1, max_size=6))
def test_gray_digit_row_matches_gray_digit(space, resolution, rows):
    G = GraySubbase(70)
    M = builtin_space(space, resolution)
    for n in rows:
        assert np.array_equal(G.digit_row(n, M),
                              gray_reference_row(n, M.sample_points))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("interval", "circle")),
       st.one_of(st.integers(2 ** 31, 2 ** 31 + 1), st.integers(2 ** 31, 2 ** 70),
                 st.integers(31, 70).map(lambda m: 2 ** m)),
       st.data())
def test_gray_digit_row_on_large_denominators(space, q, data):
    # from q = 2^31 on, 2 q^2 overflows int64 and the rows use Python ints;
    # q/p <= 40 keeps the model small.  At q = 2^m the samples with odd
    # k p are boundary points of pair m - 1.
    p = data.draw(st.integers(-(-q // 40), q).filter(
        lambda p: Fraction(p, q).denominator == q))
    M = builtin_space(space, Fraction(p, q))
    assert len(M) <= 41
    G = GraySubbase(80)
    rows = data.draw(st.lists(st.integers(0, 79), min_size=1, max_size=6))
    for n in rows + [q.bit_length() - 2]:
        assert np.array_equal(G.digit_row(n, M),
                              gray_reference_row(n, M.sample_points))


@settings(max_examples=30, deadline=None)
@given(RESOLUTIONS, st.lists(st.integers(0, 9), min_size=1, max_size=12),
       st.integers(0, 9))
def test_gray_rows_through_reindexed_views(resolution, index_map, pair):
    M = builtin_space("interval", resolution)
    for S in (ReindexedSubbase(GraySubbase(10), index_map),
              duplicated_subbase(GraySubbase(10), pair)):
        reference = np.array([gray_reference_row(m, M.sample_points)
                              for m in S.index_map])
        table = digit_table(S, M, len(S))
        assert np.array_equal(table, reference.reshape(table.shape))


def test_gray_rows_equal_when_models_alternate():
    G = GraySubbase(12)
    fine, coarse = (builtin_space("interval", Fraction(1, q)) for q in (4096, 3))
    for M in (fine, coarse, fine):
        assert np.array_equal(digit_table(G, M, 12), np.array(
            [gray_reference_row(n, M.sample_points) for n in range(12)]))


@pytest.mark.parametrize("points, message", [
    ([(Fraction(0), Fraction(0))],
     "expected a scalar point, got (Fraction(0, 1), Fraction(0, 1))"),
    ([(Fraction(1, 2),), (Fraction(2),), (Fraction(1, 2), Fraction(0))],
     "x must lie in [0, 1]: 2"),
    ([(Fraction(-1, 3),)], "x must lie in [0, 1]: -1/3"),
])
def test_gray_digit_row_errors_match_the_loop(points, message):
    M = SpaceModel("points", points, None, Fraction(1))
    with pytest.raises(ValueError) as loop:
        for x in points:
            gray_digit(x, 0)
    with pytest.raises(ValueError) as row:
        GraySubbase(4).digit_row(0, M)
    assert str(row.value) == str(loop.value) == message


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(1, 40), st.integers(1, 3), st.data())
def test_code_classes_match_np_unique(depth, samples, letters, data):
    """The sorted distinct columns and each sample's column index equal
    np.unique's, at every depth including 0 rows and for one sample; few
    letters make repeated columns common."""
    table = np.array(data.draw(st.lists(st.integers(0, letters - 1),
                                        min_size=depth * samples,
                                        max_size=depth * samples)),
                     dtype=np.int8).reshape(depth, samples)
    codes, inverse = code_classes(table)
    want_codes, want_inverse = np.unique(table, axis=1, return_inverse=True)
    assert codes.dtype == np.int8 and codes.shape == want_codes.shape
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    assert np.array_equal(codes[:, inverse], table)


@pytest.mark.parametrize("table", [
    np.zeros((0, 5), dtype=np.int8), np.zeros((0, 1), dtype=np.int8),
    np.array([[2], [0], [1]], dtype=np.int8),
    np.array([[1, 0, 1, 0], [0, 2, 0, 2]], dtype=np.int8),
], ids=["no-rows", "no-rows-one-sample", "one-sample", "repeated-columns"])
def test_code_classes_edge_shapes(table):
    codes, inverse = code_classes(table)
    want_codes, want_inverse = np.unique(table, axis=1, return_inverse=True)
    assert codes.shape == want_codes.shape and np.array_equal(codes, want_codes)
    assert np.array_equal(inverse, want_inverse.reshape(-1))


# 10^-10 is below the 10^-9 tolerance that cuts were once classified with
OFF = Fraction(1, 10 ** 10)


@st.composite
def lattice_cuts(draw):
    """(name, step, centre, c) on a built-in lattice: a step p/q, p > 1
    too, or one whose q^2 is past 2^53, and a cut c at a distance that is
    sampled exactly (q^2 d^2 a perfect square), 10^-10 either side of one
    (below 0 at the centre), or a random rational."""
    name = draw(st.sampled_from(("interval", "circle", "square", "torus")))
    q = draw(st.one_of(st.integers(1, 32), st.integers(2 ** 26, 2 ** 70)))
    step = Fraction(draw(st.integers(max(1, q // 8), q)), q)
    i = draw(st.integers(0, len(lattice_points(name, step)) - 1))
    if draw(st.booleans()):
        return name, step, i, draw(st.fractions(0, 2))
    squares = lattice_squares(name, step, i)
    d2 = draw(st.sampled_from(sorted(
        v for v in set(squares)
        if math.isqrt(v.numerator) ** 2 == v.numerator
        and math.isqrt(v.denominator) ** 2 == v.denominator)))
    c = Fraction(math.isqrt(d2.numerator), math.isqrt(d2.denominator))
    return name, step, i, c + draw(st.sampled_from((0, OFF, -OFF)))


@settings(max_examples=80, deadline=None)
@given(lattice_cuts())
# 5/32 from offsets (3, 4) at 1/32, and 10^-10 off it
@example(("square", Fraction(1, 32), 0, Fraction(5, 32)))
@example(("square", Fraction(1, 32), 0, Fraction(5, 32) + OFF))
@example(("torus", Fraction(1, 32), 0, Fraction(5, 32) - OFF))
# the internally tangent interval balls at r = 1/4: centres 1/2 and 5/8,
# radii 1/4 and 3/8, sharing the sample 1/4
@example(("interval", Fraction(1, 128), 64, Fraction(1, 4)))
@example(("interval", Fraction(1, 128), 80, Fraction(3, 8)))
@example(("torus", Fraction(2, 63), 40, Fraction(2, 63)))
# a float64 row just below 2^53 (2 q^2 < 2^53): the far corner's q^2 d^2
# is past 2^52, and a threshold past 2^53 is clipped to 2^53, not below
@example(("square", Fraction(2 ** 26 - 2, 2 ** 26 - 1), 0, Fraction(3, 2)))
# cuts whose thresholds are past the float range either way
@example(("interval", Fraction(1, 8), 3, Fraction(10 ** 400)))
@example(("torus", Fraction(1, 8), 3, Fraction(-10 ** 400)))
def test_lattice_cuts_are_classified_exactly(case):
    """A distance cut's row on a lattice is the exact comparison of
    d^2 = the sum of the squared ring-minimum gaps with c^2: the
    boundary digit marks the sphere itself, 10^-10 off it none, and the
    per-point digit agrees with the row at every sample."""
    name, step, i, c = case
    M = builtin_space(name, step)
    S = DistanceSubbase(M, [DistanceCut(i, c)])
    want = [1 if c < 0 else 0 if d2 < c * c else 2 if d2 == c * c else 1
            for d2 in lattice_squares(name, step, i)]
    row = S.digit_row(0, M)
    assert row.dtype == np.int8 and row.tolist() == want
    assert [S.digit(0, M.point(j)) for j in range(len(M))] == want


def _finite_cases(tmp_path):
    """A loaded finite space with int and Fraction entries, whose row 0 is
    (0, 3, 5/2), and a model with float entries alone, whose row 0 is
    (0, 0.1, 0.5)."""
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({"points": [[0], [1], [2]], "metric": [
        [0, 3, "5/2"], [3, 0, "1/2"], ["5/2", "1/2", 0]]}))
    floats = np.array([[0, 0.1, 0.5], [0.1, 0, 0.4], [0.5, 0.4, 0]])
    points = [(Fraction(k),) for k in range(3)]
    plain = SpaceModel("finite", points,
                       lambda a, b: floats[int(a[0]), int(b[0])],
                       Fraction(1), distances=floats)
    return load_finite_space(str(path)), plain


@pytest.mark.parametrize("model, c, want", [
    (0, Fraction(3), [0, 2, 0]), (0, 3 + OFF, [0, 0, 0]), (0, 3 - OFF, [0, 1, 0]),
    (0, Fraction(5, 2), [0, 1, 2]), (0, Fraction(5, 2) + OFF, [0, 1, 0]),
    (0, Fraction(5, 2) - OFF, [0, 1, 1]), (0, Fraction(0), [2, 1, 1]),
    # the float 0.1 is itself, not 1/10; 0.5 is 1/2
    (1, Fraction(0.1), [0, 2, 1]), (1, Fraction(1, 10), [0, 1, 1]),
    (1, Fraction(0.1) + OFF, [0, 0, 1]), (1, Fraction(1, 2), [0, 0, 2]),
    (1, Fraction(1, 2) - OFF, [0, 0, 1]),
])
def test_finite_cuts_are_classified_exactly(tmp_path, model, c, want):
    """On a finite space the boundary digit is equality with an exact
    entry, for int, Fraction and float entries alike; the per-point digit
    agrees with the row."""
    M = _finite_cases(tmp_path)[model]
    S = DistanceSubbase(M, [DistanceCut(0, c)])
    assert S.digit_row(0, M).tolist() == want
    assert [S.digit(0, x) for x in M.sample_points] == want
