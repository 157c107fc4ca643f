import hashlib
import json
import math
import pathlib
import random
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subbases.files import space_digest
from subbases.seq import BD, ONE, ZERO, render
from subbases.space import (MetricError, POINT_AT_INFINITY, _grid,
                            builtin_space, compactified_space,
                            load_finite_space, validate_metric)
from subbases.subbase import (GraySubbase, compactified_example,
                              duplicated_subbase, gray_digit, phi)

from reference import (exact_neighbor_lists, gray_digit as paper_gray_digit,
                       lattice_points, lattice_squares, per_sample,
                       unpruned_neighbor_lists)


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
    # derived: -cos(pi/3) = -1/2 < 0
    assert cosine_sign_digit(Fraction(1, 3), 0) == ZERO
    for digit in (gray_digit, paper_gray_digit):
        assert digit(Fraction(1, 4), 1) == BD
        assert digit(Fraction(3, 4), 0) == ONE
        assert digit(Fraction(1, 3), 0) == ZERO


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 2 ** 70),
                 st.integers(0, 70).map(lambda m: 2 ** m)).flatmap(
           lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))),
       st.integers(0, 79))
def test_gray_digit_matches_the_paper_definition(x, n):
    # at q = 2^m an odd numerator is a boundary point of pair m - 1
    for m in {n, x.denominator.bit_length() - 2} - {-1}:
        assert (gray_digit(x, m) == gray_digit((x,), m)
                == paper_gray_digit(x, m))


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


def gray_boundary_points(n):
    """The boundary set of pair n: the odd multiples of 1/2^(n+1)."""
    return [Fraction(2 * k + 1, 2 ** (n + 1)) for k in range(2 ** n)]


def test_gray_boundaries_exact():
    for n in range(6):
        for p in gray_boundary_points(n):
            assert gray_digit(p, n) == BD


def test_gray_boundary_disjointness():
    seen = {}
    for n in range(10):
        for p in gray_boundary_points(n):
            assert p not in seen, (p, n, seen[p])
            seen[p] = n


def test_gray_phi_examples():
    G = GraySubbase(8)
    assert render(phi(G, (Fraction(1, 4),), 4), width=4) == "0_10"
    assert render(phi(G, (Fraction(0),), 4), width=4) == "0000"
    # derived from the floating sign oracle at 1/2
    expected = "".join(
        {ZERO: "0", ONE: "1", BD: "_"}[cosine_sign_digit(Fraction(1, 2), n)]
        for n in range(4))
    assert expected == "_100"
    assert render(phi(G, (Fraction(1, 2),), 4), width=4) == "_100"


def test_builtin_finite_requires_a_file():
    with pytest.raises(ValueError, match="finite space requires a JSON file"):
        builtin_space("finite", Fraction(1))


def test_builtin_interval_grid():
    M = builtin_space("interval", Fraction(1, 8))
    assert len(M.sample_points) == 9
    assert M.sample_points[0] == (Fraction(0),)
    assert M.sample_points[-1] == (Fraction(1),)
    assert M.metric((Fraction(0),), (Fraction(1, 2),)) == Fraction(1, 2)


def test_builtin_square_grid():
    M = builtin_space("square", Fraction(1, 4))
    assert len(M.sample_points) == 25
    assert M.sample_points[-1] == (Fraction(1), Fraction(1))
    assert M.lattice.squares(0)[-1] == 2 * 4 ** 2
    assert M.distance_row(0)[-1] == math.sqrt(2)


def test_builtin_circle_geodesic():
    M = builtin_space("circle", Fraction(1, 8))
    assert len(M.sample_points) == 8
    assert M.metric((Fraction(1, 8),), (Fraction(7, 8),)) == Fraction(1, 4)


def test_builtin_torus():
    M = builtin_space("torus", Fraction(1, 4))
    assert len(M.sample_points) == 16
    assert M.sample_points[-1] == (Fraction(3, 4), Fraction(3, 4))
    assert M.lattice.squares(0)[-1] == 2
    assert M.distance_row(0)[-1] == math.hypot(0.25, 0.25)


@pytest.mark.parametrize("name, q, samples", [
    ("interval", 2 ** 31 - 2, 2 ** 31 - 1), ("interval", 2 ** 31 - 1, 2 ** 31),
    ("circle", 2 ** 31 - 1, 2 ** 31 - 1), ("circle", 2 ** 31, 2 ** 31),
    ("square", 46339, 46340 ** 2), ("square", 46340, 46341 ** 2),
    ("torus", 46340, 46340 ** 2), ("torus", 46341, 46341 ** 2),
])
def test_lattice_sample_count_fits_the_int32_neighbour_arrays(name, q, samples):
    """Neighbour arrays are int32 and padded with the sample count, so a
    lattice holds at most 2^31 - 1 samples.  A lattice model allocates
    nothing, so no array is made here."""
    if samples < 2 ** 31:
        assert len(builtin_space(name, Fraction(1, q))) == samples
    else:
        with pytest.raises(ValueError, match="^the %s grid at resolution 1/%d "
                           "has %d samples, more than the 2147483647 "
                           % (name, q, samples)):
            builtin_space(name, Fraction(1, q))


# name -> (dimensions, periodic)
LATTICES = {"interval": (1, False), "circle": (1, True),
            "square": (2, False), "torus": (2, True)}


def test_lattice_metric_types():
    """The interval and circle metrics are the exact gap, with the ring
    minimum on the circle."""
    for name, wrap in (("interval", False), ("circle", True)):
        M = builtin_space(name, Fraction(1, 7))
        rng = random.Random(3)
        for _ in range(200):
            a, b = rng.choice(M.sample_points), rng.choice(M.sample_points)
            d = M.metric(a, b)
            gap = abs(a[0] - b[0])
            assert type(d) is Fraction
            assert d == (min(gap, 1 - gap) if wrap else gap)


def _array_digest(a):
    h = hashlib.sha256(("%s %s " % (a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())
    return h.hexdigest()


# sha256 of the exact squares of sample 0, neighbor_lists(2 res) in the
# per-sample layout and the distance rows of samples 0, n // 3 and n - 1,
# each with dtype and shape
LATTICE_DIGESTS = {
    ("interval", 10): (
        "d846652cb88932475d1cfcdb20e07d9f7008a7d0743adeaa0c043faa5e4185cf",
        "48300be460dcc4857400d4b0fcfdeae70fe76954ed017c720dcfa83501a33bc7",
        "1b9e5e759a8420017bd1aff1296821d398548f960f2dd2ed926c85ba0b4fcb86",
        "e9b96ade4e05e6e778764cd40c4cd1f7d58863380e4345fadcfd2665ae5ef1f7",
        "c150691c7539425c75341a90a040314238c4455b20f1009dcb5527ad5b2d8594"),
    ("interval", 16): (
        "1a9ca44e4c34a6bdbd65565884b62528baf795f5f1a8e6abda0b0b4cce51d38b",
        "480f3f2625ddfcc3693d275018d1f79baadbdea5a45045a0154adb14ca0fc270",
        "21007bb42755d8ab1cc7159efc5b27887280fe87de0876d608dccf535cab819a",
        "007c45ea54c207e1653c32dd269a0e70c562e158283dfb09a4d83594501ed9fa",
        "6a97ce68a51e99d49f7ad8aee31c38182e407e95307d7fcaed5b1919046012f1"),
    ("circle", 10): (
        "efa3c3b492547e810fde318793d73883382a3a8c97b6e4d4291ce4b02f6c0a87",
        "e3b60b1c7359e7030ffd13e657355af267e2b8d89fa94a40f3403e799752cc6e",
        "5cbeeef3d794f042ce177cf2412267d00c5d6533c876077961c52249581b3c3c",
        "9c6e0725462888ef671adba4a6d86603daab05215f8102014a221647404382c7",
        "4a335bf8f68e7908c3dcda3c8ff7f121d5785a6c5d3415613d749cf745274939"),
    ("circle", 16): (
        "ed86ead6e25039a588365a407e3d4665d8e9d5e722e1e97fcf9ebafb18ff370e",
        "8b1fd173b3e4fb55dc094079c5aa1a0377cd4aaf488708e894999023b3a66f91",
        "683aea79af194d6707ef9f50e6d8dc28a21199ac362c4c577af7ee83307192bc",
        "dcb2f1b6b5b627cd007c2d0227adf08f68768a7e94cd7b42dbaf8d61ac0578aa",
        "677ee65ae9f3ab45b40e94d5b0c2c66d0a532156617aac6db416b703d7d60e89"),
    ("square", 10): (
        "b4bdbc0f4ffc1a2eebfc015fce44d9bfc06a9e589331fbf35b840d7fdf850ecd",
        "26cd5b80bb84f7f937d224db83f859d726af1bddbf191684c49edbc3a3caec40",
        "67922aa17976b8938957fdff9c33ae1afbc4f788269c1e1aa0cc384cdbbc2f10",
        "a37ac4332589661049b427356fe2f592a30b22dabc8afba28b06f3266778328a",
        "de1d9f89001bf6a7af73abe5bbd221fda1df1172d6d42eab1124aaafc6fa24f2"),
    ("square", 16): (
        "805016a04cf33c16756cf8ae284a9dd4f0a5d5c7ddbfc296faa708d2c04c2306",
        "1d459cde7377648e9c71b82e096e9f0a64ffde7a3283e595454376c4cd5030c1",
        "c143ec245fccf0e49fb6a7581284c3f6f417f667a9119d6c783dd0c15fa72815",
        "94618ee1f2c6e140d801a9c723a160137661f9ef53ef6e0ae49aa1ab44fae37f",
        "3911c18755d4aeb15f3a433c1fc1037b91ff37f3a40d7d464d968394c5d509dc"),
    ("torus", 10): (
        "81daa4598c2176a175ffc1be28ee196613cb9173ffcbc3d42101eb45e79acde3",
        "a4bec11466e62a111b6e16a97ec0d2d72f4d3af4d3471f06f53dbbe65318074a",
        "61c818b7780d07ad069dd06404684771bd2e639507bfabeb209214128102fae5",
        "53b0abcbcb73927262fcfd3aeed78ff2fb1ebe2e1bbaf7dcd6197028018816a4",
        "ab2bb4b42000a3d827261333e60574bb2ce730bc8a3fe84819a4817b4c6ecf79"),
    ("torus", 16): (
        "3d258a89fa11b278fd4aec0ac412c765fc3d1298581ee08bd979fbde6ec2fb75",
        "5e902881aae7d95ef8cd904e9c9096b06e66dce736e3c0c031ccaf0cdd50a338",
        "cdddabb4209299c34be104e0c6e04b399ab2641ed18adf2b53fbfe791b5de0df",
        "e43bd372553f7b360e972a3f525cd2b85b74058a3222b90f2f9dd51dcaffe5a6",
        "991f207f4fae08bf9dc6726d0f92d91bcefabe8ea732f4166a718eded4a008b6"),
}


@pytest.mark.parametrize("name, q", sorted(LATTICE_DIGESTS))
def test_lattice_arrays_are_pinned(name, q):
    M = builtin_space(name, Fraction(1, q))
    n = len(M)
    dims, wrap = LATTICES[name]
    assert M.lattice.shape == (q + (not wrap),) * dims
    assert M.lattice.wrap == (wrap,) * dims
    got = (_array_digest(M.lattice.squares(0)),
           _array_digest(per_sample(M.neighbor_lists(Fraction(2, q)), n)),
           *(_array_digest(M.distance_row(i)) for i in (0, n // 3, n - 1)))
    assert got == LATTICE_DIGESTS[name, q]


# steps p/q with p > 1 and steps that do not divide 1, and steps whose
# denominator is past 2^53 (a grid of at most nine values per axis)
resolutions = st.one_of(
    st.integers(1, 48).flatmap(
        lambda q: st.builds(Fraction, st.integers(1, q), st.just(q))),
    st.integers(2 ** 53, 2 ** 70).flatmap(
        lambda q: st.builds(Fraction, st.integers(q // 8, q), st.just(q))))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), resolutions)
def test_lattice_points_match_the_product_construction(name, res):
    M = builtin_space(name, res)
    reference = lattice_points(name, res)
    assert len(M) == len(reference)
    points = [M.point(i) for i in range(len(M))]
    assert points == reference
    assert all(type(c) is Fraction for x in points for c in x)
    # q^2 d^2 in exact integers: float64 values while dims q^2 < 2^53
    q, dims = res.denominator, LATTICES[name][0]
    for i in {0, len(M) // 3, len(M) - 1}:
        s = M.lattice.squares(i)
        assert s.dtype == (float if dims * q * q < 2 ** 53 else object)
        assert s.tolist() == [v * q * q for v in lattice_squares(name, res, i)]
    assert M.sample_points == reference


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LATTICES)),
       st.integers(1, 24).flatmap(
           lambda q: st.builds(Fraction, st.integers(1, q), st.just(q))),
       st.integers(1, 16), st.integers(1, 4),
       st.one_of(st.none(), st.sets(st.integers(0, 10 ** 6), min_size=1,
                                    max_size=20)))
# at step 2/5 the circle's and the torus's seam spans 1/5: the one offset
# of a step holds a neighbour at radius 1/5 through the seam alone
@example("circle", Fraction(2, 5), 1, 2, None)
@example("torus", Fraction(2, 5), 1, 2, None)
@example("torus", Fraction(2, 5), 3, 4, None)
# at step 1/10, pairs exactly 1/10 apart whose float coordinates differ
# by more or less than 0.1
@example("interval", Fraction(1, 10), 1, 1, None)
@example("square", Fraction(1, 10), 1, 1, None)
def test_neighbor_lists_skip_only_offsets_out_of_reach(name, res, a, b, rows):
    """Skipping the offsets whose nearest pair lies beyond the radius
    leaves the neighbour array as testing every offset makes it, and as
    the exact pairwise rule makes it: radii up to 16 steps, at and
    between grid distances, and steps p/q that do not divide 1, whose
    seam on the circle and the torus is shorter."""
    M = builtin_space(name, res)
    radius = res * Fraction(a, b)
    rows = (np.arange(len(M)) if rows is None
            else np.array(sorted({i % len(M) for i in rows}), dtype=np.intp))
    got = per_sample(M.neighbor_lists(radius, rows), len(M))
    want = unpruned_neighbor_lists(M, math.floor(radius / res) + 1,
                                   float(radius), rows)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)
    exact = exact_neighbor_lists(name, res, radius, rows)
    assert (got.dtype, got.shape) == (exact.dtype, exact.shape)
    assert np.array_equal(got, exact)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), resolutions, st.integers(1, 16),
       st.integers(1, 4),
       st.one_of(st.none(), st.sets(st.integers(0, 10 ** 6), min_size=1,
                                    max_size=20)))
@example("circle", Fraction(2, 5), 1, 2, None)
@example("torus", Fraction(1, 3), 4, 1, None)
def test_each_lattice_slot_holds_one_grid_offset(name, res, a, b, rows):
    """Every neighbour in a slot row sits at the same grid offset from its
    sample, modulo the periodic axes; no sample lists itself or the same
    neighbour twice."""
    M = builtin_space(name, res)
    n, shape = len(M), np.array(M.lattice.shape)[:, None]
    rows = (np.arange(n) if rows is None
            else np.array(sorted({i % n for i in rows}), dtype=np.intp))
    nbr = M.neighbor_lists(res * Fraction(a, b), rows)
    assert nbr.dtype == np.int32 and nbr.shape[1] == len(rows)
    here = np.array(np.unravel_index(rows, M.lattice.shape))
    wrap = np.array(M.lattice.wrap)[:, None]
    for slot in nbr:
        listed = slot < n
        offset = np.array(np.unravel_index(slot[listed], M.lattice.shape)) \
            - here[:, listed]
        offset = np.where(wrap, offset % shape, offset)
        assert (offset == offset[:, :1]).all()
        assert (slot[listed] != rows[listed]).all()
    for row in per_sample(nbr, n):
        assert (np.diff(row[row < n]) > 0).all()


def test_square_neighbor_lists_memory_at_the_default_resolution():
    """On the 1/256 square at radius 2 res the call holds its 12 slot rows
    of int32, 3.2 MB, and peaks at 6.9 MB.  A float distance test per
    pair peaked at 11.7 MB, and a samples x 16 intp matrix, widened,
    trimmed and sorted per sample, held 6.3 MB and peaked at 17.0 MB."""
    M = builtin_space("square", Fraction(1, 256))
    tracemalloc.start()
    try:
        nbr = M.neighbor_lists(2 * M.resolution)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 3.2e6, held
    assert peak <= 8e6, peak
    assert nbr.shape == (12, 66049)


def _neighbours(M, i, radius):
    row = per_sample(M.neighbor_lists(radius, rows=[i]), len(M))[0]
    return row[row < len(M)].tolist()


# (model, sample, its pair, their distance): pairs at 1/10 whose float
# coordinates differ by more (0.8 - 0.7 is 0.10000000000000009), a 3-4-5
# pair, pairs across one and both seams of the torus, and a pair of an
# integer finite file
_EXACT_PAIRS = [
    ("interval", (7,), (8,), Fraction(1, 10)),
    ("square", (7, 2), (8, 2), Fraction(1, 10)),
    ("square", (1, 1), (4, 5), Fraction(1, 2)),
    ("circle", (0,), (9,), Fraction(1, 10)),
    ("torus", (0, 3), (9, 3), Fraction(1, 10)),
    ("torus", (0, 0), (7, 6), Fraction(1, 2)),
    ("finite", (0,), (2,), Fraction(3)),
]


@pytest.mark.parametrize("name, here, there, d", _EXACT_PAIRS, ids=[
    "interval", "square-axis", "square-3-4-5", "circle-seam", "torus-seam",
    "torus-both-seams", "finite"])
def test_within_radius_is_distance_at_most_radius(tmp_path, name, here,
                                                   there, d):
    """A pair at distance exactly radius is a neighbour, and a pair at
    radius + 10^-12 is not: the lattices at step 1/10, the finite space on
    the points 0, 1 and 3 of the line."""
    if name == "finite":
        M = load_finite_space(_write_space(tmp_path / "s.json", [
            [abs(a - b) for b in (0, 1, 3)] for a in (0, 1, 3)]))
        i, j = here[0], there[0]
    else:
        M = builtin_space(name, Fraction(1, 10))
        i, j = (int(np.ravel_multi_index(k, M.lattice.shape))
                for k in (here, there))
    for a, b in ((i, j), (j, i)):
        assert b in _neighbours(M, a, d)
        assert b not in _neighbours(M, a, d - Fraction(1, 10 ** 12))


@pytest.mark.parametrize("name", sorted(LATTICES) + ["finite", "compactified"])
def test_a_negative_radius_gives_no_neighbour(tmp_path, name):
    if name == "finite":
        M = load_finite_space(_write_space(tmp_path / "s.json", [
            [abs(a - b) for b in range(4)] for a in range(4)]),
            Fraction(1, 8))
    elif name == "compactified":
        M = compactified_space(Fraction(1, 8))
    else:
        M = builtin_space(name, Fraction(1, 8))
    for radius in (Fraction(-1, 10 ** 12), Fraction(-1, 10 ** 9),
                   -M.resolution, -2 * M.resolution, Fraction(-3)):
        assert M.neighbor_lists(radius).shape == (0, len(M))


@pytest.mark.parametrize("name, q", [("square", 256), ("interval", 4096)])
def test_lattice_models_hold_no_per_sample_objects(name, q):
    """A lattice model holds its grid shape and step, under 10 kB at any
    resolution: float coordinates held 1.06 MB at 1/256 on the square,
    and a tuple of Fractions per sample 5.3 MB."""
    builtin_space(name, Fraction(1, 4))  # any first-call set-up
    tracemalloc.start()
    try:
        M = builtin_space(name, Fraction(1, q))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(M) == (q + 1) ** LATTICES[name][0]
    assert held <= 0.01e6, held


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
    validate_metric([[abs(a - b) for b in range(5)] for a in range(5)])
    with pytest.raises(MetricError):
        validate_metric([[a - b for b in range(5)] for a in range(5)])  # asymmetric


def _write_space(path, mat):
    path.write_text(json.dumps({"points": [[i] for i in range(len(mat))],
                                "metric": mat}))
    return str(path)


def test_finite_distance_rows_are_read_only(tmp_path):
    M = load_finite_space(_write_space(tmp_path / "s.json",
                                       [[0, 5, 4], [5, 0, 2], [4, 2, 0]]))
    row = M.distance_row(1)
    assert row.tolist() == [5.0, 0.0, 2.0]
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_space_digest_is_pinned(tmp_path):
    # int, decimal and "p/q" entries and points
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "points": [[0], ["1/2"], [1.5]],
        "metric": [[0, 3, "5/2"], [3, 0, 1.25], ["5/2", 1.25, 0]]}))
    assert space_digest(load_finite_space(str(path))) == (
        "5b55d23ae154f845d7af2050dcd89a1ed3d249c18ac788219107102c51ec0f37")


@pytest.mark.parametrize("huge", (10 ** 400, "%d/1" % 10 ** 400))
def test_entry_beyond_float_range_is_a_metric_error(tmp_path, huge):
    mat = [[0, 1, 1], [1, 0, huge], [1, huge, 0]]
    with pytest.raises(MetricError, match=r"entry \(1, 2\) is too large"):
        load_finite_space(_write_space(tmp_path / "huge.json", mat))


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


def _outcome(check, *args):
    try:
        check(*args)
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
# a rational metric written as decimal floats: 1 + 0.6666666666666666 is
# 10^-16 short of 1.6666666666666667, within the slack
@example([[0, 1, 0.6666666666666666], [1, 0, 1.6666666666666667],
          [0.6666666666666666, 1.6666666666666667, 0]])
def test_validate_metric_matches_the_triple_loop(mat):
    points = [(Fraction(i),) for i in range(len(mat))]

    def metric(a, b):
        return mat[int(a[0])][int(b[0])]

    assert (_outcome(validate_metric, mat)
            == _outcome(reference_validate_metric, points, metric))


@st.composite
def integer_matrices(draw):
    """A `metric_matrices` draw, flaws included, times the common
    denominator of its entries: an integer matrix."""
    mat = [[Fraction(v) for v in row] for row in draw(metric_matrices())]
    scale = math.lcm(*(v.denominator for row in mat for v in row))
    return [[int(v * scale) for v in row] for row in mat]


@settings(deadline=None)
@given(integer_matrices())
def test_integer_entries_load_like_their_fractions(mat):
    # the same matrix written with JSON ints and with "k/1" strings
    loaded = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, entry in (("int", int), ("fraction", lambda v: "%d/1" % v)):
            path = _write_space(pathlib.Path(tmp) / name,
                                [[entry(v) for v in row] for row in mat])
            try:
                loaded.append(load_finite_space(path))
            except MetricError as exc:
                loaded.append(str(exc))
    ints, fractions = loaded
    if isinstance(ints, str) or isinstance(fractions, str):
        assert ints == fractions
        return
    assert space_digest(ints) == space_digest(fractions)
    for i in range(len(mat)):
        assert ints.distance_row(i).tolist() == fractions.distance_row(i).tolist()


def test_validate_metric_names_the_first_failing_triple():
    # (0, 2, 1) and (1, 2, 0) fail: 20 > 1 + 1
    with pytest.raises(MetricError, match=r"fails at \(0, 2, 1\)"):
        validate_metric([[0, 20, 1], [20, 0, 1], [1, 1, 0]])
    slack = [[0, 1, Fraction(2) + Fraction(1, 10 ** 9)],
             [1, 0, 1], [Fraction(2) + Fraction(1, 10 ** 9), 1, 0]]
    validate_metric(slack)  # within the slack
    slack[0][2] = slack[2][0] = Fraction(2) + Fraction(2, 10 ** 9)
    with pytest.raises(MetricError, match=r"fails at \(0, 1, 2\)"):
        validate_metric(slack)


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
    G = GraySubbase(4)
    D = duplicated_subbase(G, 0)
    assert len(D) == 5
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)):
        assert D.digit(4, (x,)) == D.digit(0, (x,))
    with pytest.raises(IndexError):
        duplicated_subbase(G, 4)
