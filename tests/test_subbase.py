import itertools
from fractions import Fraction

import pytest

from subbases.seq import BD, EMPTY, ONE, ZERO, BottomedSeq, parse, render
from subbases.space import builtin_space
from subbases.subbase import (GraySubbase, enumerate_K, is_cusl,
                              kslice_to_dot, member_closed, member_open,
                              permute, phi)

from reference import is_downward_closed, kslice_of, kslice_sequences


@pytest.fixture(scope="module")
def gray():
    return GraySubbase(8)


@pytest.fixture(scope="module")
def interval16():
    return builtin_space("interval", Fraction(1, 16))


def test_digit_examples(gray):
    assert gray.digit(0, (Fraction(3, 4),)) == ONE
    assert gray.digit(1, (Fraction(3, 4),)) == BD
    with pytest.raises(IndexError):
        gray.digit(8, (Fraction(1, 2),))


def test_phi_examples(gray):
    assert render(phi(gray, (Fraction(1, 4),), 4), width=4) == "0_10"
    assert render(phi(gray, (Fraction(0),), 4), width=4) == "0000"
    with pytest.raises(IndexError):
        phi(gray, (Fraction(0),), 9)


def test_member_open(gray):
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        assert member_open(gray, EMPTY, (x,))
    assert member_open(gray, parse("0"), (Fraction(1, 4),))
    assert member_open(gray, parse("_b"), (Fraction(1, 4),))
    assert not member_open(gray, parse("1"), (Fraction(1, 4),))


def test_member_closed(gray):
    assert member_closed(gray, parse("0"), (Fraction(1, 2),))
    assert member_closed(gray, parse("01"), (Fraction(1, 4),))
    assert not member_open(gray, parse("01"), (Fraction(1, 4),))
    assert member_closed(gray, EMPTY, (Fraction(2, 3),))


def test_member_open_iff_prefix_order(gray, interval16):
    # definitional equivalence for binary patterns
    for sigma in _binary_patterns(4):
        for x in interval16.sample_points:
            assert member_open(gray, sigma, x) == sigma.leq(phi(gray, x, 4))


def _binary_patterns(depth):
    out = []
    for tup in itertools.product(("0", "1", "_"), repeat=depth):
        out.append(parse("".join(tup)))
    return out


def test_member_decomposition_law(gray, interval16):
    pats = [parse(s) for s in ("0b", "b1", "0b1", "__b", "01b0")]
    for sigma in pats:
        binary, bd = sigma.decompose()
        for x in interval16.sample_points:
            assert member_open(gray, sigma, x) == (
                member_open(gray, binary, x) and member_open(gray, bd, x))


def test_member_open_implies_closed(gray, interval16):
    for sigma in _binary_patterns(3) + [parse("0b"), parse("b")]:
        for x in interval16.sample_points:
            if member_open(gray, sigma, x):
                assert member_closed(gray, sigma, x)


def test_enumerate_K_depth1(gray, interval16):
    K = enumerate_K(gray, interval16, 1)
    assert frozenset(kslice_sequences(K)) == frozenset(
        {EMPTY, parse("0"), parse("1")})


def test_enumerate_K_depth0(gray, interval16):
    K = enumerate_K(gray, interval16, 0)
    assert frozenset(kslice_sequences(K)) == frozenset({EMPTY})


def test_enumerate_K_single_point(gray):
    from subbases.space import SpaceModel
    M = SpaceModel("one", [(Fraction(1, 3),)],
                   lambda a, b: abs(a[0] - b[0]), Fraction(1))
    K = enumerate_K(gray, M, 3)
    chain = sorted(kslice_sequences(K), key=lambda s: s.length)
    code = phi(gray, (Fraction(1, 3),), 3)
    assert chain == [code.restrict(m) for m in range(4)]


def test_K_downward_closed_and_bottom(gray, interval16):
    K = enumerate_K(gray, interval16, 3)
    assert EMPTY in kslice_sequences(K)
    assert is_downward_closed(K)


def test_is_cusl_constructed_failure():
    elems = frozenset({EMPTY, parse("0"), parse("_0"), parse("000"),
                       parse("001")})
    rep = is_cusl(kslice_of(elems, depth=3))
    assert not rep.ok
    assert {render(rep.sigma), render(rep.tau)} == {"0", "_0"}
    assert [render(u) for u in rep.minimal_upper_bounds] == ["000", "001"]


def test_is_cusl_constructed_pass():
    elems = frozenset({EMPTY, parse("0"), parse("_0"), parse("00")})
    assert is_cusl(kslice_of(elems, depth=2)).ok


def test_is_cusl_gray(gray):
    M = builtin_space("interval", Fraction(1, 64))
    K = enumerate_K(gray, M, 4)
    assert is_cusl(K).ok


def test_is_cusl_isomorphism_invariance():
    # relabeling indices consistently must not change the verdict
    elems = {EMPTY, parse("0"), parse("_0"), parse("000"), parse("001")}
    perm = (2, 0, 1)
    relabeled = frozenset(
        BottomedSeq({perm[k]: v for k, v in s.items()}) for s in elems)
    a = is_cusl(kslice_of(elems, depth=3))
    b = is_cusl(kslice_of(relabeled, depth=3))
    assert a.ok == b.ok is False


def test_permute(gray):
    swapped = permute(gray, [1, 0] + list(range(2, 8)))
    x = (Fraction(3, 4),)
    assert render(phi(gray, x, 2), width=2) == "1_"
    assert render(phi(swapped, x, 2), width=2) == "_1"
    identity = permute(gray, list(range(8)))
    back = permute(swapped, [1, 0] + list(range(2, 8)))
    for n in range(8):
        for xv in (Fraction(0), Fraction(1, 3), Fraction(5, 8)):
            assert identity.digit(n, (xv,)) == gray.digit(n, (xv,))
            assert back.digit(n, (xv,)) == gray.digit(n, (xv,))
    with pytest.raises(ValueError):
        permute(gray, [0, 0] + list(range(2, 8)))


def test_permute_digit_relation(gray, interval16):
    pi = [3, 1, 0, 2] + list(range(4, 8))
    P = permute(gray, pi)
    for n in range(8):
        for x in interval16.sample_points:
            assert P.digit(n, x) == gray.digit(pi[n], x)


def test_dot_export(gray, interval16):
    K = enumerate_K(gray, interval16, 2)
    dot = kslice_to_dot(K)
    assert dot.startswith("digraph")
    # the bottom element covers nothing and is covered by the two digits
    assert 'label="0"' in dot and 'label="1"' in dot
    # covering edges only: 0 -> 00 exists, but not the transitive e -> 00
    lines = dot.splitlines()
    nodes = {ln.split("[")[0].strip(): ln.split('"')[1]
             for ln in lines if "label=" in ln}
    edges = [(nodes[a.strip()], nodes[b.strip().rstrip(";")])
             for ln in lines if "->" in ln
             for a, b in [ln.split("->")]]
    assert ("", "0") in edges
    assert ("0", "00") in edges
    assert ("", "00") not in edges
