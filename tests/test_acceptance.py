"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines and timings.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from subbases.builder import build
from subbases.checker import check_proper, check_strong_proper
from subbases.seq import BD, DIGITS, ONE, ZERO, render
from subbases.space import POINT_AT_INFINITY, builtin_space
from subbases.subbase import (GraySubbase, compactified_example,
                              duplicated_subbase, enumerate_K, is_cusl, phi)

from reference import (EMPTY, assert_keys_follow_the_order, decompose,
                       enumerate_sequences, is_downward_closed, join,
                       kslice_sequences, leq, member_open, parse, permute,
                       seq_key)


def _report(num, name, started):
    print("\nACCEPTANCE %d (%s): PASS  [%.2fs]" % (num, name,
                                                   time.time() - started))


def test_criterion_1_gray_code_digits():
    t0 = time.time()
    G = GraySubbase(8)
    assert render(phi(G, (Fraction(1, 4),), 8), width=8) == "0_100000"
    assert render(phi(G, (Fraction(3, 4),), 8), width=8) == "1_100000"
    _report(1, "gray code digits", t0)


def test_criterion_2_gray_boundary_disjointness():
    """The boundary samples of pair n, as the classifier reads them on the
    1/2^17 grid, are the 2^n odd multiples of 2^-(n+1), disjoint across
    pairs."""
    t0 = time.time()
    M = builtin_space("interval", Fraction(1, 2 ** 17))
    G = GraySubbase(17)
    seen = set()
    for n in range(17):
        ks = np.flatnonzero(G.digit_row(n, M) == BD).tolist()
        assert len(ks) == 2 ** n
        assert [M.sample_points[k] for k in ks] == [
            (Fraction(2 * j + 1, 2 ** (n + 1)),) for j in range(2 ** n)]
        assert not seen & set(ks)
        seen |= set(ks)
    _report(2, "gray boundary disjointness", t0)


def test_criterion_3_gray_strong_properness():
    t0 = time.time()
    M = builtin_space("interval", Fraction(1, 4096))
    G = GraySubbase(8)
    report = check_strong_proper(G, M, 5, Fraction(1, 128))
    assert report.ok
    assert not report.violations
    assert time.time() - t0 < 60
    _report(3, "gray strong properness at 1/4096", t0)


def test_criterion_4_duplication_counterexample():
    t0 = time.time()
    S = duplicated_subbase(GraySubbase(4), 0)
    M = builtin_space("interval", Fraction(1, 256))
    report = check_proper(S, M, 5, Fraction(1, 64))
    assert not report.ok
    tol = Fraction(1, 256)
    assert any(abs(v.point[0] - Fraction(1, 2)) <= tol
               for v in report.violations)
    # CLI maps a failing check to exit code 1
    from subbases.cli import run
    assert run(["demo", "duplication"]) == 1
    _report(4, "duplication counterexample", t0)


def test_criterion_5_compactification_counterexample():
    t0 = time.time()
    M, S = compactified_example(Fraction(1, 1024))
    assert check_proper(S, M, 3, Fraction(1, 64)).ok
    report = check_strong_proper(S, M, 3, Fraction(1, 64))
    assert not report.ok
    target = [v for v in report.violations
              if v.sigma[0] == BD and v.sigma[1] == ZERO
              and v.point is POINT_AT_INFINITY]
    assert target
    _report(5, "compactification counterexample", t0)


def test_criterion_6_builder_soundness():
    t0 = time.time()
    M = builtin_space("square", Fraction(1, 32))
    assert len(M.sample_points) == 33 * 33
    delta = 2 * M.resolution

    first = build(M, 12, strong=True, seed=42)
    assert check_strong_proper(first.subbase, M, 3, delta).ok
    again = build(M, 12, strong=True, seed=42)
    assert [c.c for c in first.subbase.cuts] == \
        [c.c for c in again.subbase.cuts]

    passed = 0
    for seed in range(10):
        res = build(M, 12, strong=True, seed=seed)
        if check_strong_proper(res.subbase, M, 3, delta).ok:
            passed += 1
    assert passed >= 8
    assert time.time() - t0 < 300
    _report(6, "builder soundness (seed 42 + %d/10 audit seeds)" % passed, t0)


def test_criterion_7_cusl_permutation_link():
    t0 = time.time()
    G = GraySubbase(8)
    M = builtin_space("interval", Fraction(1, 256))
    for pi in itertools.permutations(range(4)):
        full = list(pi) + list(range(4, 8))
        K = enumerate_K(permute(G, full), M, 4)
        assert is_cusl(K).ok, pi

    Mc, C = compactified_example(Fraction(1, 256))
    failing = []
    for pi in itertools.permutations(range(3)):
        full = list(pi) + list(range(3, len(C)))
        K = enumerate_K(permute(C, full), Mc, 3)
        if not is_cusl(K).ok:
            failing.append(pi)
    assert failing
    _report(7, "cusl under 24 gray permutations; compactification fails "
               "for %d/6" % len(failing), t0)


def test_criterion_8_order_theory_suite():
    t0 = time.time()

    # the order as the K slices run it, on bitset keys: subset, clash and
    # OR against the reference leq and join on every pair, and the least
    # upper bound law, exhaustive over length <= 5 binary patterns
    binary_patterns = list(enumerate_sequences(5, (ZERO, ONE)))
    assert_keys_follow_the_order(binary_patterns)

    # decomposition round-trip, exhaustive over length <= 5 with boundaries:
    # the parts' keys never clash and their OR is the sequence's key
    for s in enumerate_sequences(5, DIGITS):
        binary, bd = decompose(s)
        assert join(binary, bd) == s
        assert seq_key(binary, 5) | seq_key(bd, 5) == seq_key(s, 5)

    shipped = []
    G = GraySubbase(8)
    Mi = builtin_space("interval", Fraction(1, 64))
    shipped.append((G, Mi))
    shipped.append((duplicated_subbase(GraySubbase(4), 0), Mi))
    Mc, C = compactified_example(Fraction(1, 64))
    shipped.append((C, Mc))

    for S, M in shipped:
        K = enumerate_K(S, M, min(5, len(S)))
        assert EMPTY in kslice_sequences(K)
        assert is_downward_closed(K)
        codes = [parse(render(phi(S, x, 5))) for x in M.sample_points]
        code_keys = [seq_key(code, 5) for code in codes]
        for sigma in binary_patterns:
            key = seq_key(sigma, 5)
            for x, code, code_key in zip(M.sample_points, codes, code_keys):
                inside = member_open(S, sigma, x)
                assert inside == leq(sigma, code)
                assert inside == (key & code_key == key)

    assert time.time() - t0 < 30
    _report(8, "order-theory suite", t0)
