"""The keyed K slices, `is_cusl` and `kslice_to_dot` against the
sequence oracle and the pairwise references they replaced."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subbases import subbase
from subbases.seq import BD, BOT, ONE, ZERO, render
from subbases.space import builtin_space
from subbases.subbase import (CuslReport, GraySubbase, enumerate_K,
                              is_cusl, kslice_to_dot, table_kslice)

from reference import (BottomedSeq, is_binary, is_downward_closed, join,
                       kslice_keys, kslice_of, kslice_sequences, leq, parse,
                       restrict, seq_code, sorted_elements,
                       table_kslice_sequences, update)


def reference_is_cusl(elems) -> CuslReport:
    """Every pair of a sorted list of sequences through `join`, in
    (length, rendering) order; the report holds their codes."""
    members = set(elems)
    for i, sigma in enumerate(elems):
        for tau in elems[i:]:
            j = join(sigma, tau)
            if j is None:
                continue
            if j in members:
                continue
            ubs = [u for u in elems if leq(j, u)]
            if not ubs:
                continue
            minimal = [u for u in ubs
                       if not any(v is not u and leq(v, u) for v in ubs)]
            if len(minimal) >= 2:
                return CuslReport(False, seq_code(sigma), seq_code(tau),
                                  tuple(map(seq_code,
                                            sorted_elements(minimal))))
    return CuslReport(True)


def reference_kslice_to_dot(elems, name: str = "kslice") -> str:
    """Every cover of a sorted list of sequences through `leq`: u < v
    with no w strictly between."""
    index = {e: i for i, e in enumerate(elems)}
    lines = ["digraph %s {" % name, '  rankdir="BT";']
    for e in elems:
        lines.append('  n%d [label="%s"];' % (index[e], render(seq_code(e))))
    for u in elems:
        for v in elems:
            if u is v or not leq(u, v):
                continue
            covers = not any(w is not u and w is not v
                             and leq(u, w) and leq(w, v) for w in elems)
            if covers:
                lines.append("  n%d -> n%d;" % (index[u], index[v]))
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def kslices(draw):
    """Random K slices: arbitrary sets of sequences (with or without
    boundary digits, possibly closed under restriction, possibly with a
    planted failing pair), sets over positions up to 40 (so that the
    bitset keys no longer fit in uint64), and the slices of random digit
    tables."""
    kind = draw(st.sampled_from(("set", "downward", "wide", "table")))
    if kind == "table":
        depth = draw(st.integers(0, 5))
        n = draw(st.integers(1, 12))
        cells = draw(st.lists(st.integers(0, 2), min_size=depth * n,
                              max_size=depth * n))
        return table_kslice(np.array(cells, dtype=np.int8).reshape(depth, n))
    depth = draw(st.integers(1, 40 if kind == "wide" else 5))
    positions = (st.sampled_from(sorted({0, 1, depth - 2, depth - 1}
                                        & set(range(depth))))
                 if kind == "wide" else st.integers(0, depth - 1))
    digits = draw(st.sampled_from(((ZERO, ONE), (ZERO, ONE, BD))))
    seqs = st.dictionaries(positions, st.sampled_from(digits)).map(BottomedSeq)
    elems = draw(st.sets(seqs, max_size=14))
    if kind == "downward":
        elems = {restrict(e, m) for e in elems for m in range(depth + 1)}
    if depth >= 2 and draw(st.booleans()):
        # plant a compatible pair whose join is missing and has two
        # incomparable upper bounds, one position past the join
        p, q = draw(st.lists(positions, min_size=2, max_size=2, unique=True))
        base = update(update(draw(seqs), p, BOT), q, BOT)
        sigma = update(base, p, draw(st.sampled_from(digits)))
        tau = update(base, q, draw(st.sampled_from(digits)))
        both = join(sigma, tau)
        uppers = {update(both, both.length, a) for a in (ZERO, ONE)}
        elems = (elems | {sigma, tau} | uppers) - {both}
    return kslice_of(elems, depth=depth + 1)


@settings(max_examples=300, deadline=None)
@given(kslices())
def test_is_cusl_matches_pairwise_reference(K):
    elems = sorted_elements(kslice_sequences(K))
    assert is_cusl(K) == reference_is_cusl(elems)
    assert kslice_to_dot(K) == reference_kslice_to_dot(elems)


@st.composite
def digit_tables(draw):
    """Random digit tables: up to 6 rows, or 22 to 26 rows (keys past
    uint64); 0 rows and 1 column included; with and without boundary
    digits, and some with boundary digits alone."""
    depth = draw(st.one_of(st.integers(0, 6), st.integers(22, 26)))
    n = draw(st.integers(1, 12 if depth <= 6 else 5))
    digits = draw(st.sampled_from(((ZERO, ONE, BD), (ZERO, ONE), (ZERO, BD),
                                   (BD,))))
    cells = draw(st.lists(st.sampled_from(digits), min_size=depth * n,
                          max_size=depth * n))
    return np.array(cells, dtype=np.int8).reshape(depth, n)


@settings(max_examples=200, deadline=None)
@given(digit_tables())
@example(np.zeros((0, 3), dtype=np.int8))
@example(np.zeros((3, 0), dtype=np.int8))
@example(np.array([[BD], [ONE], [BD]], dtype=np.int8))
@example(np.full((22, 2), BD, dtype=np.int8))
@example(np.array([[ZERO, ONE, BD, BD]] * 22, dtype=np.int8))
def test_table_kslice_matches_the_sequence_oracle(table):
    """Keys, their order and width, `is_cusl`'s report and the DOT text
    equal those of the sequences that `table_kslice` used to build."""
    K = table_kslice(table)
    elems = sorted_elements(table_kslice_sequences(table))
    key, width = kslice_keys(elems)
    assert (K.depth, K.width) == (table.shape[0], width)
    assert K.elements.dtype == key.dtype
    assert K.elements.tolist() == key.tolist()
    assert kslice_sequences(K) == elems
    assert is_cusl(K) == reference_is_cusl(elems)
    assert kslice_to_dot(K) == reference_kslice_to_dot(elems)


def test_kslices_cover_failing_and_boundary_cases():
    seen = Counter()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(kslices())
    def record(K):
        elems = sorted_elements(kslice_sequences(K))
        seen["fail" if not reference_is_cusl(elems).ok else "pass"] += 1
        seen["not downward closed"] += not is_downward_closed(K)
        seen["boundary digits"] += any(not is_binary(e) for e in elems)
        seen["wide"] += K.width > 21

    record()
    assert min(seen[k] for k in ("fail", "pass", "not downward closed",
                                 "boundary digits", "wide")) >= 10, seen


def _slice(*texts):
    return kslice_of(parse(t) for t in texts)


def test_keyed_slice_makes_no_leq_or_join_call(monkeypatch):
    """`is_cusl` works on the keys alone: on a passing slice it reads no
    key as a code, and on a failing one only its report's."""
    gray = enumerate_K(GraySubbase(8),
                       builtin_space("interval", Fraction(1, 4096)), 8)
    # missing joins "00": bounded by "000" alone, then by "000" and "001"
    least = _slice("", "0", "_0", "000")
    failing = _slice("", "0", "_0", "000", "001")
    built = Counter()
    original = subbase._element
    monkeypatch.setattr(subbase, "_element",
                        lambda *args: built.update(["code"]) or original(*args))
    reports = []
    for K in (gray, least, failing):
        built.clear()
        reports.append(is_cusl(K))
        # the failing report holds sigma, tau and two upper bounds
        assert built["code"] == (0 if reports[-1].ok else 4)
    dots = [kslice_to_dot(K) for K in (gray, least, failing)]
    monkeypatch.undo()
    assert [r.ok for r in reports] == [True, True, False]
    sorted_slices = [sorted_elements(kslice_sequences(K))
                     for K in (gray, least, failing)]
    assert reports == [reference_is_cusl(e) for e in sorted_slices]
    assert dots == [reference_kslice_to_dot(e) for e in sorted_slices]


@pytest.mark.parametrize("K, sigma, tau, bounds", [
    # "0" fails with "_0" first and with "__0" after it: the first is reported
    (_slice("", "0", "_0", "__0", "000", "001", "010"),
     "0", "_0", ["000", "001"]),
    # the join "b0" at positions 20-21 is missing while "00" there is not;
    # its keys need more than 64 bits, where the two must stay apart
    (_slice("", "_" * 20 + "b", "_" * 21 + "0", "_" * 20 + "00",
            "_" * 20 + "b00", "_" * 20 + "b01"),
     "_" * 20 + "b", "_" * 21 + "0", ["_" * 20 + "b00", "_" * 20 + "b01"]),
])
def test_is_cusl_reports_the_first_failing_pair(K, sigma, tau, bounds):
    report = is_cusl(K)
    assert report == reference_is_cusl(sorted_elements(kslice_sequences(K)))
    assert (render(report.sigma), render(report.tau)) == (sigma, tau)
    assert [render(u) for u in report.minimal_upper_bounds] == bounds
