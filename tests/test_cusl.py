"""The keyed `is_cusl` and `kslice_to_dot` against the pairwise references
they replaced."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subbases.seq import BD, BOT, ONE, ZERO, BottomedSeq, parse, render
from subbases.space import builtin_space, gray_subbase
from subbases.subbase import (CuslReport, KSlice, enumerate_K, is_cusl,
                              kslice_to_dot, sort_key, table_kslice)


def reference_is_cusl(K: KSlice) -> CuslReport:
    """Every pair through `try_join`, in (length, rendering) order."""
    elems = K.sorted_elements()
    for i, sigma in enumerate(elems):
        for tau in elems[i:]:
            j = sigma.try_join(tau)
            if j is None:
                continue
            if j in K.elements:
                continue
            ubs = [u for u in elems if j.leq(u)]
            if not ubs:
                continue
            minimal = [u for u in ubs
                       if not any(v is not u and v.leq(u) for v in ubs)]
            if len(minimal) >= 2:
                return CuslReport(False, sigma, tau,
                                  tuple(sorted(minimal, key=sort_key)))
    return CuslReport(True)


def reference_kslice_to_dot(K: KSlice, name: str = "kslice") -> str:
    """Every cover through `leq`: u < v with no w strictly between."""
    elems = K.sorted_elements()
    index = {e: i for i, e in enumerate(elems)}
    lines = ["digraph %s {" % name, '  rankdir="BT";']
    for e in elems:
        lines.append('  n%d [label="%s"];' % (index[e], render(e)))
    for u in elems:
        for v in elems:
            if u is v or not u.leq(v):
                continue
            covers = not any(w is not u and w is not v
                             and u.leq(w) and w.leq(v) for w in elems)
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
        elems = {e.restrict(m) for e in elems for m in range(depth + 1)}
    if depth >= 2 and draw(st.booleans()):
        # plant a compatible pair whose join is missing and has two
        # incomparable upper bounds, one position past the join
        p, q = draw(st.lists(positions, min_size=2, max_size=2, unique=True))
        base = draw(seqs).update(p, BOT).update(q, BOT)
        sigma = base.update(p, draw(st.sampled_from(digits)))
        tau = base.update(q, draw(st.sampled_from(digits)))
        join = sigma.join(tau)
        uppers = {join.update(join.length, a) for a in (ZERO, ONE)}
        elems = (elems | {sigma, tau} | uppers) - {join}
    return KSlice(depth=depth + 1, elements=frozenset(elems))


@settings(max_examples=300, deadline=None)
@given(kslices())
def test_is_cusl_matches_pairwise_reference(K):
    assert is_cusl(K) == reference_is_cusl(K)
    assert kslice_to_dot(K) == reference_kslice_to_dot(K)


def test_kslices_cover_failing_and_boundary_cases():
    seen = Counter()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(kslices())
    def record(K):
        seen["fail" if not reference_is_cusl(K).ok else "pass"] += 1
        seen["not downward closed"] += not K.is_downward_closed()
        seen["boundary digits"] += any(not e.is_binary() for e in K.elements)
        seen["wide"] += any(e.length > 21 for e in K.elements)

    record()
    assert min(seen[k] for k in ("fail", "pass", "not downward closed",
                                 "boundary digits", "wide")) >= 10, seen


def _slice(*texts):
    elems = frozenset(parse(t) for t in texts)
    return KSlice(depth=max(e.length for e in elems), elements=elems)


def test_keyed_slice_makes_no_leq_or_join_call(monkeypatch):
    gray = enumerate_K(gray_subbase(8),
                       builtin_space("interval", Fraction(1, 4096)), 8)
    # missing joins "00": bounded by "000" alone, then by "000" and "001"
    least = _slice("", "0", "_0", "000")
    failing = _slice("", "0", "_0", "000", "001")
    calls = Counter()
    for name in ("leq", "join"):
        original = getattr(BottomedSeq, name)
        monkeypatch.setattr(BottomedSeq, name,
                            lambda self, other, _f=original, _n=name:
                            calls.update([_n]) or _f(self, other))
    reports = [is_cusl(K) for K in (gray, least, failing)]
    dots = [kslice_to_dot(K) for K in (gray, least, failing)]
    assert calls == Counter()
    monkeypatch.undo()
    assert [r.ok for r in reports] == [True, True, False]
    assert reports == [reference_is_cusl(K) for K in (gray, least, failing)]
    assert dots == [reference_kslice_to_dot(K) for K in (gray, least, failing)]


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
    assert report == reference_is_cusl(K)
    assert (render(report.sigma), render(report.tau)) == (sigma, tau)
    assert [render(u) for u in report.minimal_upper_bounds] == bounds
