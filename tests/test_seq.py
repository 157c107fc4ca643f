import itertools

import pytest
from hypothesis import given, strategies as st

from subbases.seq import (ALPHABET, BD, BOT, DIGITS, EMPTY, ONE, ZERO,
                          BottomedSeq, Incompatible, parse, render)

from reference import enumerate_sequences


def test_update():
    assert parse("__").update(0, ZERO) == parse("0_")
    assert parse("0_1").update(1, BD) == parse("0b1")
    assert parse("0b1").update(1, BOT) == parse("0_1")


def test_update_inverse():
    s = parse("0b1_1")
    for n in range(6):
        for a in (ZERO, ONE, BD, BOT):
            assert s.update(n, a).update(n, s[n]) == s


def test_concat():
    # the offset is len(sigma): trailing bottoms carry no content
    assert parse("0_").concat(parse("1")) == parse("01")
    assert parse("0b").concat(parse("1")) == parse("0b1")
    assert EMPTY.concat(parse("1b0")) == parse("1b0")
    assert parse("0b").repeat(2) == parse("0b0b")


def test_concat_associative_and_length():
    pool = [parse(t) for t in ("", "0", "_1", "b0", "01")]
    for a, b, c in itertools.product(pool, repeat=3):
        assert a.concat(b).concat(c) == a.concat(b.concat(c))
    for a, b in itertools.product(pool, repeat=2):
        if not b.is_empty():
            assert a.concat(b).length == a.length + b.length


def test_leq():
    assert EMPTY.leq(parse("01"))
    assert not parse("0_").leq(parse("1_"))
    assert parse("0_1").leq(parse("011"))
    assert parse("01").leq(parse("01"))


def test_join():
    assert parse("0_").join(parse("_1")) == parse("01")
    with pytest.raises(Incompatible) as exc:
        parse("0_").join(parse("1_"))
    assert exc.value.index == 0
    s = parse("b01")
    assert s.join(EMPTY) == s
    assert parse("0_").try_join(parse("1_")) is None


def test_restrict():
    assert parse("011").restrict(2) == parse("01")
    assert parse("011").restrict(0) == EMPTY
    assert parse("0_1").restrict(2) == parse("0")
    s = parse("0b_1")
    for n in range(6):
        assert s.restrict(n).leq(s)
    assert s.restrict(s.length) == s


def test_decompose():
    # the worked decomposition of a mixed sequence
    assert parse("0b1").decompose() == (parse("0_1"), parse("_b"))
    assert parse("01").decompose() == (parse("01"), EMPTY)
    assert parse("bb").decompose() == (EMPTY, parse("bb"))


def test_decompose_join_roundtrip_exhaustive():
    for s in enumerate_sequences(4, DIGITS):
        binary, bd = s.decompose()
        assert binary.is_binary()
        assert all(v == BD for _, v in bd.items())
        assert binary.join(bd) == s


def test_join_is_least_upper_bound_small():
    elems = list(enumerate_sequences(3, (ZERO, ONE)))
    for a, b in itertools.product(elems, repeat=2):
        j = a.try_join(b)
        if j is None:
            # no upper bound may exist at all
            assert not any(a.leq(u) and b.leq(u) for u in elems)
            continue
        assert a.leq(j) and b.leq(j)
        for u in elems:
            if a.leq(u) and b.leq(u):
                assert j.leq(u)


def test_codec_roundtrip_and_errors():
    for text in ("", "0", "0_1", "b_b", "0110b"):
        assert render(parse(text)) == text.rstrip("_")
    assert render(parse("0_1"), width=5) == "0_1__"
    with pytest.raises(ValueError):
        parse("02")
    with pytest.raises(ValueError):
        parse("0 1")


def test_empty_sequence_is_least():
    assert EMPTY.length == 0
    for s in enumerate_sequences(3, DIGITS):
        assert EMPTY.leq(s)


seq_strategy = st.builds(
    BottomedSeq,
    st.dictionaries(st.integers(min_value=0, max_value=7),
                    st.sampled_from(DIGITS), max_size=6))


@given(seq_strategy, seq_strategy)
def test_join_commutes_when_defined(a, b):
    ja, jb = a.try_join(b), b.try_join(a)
    assert ja == jb


@given(seq_strategy, st.integers(min_value=0, max_value=9))
def test_restrict_below(s, n):
    assert s.restrict(n).leq(s)


@given(seq_strategy)
def test_parse_render_roundtrip(s):
    assert parse(render(s)) == s
