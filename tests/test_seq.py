"""Codes and their rendering, the reference's `BottomedSeq` as a value,
and the order on codes as the package runs it: K-slice keys, where
u <= v iff key(u) is a subset of key(v), and a pair with no
`_clash_bits` in common joins to the OR of its keys.  The reference's
`leq`, `join`, `restrict` and `decompose` on `BottomedSeq`s are the
oracle."""

import pytest
from hypothesis import given, strategies as st

from subbases.seq import BD, BOT, DIGITS, ONE, ZERO, as_code, render
from subbases.subbase import _clash_bits

from reference import (EMPTY, BottomedSeq, assert_keys_follow_the_order,
                       decompose, enumerate_sequences, is_binary, join, leq,
                       parse, restrict, seq_code, seq_key, update)

WIDTH = 8  # wide enough for every worked example


def key_leq(u, v, width=WIDTH):
    ku = seq_key(u, width)
    return ku & seq_key(v, width) == ku


def key_join(u, v, width=WIDTH):
    """The key of the join of u and v, or None when they clash."""
    ku, kv = seq_key(u, width), seq_key(v, width)
    return None if ku & _clash_bits(kv, width) else ku | kv


def prefix_mask(n, width):
    """The key bits of positions below n, every digit."""
    low = (1 << min(n, width)) - 1
    return low | low << width | low << (2 * width)


def test_update():
    assert update(parse("__"), 0, ZERO) == parse("0_")
    assert update(parse("0_1"), 1, BD) == parse("0b1")
    assert update(parse("0b1"), 1, BOT) == parse("0_1")


def test_update_inverse():
    s = parse("0b1_1")
    for n in range(6):
        for a in (ZERO, ONE, BD, BOT):
            assert update(update(s, n, a), n, s[n]) == s


def test_leq():
    for u, v, below in (("", "01", True), ("0_", "1_", False),
                        ("0_1", "011", True), ("01", "01", True),
                        ("0b", "01", False), ("_b", "0b1", True)):
        assert leq(parse(u), parse(v)) == key_leq(parse(u), parse(v)) == below


def test_join():
    assert join(parse("0_"), parse("_1")) == parse("01")
    assert join(parse("0_"), parse("1_")) is None
    assert join(parse("b_"), parse("0_")) is None
    s = parse("b01")
    assert join(s, EMPTY) == s
    for u, v in (("0_", "_1"), ("0_", "1_"), ("b_", "0_"), ("b01", ""),
                 ("_b", "0b1"), ("1__0", "_b1")):
        j = join(parse(u), parse(v))
        assert key_join(parse(u), parse(v)) == (
            None if j is None else seq_key(j, WIDTH))


def test_restrict():
    assert restrict(parse("011"), 2) == parse("01")
    assert restrict(parse("011"), 0) == EMPTY
    assert restrict(parse("0_1"), 2) == parse("0")
    s = parse("0b_1")
    for n in range(6):
        assert leq(restrict(s, n), s)
        assert seq_key(restrict(s, n), WIDTH) == (
            seq_key(s, WIDTH) & prefix_mask(n, WIDTH))
    assert restrict(s, s.length) == s


def test_decompose():
    # the worked decomposition of a mixed sequence
    assert decompose(parse("0b1")) == (parse("0_1"), parse("_b"))
    assert decompose(parse("01")) == (parse("01"), EMPTY)
    assert decompose(parse("bb")) == (EMPTY, parse("bb"))


def test_decompose_join_roundtrip_exhaustive():
    """Over every sequence of length <= 5: the parts never clash, and
    their join, and the OR of their keys, give the sequence back."""
    for s in enumerate_sequences(5, DIGITS):
        binary, bd = decompose(s)
        assert is_binary(binary)
        assert all(v == BD for _, v in bd.items())
        assert join(binary, bd) == s
        assert key_join(binary, bd, 5) == seq_key(s, 5)


def test_join_is_least_upper_bound_small():
    """The key algebra against `leq` and `join` on every pair of the
    sequences of length <= 4 over {0, 1, b}, and the least upper bound
    law on their keys."""
    assert_keys_follow_the_order(list(enumerate_sequences(4, DIGITS)))


def test_codec_roundtrip_and_errors():
    for text in ("", "0", "0_1", "b_b", "0110b", "0_1__"):
        assert render(seq_code(parse(text))) == text.rstrip("_")
    assert render(seq_code(parse("0_1")), width=5) == "0_1__"
    with pytest.raises(ValueError):
        parse("02")
    with pytest.raises(ValueError):
        parse("0 1")
    with pytest.raises(ValueError):
        BottomedSeq({0: "0"})  # a letter, not a digit code
    with pytest.raises(ValueError):
        BottomedSeq({0: BOT})  # bottom is the absence of an entry
    with pytest.raises(ValueError):
        BottomedSeq({-1: ZERO})


def test_render_codes():
    """A code is its digit codes' bytes with no trailing BOT; `render`
    prints one letter per position and pads with '_' up to the width."""
    assert render(b"") == "" and render(b"", width=3) == "___"
    code = bytes([ZERO, BOT, ONE])
    assert render(code) == "0_1" and render(code, width=5) == "0_1__"
    assert render(code, width=2) == "0_1"  # never cut
    assert render(bytes([BD, ONE, BD])) == "b1b"
    assert as_code([ZERO, BOT, ONE, BOT, BOT]) == code
    assert as_code([BOT, BOT]) == as_code([]) == b""
    assert as_code(iter([BD, BOT, BD])) == bytes([BD, BOT, BD])
    assert len(as_code([BOT, ONE, BOT])) == BottomedSeq({1: ONE}).length == 2
    assert seq_code(parse("_b__1__")) == bytes([BOT, BD, BOT, BOT, ONE])


def test_empty_sequence_is_least():
    assert EMPTY.length == 0 and seq_key(EMPTY, 3) == 0
    for s in enumerate_sequences(3, DIGITS):
        assert leq(EMPTY, s) and key_leq(EMPTY, s, 3)


def test_sequence_is_a_value():
    s = BottomedSeq({3: ONE, 0: BD})
    assert s.length == 4
    assert (s[0], s[1], s[3], s[9]) == (BD, BOT, ONE, BOT)
    assert list(s.items()) == [(0, BD), (3, ONE)]
    assert s == BottomedSeq([(0, BD), (3, ONE)]) == parse("b__1")
    assert hash(s) == hash(parse("b__1"))
    assert s != parse("b__0") and s != "b__1"
    assert repr(s) == "BottomedSeq('b__1')"


# positions up to 40: keys of width 41 are Python ints past uint64
seq_strategy = st.builds(
    BottomedSeq,
    st.dictionaries(st.integers(min_value=0, max_value=40),
                    st.sampled_from(DIGITS), max_size=6))


@given(seq_strategy, seq_strategy)
def test_join_commutes_when_defined(a, b):
    ja, jb = key_join(a, b, 41), key_join(b, a, 41)
    assert ja == jb
    j = join(a, b)
    assert j == join(b, a)
    assert ja == (None if j is None else seq_key(j, 41))


@given(seq_strategy, st.integers(min_value=0, max_value=42))
def test_restrict_below(s, n):
    assert leq(restrict(s, n), s)
    key = seq_key(restrict(s, n), 41)
    assert key == seq_key(s, 41) & prefix_mask(n, 41)
    assert key_leq(restrict(s, n), s, 41)


@given(seq_strategy)
def test_parse_render_roundtrip(s):
    assert parse(render(seq_code(s))) == s
