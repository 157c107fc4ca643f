"""Property tests for the shared digit table.

Each test keeps the slow per-sample reference (a loop over `S.digit` or
`phi`) next to the table-based code it checks.
"""

import functools
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from subbases.builder import BuilderParams, build
from subbases.files import load_subbase, save_subbase, subbase_to_json
from subbases.space import builtin_space, compactified_example, gray_subbase
from subbases.subbase import (DIGIT_CODE, digit_table, duplicated_subbase,
                              enumerate_K, permute, phi)

SPACES = (("interval", Fraction(1, 32)), ("square", Fraction(1, 16)))


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
        S = gray_subbase(8)
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
    reference = np.array([[DIGIT_CODE[S.digit(k, x)] for x in M.sample_points]
                          for k in range(depth)], dtype=np.int8)
    table = digit_table(S, M, depth)
    assert table.shape == (depth, len(M.sample_points))
    assert np.array_equal(table, reference.reshape(table.shape))


@settings(max_examples=40, deadline=None)
@given(subbases())
def test_enumerate_K_matches_restricted_codes(case):
    S, M, depth = case
    reference = {phi(S, x, depth).restrict(m)
                 for x in M.sample_points for m in range(depth + 1)}
    assert enumerate_K(S, M, depth).elements == reference


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(SPACES), st.integers(0, 3), st.booleans())
def test_builder_table_matches_saved_subbase(space, seed, strong):
    result, S, M = built(space[0], space[1], seed, strong)
    assert np.array_equal(result.table, digit_table(S, M, len(S)))
    assert np.array_equal(result.table,
                          digit_table(result.subbase, result.subbase.space,
                                      len(S)))
