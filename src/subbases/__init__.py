"""Dyadic subbases made computational: bottomed-sequence codes of metric
spaces, grid-scale properness checks, and randomized cut construction."""

from .seq import (BD, BOT, EMPTY, ONE, ZERO, BottomedSeq, Incompatible,
                  parse, render)
from .space import (POINT_AT_INFINITY, SpaceModel, builtin_space,
                    compactified_example, gray_digit, gray_subbase)
from .subbase import (DistanceCut, DistanceSubbase, DyadicSubbase, KSlice,
                      OracleSubbase, digit_table, duplicated_subbase,
                      enumerate_K, is_cusl, kslice_to_dot, member_closed,
                      member_open, permute, phi)
from .checker import (CheckReport, check_exterior_pair, check_proper,
                      check_strong_proper)
from .builder import BuilderParams, build, unpair

__all__ = [
    "BD", "BOT", "EMPTY", "ONE", "ZERO", "BottomedSeq", "Incompatible",
    "parse", "render",
    "POINT_AT_INFINITY", "SpaceModel", "builtin_space",
    "compactified_example", "gray_digit", "gray_subbase",
    "DistanceCut", "DistanceSubbase", "DyadicSubbase", "KSlice",
    "OracleSubbase", "digit_table", "duplicated_subbase", "enumerate_K",
    "is_cusl", "kslice_to_dot", "member_closed", "member_open", "permute",
    "phi",
    "CheckReport", "check_exterior_pair", "check_proper",
    "check_strong_proper",
    "BuilderParams", "build", "unpair",
]

__version__ = "0.1.0"
