"""Codes over {0, 1, b, _}: the digit codes and the output form of codes.

A digit is its int code: ZERO, ONE, the boundary digit BD and the bottom
BOT.  A code is one `bytes` value, one digit code per position, with no
trailing BOT: every position past its end is bottom, so equal codes are
equal bytes and `len` is the code's length.  Only `render` reads
letters: `CODEC[code]`, so 'b' marks a boundary classification and '_'
the bottom (undecided) digit.

The order on codes is computed on K-slice keys (`subbase.KSlice`); a
code is a value for reports, labels and `phi`.
"""

from __future__ import annotations

from typing import Iterable

ZERO, ONE, BD, BOT = 0, 1, 2, 3
CODEC = "01b_"  # the ASCII letter of each code

BINARY_DIGITS = (ZERO, ONE)
DIGITS = (ZERO, ONE, BD)


def as_code(digits: Iterable[int]) -> bytes:
    """The code of a run of digit codes: their bytes, trailing BOT stripped."""
    return bytes(digits).rstrip(bytes([BOT]))


def render(code: bytes, width: int = 0) -> str:
    """Print in the ASCII codec, padded with '_' up to width."""
    return "".join(CODEC[d] for d in code).ljust(width, CODEC[BOT])
