"""Exact rational helpers shared by every module.

All probabilities in this package are `fractions.Fraction` values: the
text form is parsed to one, and ``pushdown.validate_model`` refuses a model
built in code with any other probability type, floats and bools included.
The text form is ``p/q``, or just ``p`` when the denominator is 1.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import PpdaInputError, quote

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_NATURAL_RE = re.compile(r"[0-9]+")


class RationalFormatError(PpdaInputError):
    """Raised when a rational token does not match ``int`` or ``int/posint``."""


# An int/str conversion limit is 0 (none) or at least 640 digits
# (sys.set_int_max_str_digits), so none refuses an int below 10**600.
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def parse_rational(text: str) -> Fraction:
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise RationalFormatError(f"not a rational: {quote(text)}")
    try:
        num, den = (int(part) for part in m.groups("1"))
    except ValueError:  # the pattern admits digits only, so only the digit limit refuses them
        raise RationalFormatError(
            f"rational of {len(text.strip())} characters exceeds the interpreter's integer digit limit"
        ) from None
    if den == 0:
        raise RationalFormatError(f"zero denominator: {quote(text)}")
    return Fraction(num, den)


def parse_natural(text: str, subject: str, error: type[PpdaInputError] = PpdaInputError) -> int:
    """The value of ``text``, a numeral of the ASCII digits 0-9 only.

    ``int`` alone would also read a sign, underscores, surrounding
    whitespace and the digits of other scripts; each is refused here with
    ``error``, as is a numeral longer than the interpreter's digit limit.
    """
    if not _NATURAL_RE.fullmatch(text):
        raise error(f"{subject} must be a numeral of digits 0-9, got {quote(text)}")
    try:
        return int(text)
    except ValueError:  # the pattern admits digits only, so only the digit limit refuses them
        raise error(f"{subject} of {len(text)} characters exceeds the interpreter's integer digit limit") from None


def _decimal(n: int) -> str:
    pieces, rest = [], abs(n)
    while rest >= _PIECE:
        rest, piece = divmod(rest, _PIECE)
        pieces.append(str(piece).zfill(_PIECE_DIGITS))
    return ("-" if n < 0 else "") + str(rest) + "".join(reversed(pieces))


def format_rational(value: Fraction) -> str:
    """The exact text of ``value``, converted in pieces that no int/str digit limit refuses."""
    text = _decimal(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"
