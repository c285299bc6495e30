"""Exact rational helpers shared by every module.

All probabilities in this package are `fractions.Fraction` values; floats
are rejected wherever a probability enters the system. The text form is
``p/q``, or just ``p`` when the denominator is 1.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import PpdaInputError

_RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class RationalFormatError(PpdaInputError):
    """Raised when a rational token does not match ``int`` or ``int/posint``."""


def parse_rational(text: str) -> Fraction:
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise RationalFormatError(f"not a rational: {text!r}")
    num = int(m.group(1))
    if m.group(2) is None:
        return Fraction(num)
    den = int(m.group(2))
    if den == 0:
        raise RationalFormatError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def require_fraction(value, what: str = "probability") -> Fraction:
    """Reject floats and other inexact types; ints are promoted."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{what} must be an exact rational, got {type(value).__name__}")
