"""The one base class of input errors, and reading input files as text.

Every error that malformed or out-of-range input raises is a
``PpdaInputError``, which is also a ``ValueError``. The command line
reports exactly these (and ``OSError``) as usage errors with exit 2; any
other exception is an internal fault and escapes. A message quotes raw
input through ``quote``, and prints a value computed from input through
``bounded``, so its length stays bounded whatever the input.
"""
from __future__ import annotations


# The most characters of raw input an error message quotes.
QUOTE_LIMIT = 40


def quote(text: str) -> str:
    """``repr(text)``, or, past ``QUOTE_LIMIT`` characters, the repr of its
    first ``QUOTE_LIMIT`` characters followed by its length."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def bounded(text: str) -> str:
    """``text`` as it is up to ``QUOTE_LIMIT`` characters, and through ``quote``
    past that: for subjects and computed values that print unquoted."""
    return text if len(text) <= QUOTE_LIMIT else quote(text)


class PpdaInputError(ValueError):
    """Malformed or out-of-range input."""


class InputEncodingError(PpdaInputError):
    """An input file is not UTF-8 text."""


def read_text(path) -> str:
    """The contents of an input file, decoded as UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InputEncodingError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
