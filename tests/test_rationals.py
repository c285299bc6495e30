import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ppda.rationals import RationalFormatError, format_rational, parse_rational


def test_parse_integer_and_fraction():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-7/4") == Fraction(-7, 4)


def test_format_drops_unit_denominator():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(3, 16)) == "3/16"


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1.5", "1/-2", "1 / 2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


@pytest.mark.parametrize("text", ["1" * 4301, "1/" + "3" * 4301, "-" + "2" * 4301 + "/7"],
                         ids=["integer", "denominator", "numerator"])
def test_parse_refuses_numerals_over_the_digit_limit(digit_limit, text):
    with pytest.raises(RationalFormatError, match="integer digit limit"):
        parse_rational(text)


@pytest.mark.parametrize("value", [
    Fraction(10**9000 + 7, 3**7000),
    Fraction(-1, 10**4400),
    Fraction(-(10**600)),
    Fraction(10**600 - 1, 10**600 + 1),
])
def test_format_is_exact_past_the_digit_limit(digit_limit, value):
    text = format_rational(value)
    assert sys.get_int_max_str_digits() == digit_limit
    sys.set_int_max_str_digits(0)
    assert text == str(value)
    assert parse_rational(text) == value


@given(st.integers(), st.integers(min_value=1, max_value=10**6))
def test_round_trip(num, den):
    value = Fraction(num, den)
    assert parse_rational(format_rational(value)) == value
