"""Exact scalars and their wire format.

Every scalar in the toolkit is a fractions.Fraction (arbitrary precision,
always in lowest terms, positive denominator). Serialized form is the
string "a/b", with "/b" omitted when the denominator is 1. Integer inputs
given as text (indices, heights, seeds, widths) are read by
``parse_integer`` alone.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError

Rational = Fraction

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "a/b" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}: {exc}") from None
    raise DomainError(f"not a rational: {value!r} (floats are banned, use Fraction)")


_INTEGER = re.compile("-?[0-9]+")


def parse_integer(text: str) -> int:
    """An integer written as -?[0-9]+, with ASCII spaces around it allowed.

    Stricter than int(), which also reads "1_0", "+3", non-ASCII digits and
    other whitespace; those raise ValueError here, with int()'s message.
    """
    digits = text.strip(" ")
    if not _INTEGER.fullmatch(digits):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(digits)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
