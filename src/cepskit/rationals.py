"""Exact scalars and their wire format.

Every scalar in the toolkit is a fractions.Fraction (arbitrary precision,
always in lowest terms, positive denominator). Serialized form is the
string "a/b", with "/b" omitted when the denominator is 1. Text is read
strictly: ``parse_integer`` reads integer inputs (indices, heights, seeds,
widths) as -?[0-9]+, and ``parse_rational`` reads rationals (file weights,
--eps) as such an integer, optionally followed by "/" and a denominator of
digits.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError

RationalLike = Fraction | int | str


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or string (read by ``parse_rational``) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
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


_RATIONAL = re.compile(f"({_INTEGER.pattern})(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """A rational written as -?[0-9]+ or -?[0-9]+/[0-9]+, with ASCII spaces around.

    Stricter than Fraction(), which also reads "0.5", "1e-1", "1_0", "+3",
    non-ASCII digits and other whitespace; those raise ValueError here, with
    Fraction()'s message. A zero denominator raises ZeroDivisionError.
    """
    match = _RATIONAL.fullmatch(text.strip(" "))
    if not match:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    numerator, denominator = match.groups()
    if denominator is None:
        return Fraction(int(numerator))
    return Fraction(int(numerator), int(denominator))


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b", omitting the denominator when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
