"""Exact rational scalars and their wire format.

All quantities in this package are `fractions.Fraction`; nothing is ever
a float.  Counterexample margins in this problem family are exact halves,
so any rounding would be fatal.  On the wire a rational is the string
"p/q" (reduced, q > 0) or a plain integer string.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def parse_rational(text) -> Fraction:
    """Parse "p/q" or integer strings (ints are accepted for convenience).

    A bool is refused: it is an int in Python, but JSON `true` is no number.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValueError(f"booleans are not rationals: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValueError(f"floats are not exact: {text!r}")
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_integral(value: Fraction) -> bool:
    return Fraction(value).denominator == 1


def common_denominator(values) -> int:
    """lcm of the denominators; 1 for an empty collection."""
    result = 1
    for v in values:
        result = lcm(result, Fraction(v).denominator)
    return result
