"""Exact rational scalars and their wire format.

All quantities in this package are exact: a `fractions.Fraction`, or a
plain int where the value is integral (row coefficients and right-hand
sides, tableau entries); nothing is ever a float.  Counterexample margins in this problem family are exact halves,
so any rounding would be fatal.  On the wire a rational is the string
"[+-]digits" or "[+-]digits/digits" (`format_rational` writes "p/q"
reduced with q > 0, or a plain integer), or a JSON integer.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

_WIRE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text) -> Fraction:
    """Parse "[+-]digits" or "[+-]digits/digits" strings, or an int.

    Nothing else is read.  A bool is refused: it is an int in Python, but
    JSON `true` is no number.  Floats, exponents, decimals, underscores and
    surrounding blanks, all of which `Fraction` itself would take, are
    refused too: a ten-character exponent form such as "1e3000000" would
    otherwise expand to a ten-million-bit integer.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValueError(f"booleans are not rationals: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _WIRE.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # too many digits, or q = 0
        raise ValueError(f"not a rational: {text!r}") from exc


_PIECE = 10**600  # str() of a piece stays under any limit the interpreter accepts


def _digits(n: int) -> str:
    """str(n) at any size, without lifting the integer-string limit."""
    if n < 0:
        return "-" + _digits(-n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(str(low).zfill(600))
    return str(n) + "".join(reversed(pieces))


def format_rational(value: Fraction) -> str:
    """The wire form of `value`, exact at any size."""
    value = Fraction(value)
    if value.denominator == 1:
        return _digits(value.numerator)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def exact_value(value, where: str) -> int | Fraction:
    """`value` as an int when it is integral, else as the Fraction it is.

    Only an int or a Fraction is taken: a float, a bool, a string or None
    raises `TypeError` naming `where`, although `Fraction()` itself would
    read most of them.
    """
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"{where}: expected an int or a Fraction, got {value!r}")


def scale_to_ints(values) -> tuple[list[int], int]:
    """(each value times D, D) for ints and Fractions, D the lcm of their
    denominators (1 for none): v * D is v.numerator * (D // v.denominator)."""
    values = list(values)
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale
