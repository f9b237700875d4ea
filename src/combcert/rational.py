"""Exact rational scalars and their wire format.

Every value this package holds or returns is in one exact form: a plain
int when it is integral, else the `fractions.Fraction` it is (with a
denominator above 1); nothing is ever a float.  Counterexample margins
in this problem family are exact halves, so any rounding would be fatal.
This module is the one place that knows the form: `exact_value` checks a
value from outside and puts it in the form, and `normal` puts the result
of exact arithmetic on values already in it back in the form.

On the wire a rational is the string "[+-]digits" or "[+-]digits/digits"
(`format_rational` writes "p/q" reduced with q > 0, or a plain integer),
or a JSON integer; `parse_rational` reads it into the form.  Both sides
convert digits in pieces of 600, so neither meets the interpreter's
integer-string limit (4,300 digits by default), which this package
leaves as it is.  A wire string is at most `MAX_WIRE_CHARS` = 20,000
characters; a longer one is refused before it is read, since reading
decimal digits takes time quadratic in their number.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

_WIRE = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")
MAX_WIRE_CHARS = 20_000
_PIECE_DIGITS = 600  # str() and int() of a piece stay under any limit the interpreter accepts
_PIECE = 10**_PIECE_DIGITS


def parse_rational(text) -> int | Fraction:
    """Parse "[+-]digits" or "[+-]digits/digits" strings, or an int, into
    the package's form.

    Nothing else is read.  A bool is refused: it is an int in Python, but
    JSON `true` is no number.  Floats, exponents, decimals, underscores and
    surrounding blanks, all of which `Fraction` itself would take, are
    refused too: a ten-character exponent form such as "1e3000000" would
    otherwise expand to a ten-million-bit integer.  So is a string longer
    than `MAX_WIRE_CHARS`, unread.
    """
    if isinstance(text, Fraction):
        return normal(text)
    if isinstance(text, bool):
        raise ValueError(f"booleans are not rationals: {text!r}")
    if isinstance(text, int):
        return text
    if isinstance(text, str) and len(text) > MAX_WIRE_CHARS:
        raise ValueError(
            f"not a rational: {len(text)} characters, more than {MAX_WIRE_CHARS}"
        )
    wire = _WIRE.fullmatch(text) if isinstance(text, str) else None
    if wire is None:
        raise ValueError(f"not a rational: {text!r}")
    sign, numerator, denominator = wire.groups()
    p = _integer(numerator)
    q = 1 if denominator is None else _integer(denominator)
    if q == 0:
        raise ValueError(f"not a rational: {text!r}")
    return normal(Fraction(-p if sign == "-" else p, q))


def _integer(digits: str) -> int:
    """int(digits) at any length, read in pieces: the inverse of `_digits`."""
    head = len(digits) % _PIECE_DIGITS or _PIECE_DIGITS
    n = int(digits[:head])
    for k in range(head, len(digits), _PIECE_DIGITS):
        n = n * _PIECE + int(digits[k : k + _PIECE_DIGITS])
    return n


def _digits(n: int) -> str:
    """str(n) at any size, without lifting the integer-string limit."""
    if n < 0:
        return "-" + _digits(-n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(str(low).zfill(_PIECE_DIGITS))
    return str(n) + "".join(reversed(pieces))


def format_rational(value: int | Fraction) -> str:
    """The wire form of `value`, exact at any size; anything but an int or
    a Fraction raises `TypeError` (`exact_value`)."""
    value = exact_value(value, "rational")
    if value.__class__ is int:
        return _digits(value)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def normal(value: int | Fraction) -> int | Fraction:
    """`value`, an int or a Fraction, as an int when it is integral, else
    as the Fraction it is.  Unchecked: it is for the results of exact
    arithmetic, not for values from outside (`exact_value`)."""
    if value.__class__ is int or value.denominator != 1:
        return value
    return value.numerator


def exact_value(value, *where) -> int | Fraction:
    """`value` in the package's form, after checking it is an int or a Fraction.

    A float, a bool, a string, None or anything else raises `TypeError`,
    although `Fraction()` itself would read most of them.  The message
    names the value by `where`, whose parts are joined by spaces only
    when it is raised.
    """
    if value.__class__ is int:
        return value
    if isinstance(value, Fraction):
        return normal(value)
    label = " ".join(map(str, where))
    raise TypeError(f"{label}: expected an int or a Fraction, got {value!r}")


def scale_to_ints(values) -> tuple[list[int], int]:
    """(each value times D, D) for ints and Fractions, D the lcm of their
    denominators (1 for none): v * D is v.numerator * (D // v.denominator)."""
    values = list(values)
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    return [v.numerator * (scale // v.denominator) for v in values], scale
