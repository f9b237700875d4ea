import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

import pytest

from combcert import Edge, VertexId
from combcert.rational import (
    MAX_WIRE_CHARS,
    exact_value,
    format_rational,
    normal,
    parse_rational,
    scale_to_ints,
)
from oracles import in_normal_form


def _lcm_of_denominators(values):
    scale = 1
    for v in values:
        scale = lcm(scale, v.denominator)
    return scale


def _spellings(values):
    """The hand-written scalings `scale_to_ints` replaced, each with the lcm
    of the denominators: the duality audit's, `facet_test`'s and
    `scan_inputs`'s."""
    scale = _lcm_of_denominators(values)
    return scale, [
        [v.numerator * (scale // v.denominator) for v in values],
        [(v * scale).numerator for v in values],
        [int(v * scale) for v in values],
    ]


HALF = Fraction(1, 2)
BIG = 7 ** 5917  # 5,001 decimal digits

CASES = [
    [],
    [0],
    [3, -4, 0, 1],
    [Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 6)],
    [Fraction(-1, 4), Fraction(-3, 10), -2],
    [Fraction(4, 2), Fraction(-9, 3)],
    [Fraction(BIG, BIG + 2), -BIG, Fraction(-1, BIG), Fraction(BIG + 1, 6)],
]


@pytest.mark.parametrize("values", CASES)
def test_scale_to_ints_matches_the_three_spellings(values):
    ints, scale = scale_to_ints(values)
    expected_scale, spellings = _spellings(values)
    assert scale == expected_scale
    assert all(type(v) is int for v in ints)
    for spelled in spellings:
        assert ints == spelled
    assert [Fraction(v, scale) for v in ints] == [Fraction(v) for v in values]


def test_scale_to_ints_reads_an_iterator_once():
    ints, scale = scale_to_ints(iter([Fraction(1, 3), Fraction(1, 2)]))
    assert (ints, scale) == ([2, 3], 6)
    assert scale_to_ints(iter(())) == ([], 1)


NORMAL_CASES = [
    0,
    7,
    -3,
    Fraction(0),
    Fraction(6, 3),
    Fraction(-8, 4),
    Fraction(1, 2),
    Fraction(-5, 3),
    BIG,
    -BIG,
    Fraction(BIG * 3, 3),
    Fraction(-BIG, 1),
    Fraction(BIG, BIG + 2),
    Fraction(-1, BIG),
]


@pytest.mark.parametrize("value", NORMAL_CASES, ids=range(len(NORMAL_CASES)))
def test_normal_is_the_fraction_in_its_one_form(value):
    """`normal` keeps the value and gives an int exactly when the Fraction
    of the value has denominator 1."""
    reference = Fraction(value)
    result = normal(value)
    assert in_normal_form(result)
    assert result == reference
    assert (type(result) is int) == (reference.denominator == 1)
    if type(result) is int:
        assert result == reference.numerator
    for read in (exact_value(value, "value"), parse_rational(value)):
        assert read == result and type(read) is type(result)


def test_parse_rational_reads_the_wire_into_the_one_form():
    cases = (("7", 7), ("-4/2", -2), ("0/5", 0), ("1/2", HALF), ("-6/4", Fraction(-3, 2)))
    for text, expected in cases:
        read = parse_rational(text)
        assert read == expected and in_normal_form(read)
        assert type(read) is (int if Fraction(text).denominator == 1 else Fraction)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1/2", "1", None, 1 + 0j, 2j])
def test_exact_value_refuses_anything_but_an_int_or_a_fraction(bad):
    e = Edge(VertexId(1, 0), VertexId(2, 3))
    with pytest.raises(TypeError) as refused:
        exact_value(bad, "coefficient of edge", e)
    assert str(refused.value) == (
        f"coefficient of edge {e}: expected an int or a Fraction, got {bad!r}"
    )
    with pytest.raises(TypeError, match=r"^rhs: expected an int or a Fraction"):
        exact_value(bad, "rhs")


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, True, False, "1/2", "3", None])
def test_format_rational_refuses_anything_but_an_int_or_a_fraction(bad):
    # Fraction(0.1) would print as 3602879701896397/36028797018963968.
    with pytest.raises(TypeError) as refused:
        format_rational(bad)
    assert str(refused.value) == f"rational: expected an int or a Fraction, got {bad!r}"


def test_format_rational_writes_ints_and_fractions_in_the_wire_form():
    cases = ((7, "7"), (-3, "-3"), (0, "0"), (Fraction(4, 2), "2"), (Fraction(-6, 4), "-3/2"))
    for value, text in cases:
        assert format_rational(value) == text


def _decimal_int(digits):
    """int(digits) through `decimal`, which has no integer-string limit."""
    with localcontext() as context:
        context.prec = len(digits) + 1
        return int(Decimal(digits))


@pytest.mark.parametrize("length", [1, 599, 600, 601, 1200, 4301, 5001, 9999])
def test_parse_rational_reads_long_digit_strings_in_pieces(length):
    rng = random.Random(length)
    p = "".join(rng.choice("0123456789") for _ in range(length))
    q = "".join(rng.choice("0123456789") for _ in range(length - 1)) + "7"
    for sign, factor in (("", 1), ("+", 1), ("-", -1)):
        assert parse_rational(sign + p) == factor * _decimal_int(p)
        read = parse_rational(f"{sign}{p}/{q}")
        assert read == Fraction(factor * _decimal_int(p), _decimal_int(q))
        assert in_normal_form(read)


@pytest.mark.parametrize(
    "value",
    [BIG, -BIG, Fraction(1, BIG), Fraction(-BIG - 1, 6), 10**4300],
    ids=["big", "-big", "1/big", "-(big+1)/6", "10**4300"],
)
def test_parse_rational_inverts_format_rational_past_the_integer_string_limit(value):
    text = format_rational(value)
    assert len(text) > 4300
    assert parse_rational(text) == value


def test_parse_rational_refuses_a_string_past_the_wire_limit_unread():
    at_limit = "1/" + "3" * (MAX_WIRE_CHARS - 2)
    assert parse_rational(at_limit) == Fraction(1, _decimal_int(at_limit[2:]))
    for text in ("1/" + "3" * (MAX_WIRE_CHARS - 1), "x" * (MAX_WIRE_CHARS + 1)):
        with pytest.raises(ValueError) as refused:
            parse_rational(text)
        assert str(refused.value) == "not a rational: 20001 characters, more than 20000"
    with pytest.raises(ValueError, match=r"^not a rational: '1/0'$"):
        parse_rational("1/0")
