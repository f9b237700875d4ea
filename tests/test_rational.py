from fractions import Fraction
from math import lcm

import pytest

from combcert.rational import scale_to_ints


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
