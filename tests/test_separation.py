"""Min-cut subtour separation, differential-tested against a subset scan.

`_most_violated_sec` separates the subtour window [3, N-1] by min cut.
The oracle is `oracles.naive_sec_violations`, which scans every subset of
the window with set arithmetic.  The two may pick different sets on ties,
so they must agree on whether any row is violated and on the largest
violation, and the min-cut row must be violated by exactly that amount.
"""

import random
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    CombcertError,
    Edge,
    FractionalPoint,
    comb_inequality,
    is_implied,
)
from combcert import lp
from combcert.search import FAMILIES, sample_comb
from oracles import naive_sec_violations

HALF = Fraction(1, 2)


def _violation(row, point):
    return row.value_on(point) - row.rhs


def _assert_min_cut_matches_scan(instance, point):
    n = instance.num_vertices
    cut = lp._most_violated_sec(instance, point)
    scan = naive_sec_violations(instance, point, 3, n - 1)
    assert (cut is None) == (not scan)
    if cut is None:
        return None
    amount = max(value - (len(subset) - 1) for subset, value in scan)
    assert amount > 0
    assert _violation(cut, point) == amount
    assert 3 <= cut.rhs + 1 <= n - 1  # the row of S has rhs |S| - 1
    return amount


def _lazy_points(instance, combs, mode, monkeypatch):
    """Every LP point the lazy loop hands to separation."""
    seen = []
    separate = lp._most_violated_sec

    def record(inst, point):
        seen.append(point)
        return separate(inst, point)

    with monkeypatch.context() as patch:  # the oracle calls below must not record
        patch.setattr(lp, "_most_violated_sec", record)
        for comb in combs:
            is_implied(instance, comb_inequality(instance, comb), mode=mode)
    return seen


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_min_cut_matches_scan_on_lazy_points(n, monkeypatch):
    instance = BipartiteInstance.complete(n)
    rng = random.Random(400 + n)
    combs = [sample_comb(rng, instance, family) for family in FAMILIES for _ in range(2)]
    violated = 0
    for mode in ("le", "eq"):
        points = _lazy_points(instance, combs, mode, monkeypatch)
        assert len(points) >= len(combs)
        for point in points:
            violated += _assert_min_cut_matches_scan(instance, point) is not None
    if n >= 4:
        assert violated  # the lazy loop did add subtour rows


def _vertices(instance):
    ones = [v for v in instance.vertices() if v.cls == 1]
    twos = [v for v in instance.vertices() if v.cls == 2]
    return ones, twos


def _cycle_edges(ones, twos):
    """The alternating cycle a0 b0 a1 b1 ... back to a0."""
    k = len(ones)
    edges = [Edge(ones[i], twos[i]) for i in range(k)]
    edges += [Edge(ones[(i + 1) % k], twos[i]) for i in range(k)]
    return edges


def test_two_disjoint_four_cycles_on_k44():
    k44 = BipartiteInstance.complete(4)
    ones, twos = _vertices(k44)
    edges = _cycle_edges(ones[:2], twos[:2]) + _cycle_edges(ones[2:], twos[2:])
    point = FractionalPoint(k44, {e: 1 for e in edges})
    assert _assert_min_cut_matches_scan(k44, point) == 1
    row = lp._most_violated_sec(k44, point)
    assert row.rhs == 3  # one of the two 4-cycles


def test_half_integral_points():
    k44 = BipartiteInstance.complete(4)
    ones, twos = _vertices(k44)
    squares = _cycle_edges(ones[:2], twos[:2]) + _cycle_edges(ones[2:], twos[2:])
    tour = _cycle_edges(ones, twos)
    weights = {}
    for e in squares + tour:
        weights[e] = weights.get(e, 0) + HALF
    point = FractionalPoint(k44, weights)
    assert _assert_min_cut_matches_scan(k44, point) == HALF

    rng = random.Random(77)
    k55 = BipartiteInstance.complete(5)
    for _ in range(40):
        weights = {}
        for _ in range(2):
            ones, twos = _vertices(k55)
            rng.shuffle(ones)
            rng.shuffle(twos)
            cut = rng.choice((2, 3))  # a square or hexagon plus the rest
            for e in _cycle_edges(ones[:cut], twos[:cut]) + _cycle_edges(
                ones[cut:], twos[cut:]
            ):
                weights[e] = weights.get(e, 0) + HALF
        _assert_min_cut_matches_scan(k55, FractionalPoint(k55, weights))


def test_all_zero_point_has_no_violated_row():
    for n in (1, 2, 3, 5):
        instance = BipartiteInstance.complete(n)
        point = FractionalPoint(instance, {})
        assert _assert_min_cut_matches_scan(instance, point) is None


def test_min_cut_refuses_points_outside_degree_and_box():
    k33 = BipartiteInstance.complete(3)
    ones, twos = _vertices(k33)
    heavy = FractionalPoint(k33, {Edge(ones[0], twos[0]): 2})
    with pytest.raises(CombcertError, match="unit box"):
        lp._most_violated_sec(k33, heavy)
    star = FractionalPoint(k33, {Edge(ones[0], t): 1 for t in twos})
    with pytest.raises(CombcertError, match="degree rows"):
        lp._most_violated_sec(k33, star)
