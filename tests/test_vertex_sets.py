"""Differential tests for the edges inside a vertex set.

Subtour rows, comb rows and `set_weight` read x(E(S)) off
`BipartiteInstance.edges_within`.  Each is checked here against the scan it
replaced (`oracles.scan_*`), which tests every instance edge against the
set, on complete, thinned, unequal and random sparse instances.
"""

import random
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    Edge,
    FractionalPoint,
    UnknownVertexError,
    VertexId,
    comb_inequality,
    comb_value,
    load_table,
    sec_constraint,
    set_weight,
)
from combcert.search import FAMILIES, sample_comb
from oracles import scan_comb_coeffs, scan_sec_coeffs, scan_set_weight


def _instance(n1, n2, pairs):
    return BipartiteInstance(
        tuple(f"a{i}" for i in range(n1)),
        tuple(f"b{j}" for j in range(n2)),
        frozenset(Edge(VertexId(1, a), VertexId(2, b)) for a, b in pairs),
    )


def _sparse(rng):
    n1, n2 = rng.randint(4, 7), rng.randint(4, 7)
    density = rng.uniform(0.2, 0.7)
    return _instance(
        n1, n2, [(a, b) for a in range(n1) for b in range(n2) if rng.random() < density]
    )


def _instances():
    rng = random.Random(1616)
    named = [(f"K{n}{n}", BipartiteInstance.complete(n)) for n in range(3, 11)]
    missing = {(0, 0), (1, 2), (3, 1), (3, 3)}
    thinned = [(a, b) for a in range(4) for b in range(4) if (a, b) not in missing]
    named.append(("K44-4", _instance(4, 4, thinned)))
    named.append(("table2", load_table(2)[0]))
    named += [(f"sparse{k}", _sparse(rng)) for k in range(12)]
    return dict(named)


INSTANCES = _instances()


def _subsets(instance, rng, count=30):
    vertices = list(instance.vertices())
    yield frozenset()
    yield frozenset(vertices)
    for _ in range(count):
        yield frozenset(rng.sample(vertices, rng.randint(1, len(vertices))))


def _point(instance, rng):
    """Random weights on some of the edges, explicit zeros included."""
    return FractionalPoint(
        instance,
        {
            e: Fraction(rng.randint(0, 4), rng.randint(1, 3))
            for e in instance.sorted_edges
            if rng.random() < 0.7
        },
    )


@pytest.mark.parametrize("name", INSTANCES)
def test_subtour_rows_and_edges_within_match_the_scan(name):
    instance = INSTANCES[name]
    rng = random.Random(instance.num_vertices * 31 + len(instance.edges))
    for subset in _subsets(instance, rng):
        expected = scan_sec_coeffs(instance, subset)
        within = instance.edges_within(subset)
        assert within == sorted(within)
        assert within == sorted(expected)
        assert sec_constraint(instance, subset).coeffs == expected


@pytest.mark.parametrize("name", INSTANCES)
def test_comb_rows_and_set_weights_match_the_scan(name):
    instance = INSTANCES[name]
    rng = random.Random(instance.num_vertices * 37 + len(instance.edges))
    point = _point(instance, rng)
    for subset in _subsets(instance, rng):
        assert set_weight(point, subset) == scan_set_weight(point, subset)
    for family in FAMILIES:
        for _ in range(2):
            comb = sample_comb(rng, instance, family)
            assert comb_inequality(instance, comb).coeffs == scan_comb_coeffs(instance, comb)
            assert comb_value(point, comb) == scan_set_weight(point, comb.hand) + sum(
                scan_set_weight(point, tooth) for tooth in comb.teeth
            )


def test_table2_comb_row_matches_the_scan(table2):
    instance, point, comb = table2
    assert comb_inequality(instance, comb).coeffs == scan_comb_coeffs(instance, comb)
    assert set_weight(point, comb.hand) == scan_set_weight(point, comb.hand) == Fraction(7, 2)


@pytest.mark.parametrize("name", ["K33", "table2"])
def test_a_vertex_outside_the_instance_is_refused(name):
    instance = INSTANCES[name]
    point = _point(instance, random.Random(5))
    inside = list(instance.vertices())[:2]
    for outside in (VertexId(1, instance.n1), VertexId(2, instance.n2)):
        subset = inside + [outside]
        for call in (
            lambda: instance.edges_within(subset),
            lambda: sec_constraint(instance, subset),
            lambda: set_weight(point, subset),
            lambda: scan_sec_coeffs(instance, subset),
            lambda: scan_set_weight(point, subset),
        ):
            with pytest.raises(UnknownVertexError):
                call()
