from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcert import (
    BipartiteInstance,
    Edge,
    FractionalPoint,
    UnknownEdgeError,
    UnknownVertexError,
    VertexId,
    degree,
    set_weight,
)
from oracles import in_normal_form, with_weight

HALF = Fraction(1, 2)


def test_edge_is_unordered():
    u = VertexId(1, 0)
    v = VertexId(2, 3)
    assert Edge(u, v) == Edge(v, u)
    assert Edge(v, u).u == u


def test_edge_rejects_same_class():
    with pytest.raises(ValueError):
        Edge(VertexId(1, 0), VertexId(1, 1))


def test_instance_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        BipartiteInstance(("a", "b"), ("b",), frozenset())


def test_instance_rejects_out_of_range_edge():
    e = Edge(VertexId(1, 5), VertexId(2, 0))
    with pytest.raises(ValueError):
        BipartiteInstance(("a",), ("b",), frozenset({e}))


def test_complete_instance_shape():
    k = BipartiteInstance.complete(3, 2)
    assert (k.n1, k.n2) == (3, 2)
    assert len(k.edges) == 6
    assert not k.tours_possible
    assert BipartiteInstance.complete(3).tours_possible


def test_degree_table1_values(table1):
    instance, point, _ = table1
    assert degree(point, instance.vertex("a")) == 2
    assert degree(point, instance.vertex("f")) == Fraction(3, 2)


def test_degree_of_empty_point(table1):
    instance, _, _ = table1
    empty = FractionalPoint(instance, {})
    for v in instance.vertices():
        assert degree(empty, v) == 0


def test_sums_of_halves_that_are_integral_are_ints():
    k22 = BipartiteInstance.complete(2)
    u0, v0, v1 = (k22.vertex(label) for label in ("u0", "v0", "v1"))
    point = FractionalPoint(k22, {Edge(u0, v0): HALF, Edge(u0, v1): HALF})
    assert type(degree(point, u0)) is int and degree(point, u0) == 1
    assert type(set_weight(point, {u0, v0, v1})) is int
    assert set_weight(point, {u0, v0, v1}) == 1
    assert degree(point, v0) == HALF and in_normal_form(degree(point, v0))


def test_degree_unknown_vertex(table1):
    instance, point, _ = table1
    with pytest.raises(UnknownVertexError):
        degree(point, VertexId(1, 99))


def test_set_weight_table1(table1):
    instance, point, comb = table1
    assert set_weight(point, comb.hand) == Fraction(5, 2)
    t2 = comb.teeth[1]
    assert set_weight(point, t2) == 3


def test_set_weight_small_sets(table1):
    instance, point, _ = table1
    assert set_weight(point, set()) == 0
    assert set_weight(point, {instance.vertex("a")}) == 0


def test_point_rejects_foreign_edge(table1):
    instance, _, _ = table1
    stray = Edge(instance.vertex("h"), instance.vertex("e"))
    assert stray not in instance.edges
    with pytest.raises(UnknownEdgeError):
        FractionalPoint(instance, {stray: 1})


def test_point_takes_only_ints_and_fractions(table1):
    instance, point, _ = table1
    edge = next(iter(instance.edges))
    for given, stored in ((1, 1), (Fraction(4, 2), 2), (HALF, HALF), (Fraction(0), 0)):
        weight = FractionalPoint(instance, {edge: given}).weight(edge)
        assert in_normal_form(weight) and weight == stored
    assert in_normal_form(with_weight(point, edge, 0).weight(edge))
    absent = next(e for e in instance.edges if e != edge)
    assert in_normal_form(FractionalPoint(instance, {edge: 1}).weight(absent))
    unit = FractionalPoint(instance, {edge: 1})
    assert type(unit.weight(edge)) is int and unit.weight(edge) == 1
    for bad in (0.1, 0.5, "1/2", True, None, 1 + 0j):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            FractionalPoint(instance, {edge: bad})
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            with_weight(point, edge, bad)


def test_point_allows_out_of_bound_weights(table1):
    # Bounds are checked by the feasibility checker, not at construction.
    instance, point, _ = table1
    edge = next(iter(instance.edges))
    bad = with_weight(point, edge, Fraction(3, 2))
    assert bad.weight(edge) == Fraction(3, 2)


@st.composite
def weighted_instances(draw):
    n1 = draw(st.integers(2, 4))
    n2 = draw(st.integers(2, 4))
    instance = BipartiteInstance.complete(n1, n2)
    edges = sorted(instance.edges)
    weights = {}
    for e in edges:
        w = draw(
            st.fractions(min_value=0, max_value=1, max_denominator=6)
        )
        if w:
            weights[e] = w
    return instance, FractionalPoint(instance, weights)


@settings(max_examples=60, deadline=None)
@given(weighted_instances(), st.data())
def test_set_weight_bounded_by_half_degree_sum(pair, data):
    instance, point = pair
    vertices = list(instance.vertices())
    subset = data.draw(st.sets(st.sampled_from(vertices), max_size=len(vertices)))
    # Each internal edge is counted twice in the degree sum.
    assert 2 * set_weight(point, subset) <= sum(
        degree(point, v) for v in subset
    )


@settings(max_examples=40, deadline=None)
@given(weighted_instances(), st.data())
def test_degree_additive_over_disjoint_supports(pair, data):
    instance, point = pair
    edges = sorted(e for e, w in point.items() if w)
    chosen = data.draw(st.sets(st.sampled_from(edges)) if edges else st.just(set()))
    part1 = FractionalPoint(instance, {e: point.weight(e) for e in chosen})
    rest = [e for e in edges if e not in chosen]
    part2 = FractionalPoint(instance, {e: point.weight(e) for e in rest})
    for v in instance.vertices():
        assert degree(point, v) == degree(part1, v) + degree(part2, v)
    assert set_weight(point, set(instance.vertices())) == set_weight(
        part1, set(instance.vertices())
    ) + set_weight(part2, set(instance.vertices()))
