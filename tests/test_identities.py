"""Differential test of the tuple identities against the dataclass ones.

`combcert.graph.VertexId` and `Edge` are tuple types; `oracles.VertexId`
and `oracles.Edge` are the frozen dataclasses they replaced.  On every
vertex and edge of K_{1,1} ... K_{6,6} and on a seeded random sample,
both must hash, compare, sort, print, refuse bad input, pickle and copy
alike, and sets of them must iterate in the same order, which is what
keeps every output of the package unchanged.
"""

import copy
import pickle
import random

import oracles
import pytest

from combcert import BipartiteInstance, Edge, VertexId

SIZES = range(1, 7)


def _old_vertex(v):
    return oracles.VertexId(v.cls, v.index)


def _old_edge(e):
    return oracles.Edge(_old_vertex(e.u), _old_vertex(e.v))


def _random_index(rng):
    """Small, word-sized or multi-word, so hashing sees all three."""
    return rng.randrange(1 << rng.choice((3, 20, 70)))


def _random_vertices(rng, count):
    return [VertexId(rng.choice((1, 2)), _random_index(rng)) for _ in range(count)]


def _random_edges(rng, count):
    out = []
    for _ in range(count):
        a, b = VertexId(1, _random_index(rng)), VertexId(2, _random_index(rng))
        out.append(Edge(*rng.sample((a, b), 2)))
    return out


def _samples():
    """(label, new identities, matching dataclass identities)."""
    for n in SIZES:
        instance = BipartiteInstance.complete(n)
        vertices = list(instance.vertices())
        yield f"K{n} vertices", vertices, [_old_vertex(v) for v in vertices]
        edges = list(instance.edges)
        yield f"K{n} edges", edges, [_old_edge(e) for e in edges]
    rng = random.Random(13)
    vertices = _random_vertices(rng, 60)
    yield "random vertices", vertices, [_old_vertex(v) for v in vertices]
    edges = _random_edges(rng, 60)
    yield "random edges", edges, [_old_edge(e) for e in edges]


SAMPLES = list(_samples())


@pytest.mark.parametrize("label, new, old", SAMPLES, ids=[s[0] for s in SAMPLES])
def test_hash_equality_order_and_repr_agree(label, new, old):
    assert [hash(x) for x in new] == [hash(x) for x in old]
    assert [repr(x) for x in new] == [repr(x) for x in old]
    assert [str(x) for x in new] == [str(x) for x in old]
    for i, (a, oa) in enumerate(zip(new, old)):
        for b, ob in zip(new[i:], old[i:]):
            assert (a == b) == (oa == ob)
            assert (a != b) == (oa != ob)
            assert (a < b) == (oa < ob)
            assert (a <= b) == (oa <= ob)
            assert (a > b) == (oa > ob)
    order = sorted(range(len(new)), key=new.__getitem__)
    assert order == sorted(range(len(old)), key=old.__getitem__)


@pytest.mark.parametrize("label, new, old", SAMPLES, ids=[s[0] for s in SAMPLES])
def test_pickle_and_copy_round_trip(label, new, old):
    for x in new:
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in protocols]
        copies += [copy.copy(x), copy.deepcopy(x)]
        for y in copies:
            assert y == x and type(y) is type(x) and hash(y) == hash(x)
            assert repr(y) == repr(x)


EDGE_SAMPLES = [s for s in SAMPLES if "edges" in s[0]]


@pytest.mark.parametrize("label, new, old", EDGE_SAMPLES, ids=[s[0] for s in EDGE_SAMPLES])
def test_edges_normalise_alike(label, new, old):
    for e, oe in zip(new, old):
        assert Edge(e.v, e.u) == Edge(e.u, e.v) == e
        assert e.u.cls == 1 and e.v.cls == 2
        assert tuple(e) == (e.u, e.v)
        assert _old_edge(Edge(e.v, e.u)) == oracles.Edge(oe.v, oe.u) == oe
        assert e.u in e and e.v in e and oe.touches(oe.u) and oe.touches(oe.v)
        other = VertexId(1, e.u.index + 1)
        assert other not in e and not oe.touches(_old_vertex(other))


def _message(make, *args):
    with pytest.raises(ValueError) as info:
        make(*args)
    return str(info.value)


@pytest.mark.parametrize("cls, index", [(0, 0), (3, 1), (-1, 2), (7, 0), (1, -1), (2, -5), (0, -1)])
def test_vertex_errors_agree(cls, index):
    assert _message(VertexId, cls, index) == _message(oracles.VertexId, cls, index)


@pytest.mark.parametrize("cls", [1, 2])
def test_same_class_edge_errors_agree(cls):
    a, b = VertexId(cls, 0), VertexId(cls, 4)
    assert _message(Edge, a, b) == _message(oracles.Edge, _old_vertex(a), _old_vertex(b))


def _old_complete(n1, n2):
    """`BipartiteInstance.complete`'s edge set, built from the dataclasses."""
    return frozenset(
        oracles.Edge(oracles.VertexId(1, i), oracles.VertexId(2, j))
        for i in range(n1)
        for j in range(n2)
    )


@pytest.mark.parametrize("n", SIZES)
def test_complete_edge_sets_iterate_alike(n):
    instance = BipartiteInstance.complete(n)
    assert [_old_edge(e) for e in instance.edges] == list(_old_complete(n, n))
    assert [_old_edge(e) for e in instance.sorted_edges] == sorted(_old_complete(n, n))


def test_random_edge_sets_iterate_alike():
    rng = random.Random(7)
    for _ in range(40):
        n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
        pairs = [(i, j) for i in range(n1) for j in range(n2)]
        chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
        new = frozenset(Edge(VertexId(2, j), VertexId(1, i)) for i, j in chosen)
        old = frozenset(
            oracles.Edge(oracles.VertexId(2, j), oracles.VertexId(1, i)) for i, j in chosen
        )
        assert [_old_edge(e) for e in new] == list(old)
        drawn = [(rng.choice((1, 2)), rng.randrange(8)) for _ in range(6)]
        hand = frozenset(VertexId(c, i) for c, i in drawn)
        old_hand = frozenset(oracles.VertexId(c, i) for c, i in drawn)
        assert [_old_vertex(v) for v in hand] == list(old_hand)


def test_identities_equal_plain_tuples():
    """The one difference from the dataclasses, recorded in the `graph` docstring."""
    v, e = VertexId(1, 0), Edge(VertexId(2, 3), VertexId(1, 0))
    assert v == (1, 0) and e == ((1, 0), (2, 3))
    assert oracles.VertexId(1, 0) != (1, 0)
