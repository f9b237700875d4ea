"""Bipartite instances, edge identity, and exact-rational edge weightings.

Every vertex belongs to one of two classes; an edge always joins class 1
to class 2 and is stored in that order, so ``Edge(u, v) == Edge(v, u)``.
Instances carry string labels for I/O while all combinatorial work runs
on dense ``(cls, index)`` pairs.  `BipartiteInstance.edges_within` is the
one reading of "the edges inside a vertex set", x(E(S)), that subtour
rows, comb rows and `set_weight` share.

An instance builds its per-instance tables once, on first use, and
answers every vertex and edge question from them: each class's
`VertexId`s (`class_vertices`), the label of every vertex (`contains`,
`contains_all`, `label`, `labels_of`, `vertices`), the vertex of every
label (`vertex`), the ascending edge order (`sorted_edges`) and each
vertex's incident edges (`incident`, `edges_within`).  A question about
a vertex outside the instance is a dictionary miss, answered with
`UnknownVertexError` as before.

`VertexId` and `Edge` are immutable tuple value types: named-tuple
subclasses whose ``__new__`` validates (and, for an edge, orders the
endpoints), so hashing, equality and ordering run in C.  They hash,
compare and sort as the ``(cls, index)`` and ``(u, v)`` tuples they hold,
which fixes the iteration order of every set of them.  Unlike a frozen
dataclass, an identity also compares equal to a plain tuple with the
same contents: ``VertexId(1, 0) == (1, 0)``.

A weighting (`FractionalPoint`) is a candidate point of the relaxation:
a sparse map from existing edges to rationals, absent edges fixed to 0.
A weight is given as an int or a `Fraction` (`rational.exact_value`
refuses a float, a bool or a string) and stored, like every value of
the package, as an int when integral and a `Fraction` otherwise; an
absent edge reads 0.  `degree` and `set_weight` return their sums in
the same form.
Weights are normally in [0, 1] but the constructor does not enforce it;
bound violations are the feasibility checker's job to report.

All types are immutable after construction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import UnknownEdgeError, UnknownVertexError
from .rational import exact_value, normal

CLASS1 = 1
CLASS2 = 2


class VertexId(namedtuple("_VertexFields", "cls index")):
    """A vertex: its class (1 or 2) and its index within that class."""

    __slots__ = ()

    def __new__(_cls, cls: int, index: int):
        if cls not in (CLASS1, CLASS2):
            raise ValueError(f"vertex class must be 1 or 2, got {cls}")
        if index < 0:
            raise ValueError(f"vertex index must be nonnegative, got {index}")
        return tuple.__new__(_cls, (cls, index))


class Edge(namedtuple("_EdgeFields", "u v")):
    """Unordered bipartite edge; `u` is the class-1 endpoint after normalization."""

    __slots__ = ()

    def __new__(_cls, u: VertexId, v: VertexId):
        if u.cls == CLASS2 and v.cls == CLASS1:
            u, v = v, u
        elif u.cls == v.cls:
            raise ValueError(f"edge endpoints must lie in opposite classes: {u}, {v}")
        return tuple.__new__(_cls, (u, v))


@dataclass(frozen=True)
class BipartiteInstance:
    """Vertex bipartition plus the set of edges present between the classes.

    Equal class sizes are not required; `tours_possible` reports whether a
    Hamiltonian tour can exist at all.  Edges absent from `edges` are not
    forbidden variables, they are variables fixed to weight 0.
    """

    class1_labels: tuple[str, ...]
    class2_labels: tuple[str, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        object.__setattr__(self, "class1_labels", tuple(self.class1_labels))
        object.__setattr__(self, "class2_labels", tuple(self.class2_labels))
        object.__setattr__(self, "edges", frozenset(self.edges))
        labels = list(self.class1_labels) + list(self.class2_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique across both classes")
        for e in self.edges:
            if e.u.index >= self.n1 or e.v.index >= self.n2:
                raise ValueError(f"edge {e} references a vertex outside the instance")

    @property
    def n1(self) -> int:
        return len(self.class1_labels)

    @property
    def n2(self) -> int:
        return len(self.class2_labels)

    @property
    def num_vertices(self) -> int:
        return self.n1 + self.n2

    @property
    def tours_possible(self) -> bool:
        return self.n1 == self.n2

    @classmethod
    def complete(cls, n1: int, n2: int | None = None) -> "BipartiteInstance":
        """K_{n1,n2} with labels u0.. / v0.. (n2 defaults to n1)."""
        if n2 is None:
            n2 = n1
        edges = frozenset(
            Edge(VertexId(CLASS1, i), VertexId(CLASS2, j))
            for i in range(n1)
            for j in range(n2)
        )
        return cls(
            tuple(f"u{i}" for i in range(n1)),
            tuple(f"v{j}" for j in range(n2)),
            edges,
        )

    @cached_property
    def _class_vertices(self) -> tuple[tuple[VertexId, ...], tuple[VertexId, ...]]:
        return (
            tuple(VertexId(CLASS1, i) for i in range(self.n1)),
            tuple(VertexId(CLASS2, j) for j in range(self.n2)),
        )

    def class_vertices(self, cls: int) -> tuple[VertexId, ...]:
        """The vertices of class `cls` (1 or 2), ascending index, built once."""
        return self._class_vertices[0 if cls == CLASS1 else 1]

    @cached_property
    def _vertex_labels(self) -> dict[VertexId, str]:
        """Every vertex's label, class 1 first, ascending index within each class."""
        ones, twos = self._class_vertices
        return dict(zip(ones + twos, self.class1_labels + self.class2_labels))

    @cached_property
    def _vertex_set(self) -> frozenset[VertexId]:
        return frozenset(self._vertex_labels)

    def vertices(self) -> Iterator[VertexId]:
        """All vertices, class 1 first, ascending index within each class."""
        return iter(self._vertex_labels)

    def contains(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_labels

    def contains_all(self, vertices: Iterable[VertexId]) -> bool:
        """Whether every vertex lies in the instance: one subset test."""
        return self._vertex_set.issuperset(vertices)

    def require_vertex(self, vertex: VertexId) -> None:
        if not self.contains(vertex):
            raise UnknownVertexError(f"vertex {vertex} is not in the instance")

    def label(self, vertex: VertexId) -> str:
        label = self._vertex_labels.get(vertex)
        if label is None:
            self.require_vertex(vertex)  # raises: vertex is not in the instance
        return label

    def edge_label(self, edge: Edge) -> str:
        """The edge as "u-v": class-1 label, then class-2 label."""
        return f"{self.label(edge.u)}-{self.label(edge.v)}"

    def vertex(self, label: str) -> VertexId:
        v = self._label_table.get(label)
        if v is None:
            raise UnknownVertexError(f"unknown vertex label {label!r}")
        return v

    @cached_property
    def _label_table(self) -> dict[str, VertexId]:
        return {lab: v for v, lab in self._vertex_labels.items()}

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in ascending order: the one edge order of an instance.

        LP variables, tour edge indices, incidence lists and instance
        documents all follow it.
        """
        return tuple(sorted(self.edges))

    @cached_property
    def _incidence(self) -> dict[VertexId, tuple[Edge, ...]]:
        table: dict[VertexId, list[Edge]] = {v: [] for v in self.vertices()}
        for e in self.sorted_edges:
            table[e.u].append(e)
            table[e.v].append(e)
        return {v: tuple(es) for v, es in table.items()}

    def edges_within(self, vertices: Iterable[VertexId]) -> list[Edge]:
        """The edges with both endpoints in `vertices`, ascending; every
        vertex must be in the instance.  They are read off the incidence
        lists of the set's class-1 vertices, so no edge is built."""
        vset = frozenset(vertices)
        incidence = self._incidence  # keyed by every vertex of the instance
        for v in vset.difference(incidence):
            self.require_vertex(v)  # raises: v is not in the instance
        return [
            e
            for u in sorted(v for v in vset if v.cls == CLASS1)
            for e in incidence[u]
            if e.v in vset
        ]

    def incident(self, vertex: VertexId) -> tuple[Edge, ...]:
        self.require_vertex(vertex)
        return self._incidence[vertex]

    def global_index(self, vertex: VertexId) -> int:
        """Dense index over all vertices: class 1 block then class 2 block."""
        self.require_vertex(vertex)
        return vertex.index if vertex.cls == CLASS1 else self.n1 + vertex.index

    def vertex_at(self, global_index: int) -> VertexId:
        if 0 <= global_index < self.n1:
            return VertexId(CLASS1, global_index)
        if self.n1 <= global_index < self.num_vertices:
            return VertexId(CLASS2, global_index - self.n1)
        raise UnknownVertexError(f"global index {global_index} out of range")

    def vertices_in(self, mask: int) -> frozenset[VertexId]:
        """The vertices whose global indices are the set bits of `mask`."""
        return frozenset(self.vertex_at(i) for i in range(self.num_vertices) if mask >> i & 1)

    def labels_of(self, vertices: Iterable[VertexId]) -> tuple[str, ...]:
        """The labels of `vertices`, in ascending vertex order."""
        return tuple(map(self.label, sorted(vertices)))


class FractionalPoint:
    """Sparse edge -> rational weighting over an instance's edges."""

    __slots__ = ("instance", "_weights")

    def __init__(self, instance: BipartiteInstance, weights: Mapping[Edge, int | Fraction]):
        self.instance = instance
        store: dict[Edge, int | Fraction] = {}
        for e, w in weights.items():
            if e not in instance.edges:
                raise UnknownEdgeError(f"edge {e} is not in the instance")
            store[e] = exact_value(w, "edge weight")
        self._weights = store

    def weight(self, edge: Edge) -> int | Fraction:
        return self._weights.get(edge, 0)

    def items(self) -> Iterator[tuple[Edge, int | Fraction]]:
        return iter(sorted(self._weights.items()))

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionalPoint):
            return NotImplemented
        return self.instance == other.instance and self._weights == other._weights

    def __repr__(self) -> str:
        return f"FractionalPoint({len(self._weights)} weighted edges)"


def degree(point: FractionalPoint, vertex: VertexId) -> int | Fraction:
    """Sum of the weights of the edges incident with `vertex`.  Kept as
    public API: README names it among the exact readings of a point."""
    return normal(sum(map(point.weight, point.instance.incident(vertex))))


def set_weight(point: FractionalPoint, vertices: Iterable[VertexId]) -> int | Fraction:
    """Total weight of the edges with both endpoints in `vertices`, read
    off `BipartiteInstance.edges_within`."""
    return normal(sum(map(point.weight, point.instance.edges_within(vertices))))
