"""Relaxation constraint families and exact feasibility checking.

Three families describe the relaxation polytope of an instance:

  degree      sum of edge weights at each vertex <= 2 (or == 2 in tour form)
  subtour     x(S) <= |S| - 1 for every vertex subset with 3 <= |S| <= N - 1
  bounds      0 <= x_e <= 1 per edge

Aggregation certificates use the <= form of the degree constraints.  The
== form is the tour form, which `check_point` and `is_implied` take with
`mode="eq"` (`verify-point --mode eq`, `implied --mode eq`): an eq-mode LP
runs over the degree equations, and its dual may weigh them with either
sign.  Size-2 subsets are excluded from the subtour family on purpose:
the x <= 1 bound already covers them, and the feasibility checker relies
on the bounds for that case.

Materializing the subtour family (`gen_secs`, for direct-mode LPs) is
exhaustive and refuses to run above `SUBTOUR_ROWS_CAP` = 16 vertices.
`check_point` does not enumerate subsets: it lists the violated subtour
sets by branching on min cuts (`_kernels.violated_sets`), so its work
grows with the number of violated sets, which `VIOLATED_SET_BUDGET`
bounds.  `scan_inputs` turns a point into the integer data that the cut
kernels read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Literal, Mapping

from . import _kernels
from .errors import EnumerationCapError
from .graph import BipartiteInstance, Edge, FractionalPoint, VertexId
from .rational import exact_value, normal, scale_to_ints

# Most vertices of an instance that `is_implied` (lazy or direct), wild
# `search` and `gen_secs` take.  It is an instance-size bound, not a row
# count: lazy separation finds its rows by min cuts and enumerates none,
# and `gen_secs` stops far below it, at `SUBTOUR_ROWS_CAP`.  Solving an
# `le`-mode query on the comb's own vertices would lift it in that mode.  The
# refusal still reads "subtour enumeration: ...", which scripts match on.
DEFAULT_ENUMERATION_CAP = 24

# Most vertices whose subtour rows `gen_secs` materializes.  K_{8,8} has
# 65,398 of them, and a direct `is_implied` over them takes about 2 s and
# 185 MiB; K_{9,9} has 261,971 (about 9 s and 846 MiB), and K_{10,10}
# more than a million (Python 3.11, one core).
SUBTOUR_ROWS_CAP = 16

# Most subtour sets `check_point` lists before it refuses a point.  A point
# on 12 or fewer vertices never reaches it, since it has 2^12 vertex sets at
# most; a larger one can have exponentially many violated sets (k disjoint
# 4-cycles of weight 1 give 2^k - 2).
VIOLATED_SET_BUDGET = 4096

DegreeMode = Literal["le", "eq"]


class ConstraintKind(Enum):
    DEGREE_LE2 = "degree_le2"
    DEGREE_EQ2 = "degree_eq2"
    SUBTOUR_ELIM = "subtour"
    UPPER_BOUND = "upper_bound"
    LOWER_BOUND = "lower_bound"
    COMB = "comb"
    AGGREGATE = "aggregate"


@dataclass(frozen=True, eq=True)
class LinearInequality:
    """Sparse row ``coeffs . x (<=|==) rhs`` over an instance's edges.

    The relation is <= for every kind except DEGREE_EQ2 (equality); lower
    bounds are stored negated (-x_e <= 0) so the relation never flips.
    Zero coefficients are dropped.  Each coefficient and the rhs is stored
    in the package's one form (`rational.exact_value`: an int when
    integral, else a `Fraction`), so the degree, subtour, bound and comb
    rows hold ints only.  Anything but an int or a Fraction raises
    `TypeError`.
    """

    coeffs: Mapping[Edge, int | Fraction]
    rhs: int | Fraction
    kind: ConstraintKind
    provenance: str

    def __post_init__(self):
        coeffs = {}
        for e, c in self.coeffs.items():
            c = exact_value(c, "coefficient of edge", e)
            if c:
                coeffs[e] = c
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", exact_value(self.rhs, "rhs"))

    @property
    def is_equality(self) -> bool:
        return self.kind is ConstraintKind.DEGREE_EQ2

    def value_on(self, point: FractionalPoint) -> int | Fraction:
        return normal(sum(c * point.weight(e) for e, c in self.coeffs.items()))

    def __repr__(self) -> str:
        rel = "==" if self.is_equality else "<="
        return f"LinearInequality({self.provenance}: {len(self.coeffs)} terms {rel} {self.rhs})"


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[tuple[LinearInequality, int | Fraction], ...]


def _degree_kind(mode: DegreeMode) -> ConstraintKind:
    """A degree row's kind in `mode`; another mode, unhashable too, raises."""
    if mode in ("le", "eq"):
        return ConstraintKind.DEGREE_LE2 if mode == "le" else ConstraintKind.DEGREE_EQ2
    raise ValueError(f"mode must be 'le' or 'eq', got {mode!r}")


def degree_constraint(
    instance: BipartiteInstance, vertex: VertexId, mode: DegreeMode = "le"
) -> LinearInequality:
    return LinearInequality(
        {e: 1 for e in instance.incident(vertex)},
        2,
        _degree_kind(mode),
        f"degree({instance.label(vertex)})",
    )


def gen_degree(
    instance: BipartiteInstance, mode: DegreeMode = "le"
) -> list[LinearInequality]:
    """One degree row per vertex, in class-1-then-class-2 order."""
    _degree_kind(mode)
    return [degree_constraint(instance, v, mode) for v in instance.vertices()]


def _set_provenance(instance: BipartiteInstance, subset: frozenset[VertexId]) -> str:
    return "sec{" + ",".join(instance.labels_of(subset)) + "}"


def sec_constraint(
    instance: BipartiteInstance, subset: Iterable[VertexId]
) -> LinearInequality:
    """x(S) <= |S| - 1 on an explicit set (no size policing here).

    Sizes outside the 3..N-1 window are legal to build by hand; only the
    generated family respects the window.
    """
    vset = frozenset(subset)
    return LinearInequality(
        dict.fromkeys(instance.edges_within(vset), 1),
        len(vset) - 1,
        ConstraintKind.SUBTOUR_ELIM,
        _set_provenance(instance, vset),
    )


def upper_bound(instance: BipartiteInstance, edge: Edge) -> LinearInequality:
    return LinearInequality(
        {edge: 1},
        1,
        ConstraintKind.UPPER_BOUND,
        f"ub({instance.edge_label(edge)})",
    )


def lower_bound(instance: BipartiteInstance, edge: Edge) -> LinearInequality:
    return LinearInequality(
        {edge: -1},
        0,
        ConstraintKind.LOWER_BOUND,
        f"lb({instance.edge_label(edge)})",
    )


def check_enumeration_cap(instance: BipartiteInstance) -> None:
    """Refuse an instance of more than `DEFAULT_ENUMERATION_CAP` vertices
    (`EnumerationCapError`), the size bound of `is_implied`, wild `search`
    and `gen_secs`; no caller enumerates subtour rows up to it."""
    n = instance.num_vertices
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError("subtour enumeration", n, DEFAULT_ENUMERATION_CAP)


def gen_secs(instance: BipartiteInstance) -> Iterator[LinearInequality]:
    """Stream every subtour row, 3 <= |S| <= N - 1, smallest sets first.

    Refuses on the first row, before it builds one: by
    `check_enumeration_cap`, then past `SUBTOUR_ROWS_CAP` vertices
    (`EnumerationCapError` both).  The window is empty on instances too
    small to have any subtour row.
    """
    check_enumeration_cap(instance)
    n = instance.num_vertices
    if n > SUBTOUR_ROWS_CAP:
        raise EnumerationCapError("subtour rows", n, SUBTOUR_ROWS_CAP)
    order = list(instance.vertices())
    for size in range(3, n):
        for combo in combinations(order, size):
            yield sec_constraint(instance, combo)


def scan_inputs(
    instance: BipartiteInstance, point: FractionalPoint
) -> tuple[list[int], list[int], int]:
    """A point's support as integer data for the cut kernels.

    Returns, for every edge of nonzero weight, its vertex bitmask (bits at
    the endpoints' global indices) and its weight times D, plus D itself,
    the common denominator of the weights.
    """
    weighted = [(e, w) for e, w in point.items() if w != 0]
    scaled, denom = scale_to_ints(w for _, w in weighted)
    masks = [
        (1 << instance.global_index(e.u)) | (1 << instance.global_index(e.v))
        for e, _ in weighted
    ]
    return masks, scaled, denom


def check_point(
    instance: BipartiteInstance,
    point: FractionalPoint,
    mode: DegreeMode = "le",
) -> FeasibilityReport:
    """Evaluate every degree row, every subtour row, and the bounds.

    Arithmetic is exact.  The subtour rows are not enumerated:
    `_kernels.violated_sets` lists the candidate sets of the subtour window
    on integer-scaled weights, and each one is re-checked against the
    point's own weights; only the violated rows are materialized.  Raises
    `EnumerationCapError` when more than `VIOLATED_SET_BUDGET` sets are
    listed, which takes at most (budget + 2 + P) N max flows, P the
    number of weights above 1.
    """
    if point.instance != instance:
        raise ValueError("point does not belong to this instance")
    n = instance.num_vertices

    violations: list[tuple[LinearInequality, int | Fraction]] = []

    for row in gen_degree(instance, mode):
        value = row.value_on(point)
        if value > row.rhs or (row.is_equality and value != row.rhs):
            violations.append((row, value))

    for e, w in point.items():
        if w > 1:
            violations.append((upper_bound(instance, e), w))
        if w < 0:
            violations.append((lower_bound(instance, e), -w))

    masks, scaled, denom = scan_inputs(instance, point)
    budget = VIOLATED_SET_BUDGET
    listed = _kernels.violated_sets(n, masks, scaled, denom, budget)
    if len(listed) > budget:
        raise EnumerationCapError("violated subtour sets", len(listed), budget)
    for subset in listed:
        value = sum(w for m, w in zip(masks, scaled) if m & subset == m)
        if value > denom * (subset.bit_count() - 1):
            row = sec_constraint(instance, instance.vertices_in(subset))
            violations.append((row, normal(Fraction(value, denom))))

    violations.sort(key=lambda item: item[0].provenance)
    return FeasibilityReport(feasible=not violations, violations=tuple(violations))
