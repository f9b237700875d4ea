"""Hamiltonian tour enumeration, polytope dimension, and facet testing.

Tours exist only when the two classes have equal size n; enumeration is
exhaustive and capped at n <= `DEFAULT_TOUR_CAP` = 6 (43200 tours on
K_{6,6}).  Each undirected tour is produced exactly once in canonical
form: it starts at class-1 vertex 0 and runs toward the smaller-indexed
of that vertex's two tour neighbours, which kills both rotations and
reflection.

A tour is a tuple of indices into `BipartiteInstance.sorted_edges`, in
tour order.  `_tour_set`, the one enumeration, fills the table of those
indices by (class-1, class-2) vertex pair and hands it to
`_kernels.hamiltonian_cycles`, which returns the tuples themselves:
entry 2k is the edge a_k b_k and entry 2k + 1 the edge b_k a_{k+1}, for
the tour a_0 = 0, b_0, a_1, ..., b_{n-1} with b_0 < b_{n-1}.  Its list
order, lexicographic in those vertex sequences, is the canonical order
that `_stride_order` reads.

Tours are enumerated and ranked once per instance: `_tour_set` keeps a
`_TourSet`, the tuple of those tuples and the polytope dimension ranked
from them, for the last `TOUR_SETS_KEPT` instances (equal instances
share one; about 6 MiB each in the worst case, the 43,200 tours of
K_{6,6}).  `facet_test` is the one way to them, and it checks on every
call, before the kept set is read: it logs unequal classes and refuses
them, and it refuses an instance past the cap.  So the polytope is
ranked once per kept instance, and a `facet_test` call ranks only its
row's tight face.  An instance without a tour has no dimension:
`facet_test` raises `NoToursError` for it on every call.

`facet_test` evaluates a row on a tour as an integer sum.  The row's
nonzero coefficients and its rhs are scaled by D, the lcm of their
denominators (`rational.scale_to_ints`; D = 1 on the integral degree,
subtour and comb rows).  Its value on a tour is the sum of the scaled
coefficients at the tour's edge indices, compared exactly against rhs*D
by `_tight`, once per query over the kept tours.  Coefficients on edges
outside the instance are ignored, as in `value_on`.

Dimension work is affine: the polytope dimension is the rank of the
difference vectors between tour incidence vectors, computed by exact
integer elimination (rows are gcd-reduced to keep entries small).  An
inequality's tight face gets the same treatment over the tours that meet
it with equality.  The elimination stops once the rank reaches a proven
upper bound, which it can never exceed:

  polytope    |E| - |V| + 1: every tour satisfies the |V| degree
              equalities, whose rank is |V| - 1 because the instance is
              bipartite and, having a Hamiltonian tour, connected.
  tight face  polytope_dim - 1 when some tour is not tight: the tight
              tours lie in a hyperplane that does not contain every tour.
              polytope_dim when every tour is tight.

Rank does not depend on row order, so the tours are read in a golden-ratio
stride (`_stride_order`), which spreads the first rows over the whole
canonical order; on K_{n,n} the first |E| - |V| + 1 rows read this way are
independent for n = 3..6.  When the bound is not reached (an instance
whose dimension is below it), every tour is read.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator, NamedTuple, Sequence

from . import _kernels
from .constraints import LinearInequality
from .errors import EnumerationCapError, NoToursError
from .graph import BipartiteInstance
from .rational import scale_to_ints

log = logging.getLogger(__name__)

DEFAULT_TOUR_CAP = 6
TOUR_SETS_KEPT = 2


class FacetVerdict(Enum):
    FACET = "facet"
    SUPPORTING_NON_FACET = "supporting_non_facet"
    NOT_SUPPORTING = "not_supporting"
    NOT_VALID = "not_valid"


@dataclass(frozen=True)
class FacetReport:
    polytope_dim: int
    tight_tour_count: int
    tight_face_dim: int
    verdict: FacetVerdict

    def as_dict(self) -> dict:
        return {
            "polytope_dim": self.polytope_dim,
            "tight_tour_count": self.tight_tour_count,
            "tight_face_dim": self.tight_face_dim,
            "verdict": self.verdict.value,
        }


class _TourSet(NamedTuple):
    """An instance's tours as indices into `instance.sorted_edges`, in the
    layout of `_kernels.hamiltonian_cycles`, and the affine dimension of
    their convex hull (None when there is no tour)."""

    tours: tuple[tuple[int, ...], ...]
    dim: int | None


_NO_TOURS = _TourSet((), None)


@lru_cache(maxsize=TOUR_SETS_KEPT)
def _tour_set(instance: BipartiteInstance) -> _TourSet:
    """The instance's tours and their dimension, kept for the last
    `TOUR_SETS_KEPT` instances.

    Equal instances share it.  `facet_test` checks the instance first.
    """
    n = instance.n1
    position = [[-1] * n for _ in range(n)]  # [a][b] -> index of edge a b
    for k, e in enumerate(instance.sorted_edges):
        position[e.u.index][e.v.index] = k
    tours = tuple(_kernels.hamiltonian_cycles(n, position))
    if not tours:
        return _NO_TOURS
    bound = len(instance.edges) - instance.num_vertices + 1
    return _TourSet(tours, _affine_rank(tours, len(instance.edges), bound))


def _reduce_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        row = [v // g for v in row]
    return row


class _IntEchelon:
    """Incremental integer row echelon; exact rank over the rationals."""

    def __init__(self):
        # (pivot col, row) in the order added.  Each row is zero at the
        # pivot columns of the rows added before it, so reducing in this
        # order never refills a column already cleared.
        self.pivots: list[tuple[int, list[int]]] = []

    def add(self, row: Sequence[int]) -> bool:
        work = list(row)
        for col, base in self.pivots:
            if work[col]:
                factor_base = work[col]
                factor_work = base[col]
                work = [
                    factor_work * w - factor_base * b for w, b in zip(work, base)
                ]
                work = _reduce_row(work)
        for col, v in enumerate(work):
            if v:
                self.pivots.append((col, _reduce_row(work)))
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _stride_order(count: int) -> Iterator[int]:
    """0, s, 2s, ... mod count: every index once, s the smallest integer
    >= count/phi that is coprime to count (phi the golden ratio)."""
    # count/phi = count*(sqrt(5) - 1)/2 <= s  iff  5*count^2 <= (2s + count)^2
    step = (isqrt(5 * count * count) - count) // 2
    while (2 * step + count) ** 2 < 5 * count * count or gcd(step, count) != 1:
        step += 1
    return (i * step % count for i in range(count))


def _affine_rank(
    tours: Sequence[tuple[int, ...]], width: int, bound: int
) -> int:
    """Affine rank of the tours' incidence vectors over `width` edges, for
    one tour or more.

    `bound` must be a proven upper bound on that rank (see the module
    docstring): reading stops as soon as the rank reaches it.
    """
    order = _stride_order(len(tours))
    negated_base = [0] * width
    for k in tours[next(order)]:
        negated_base[k] = -1
    echelon = _IntEchelon()
    for i in order:
        if echelon.rank >= bound:
            break
        row = list(negated_base)
        for k in tours[i]:
            row[k] += 1
        echelon.add(row)
    return echelon.rank


def _tight(
    tours: Sequence[tuple[int, ...]], coef: Sequence[int], rhs: int, equality: bool
) -> list[tuple[int, ...]] | None:
    """The tours, in order, on which the integer row `coef` . x <= rhs
    (== rhs when `equality`) holds with equality; None at the first tour
    that violates it.  A tour's value is the sum of `coef` at its edge
    indices."""
    tight = []
    for tour in tours:
        value = sum(map(coef.__getitem__, tour))
        if value > rhs or (equality and value != rhs):
            return None
        if value == rhs:
            tight.append(tour)
    return tight


def facet_test(instance: BipartiteInstance, ineq: LinearInequality) -> FacetReport:
    """Validity on all tours, tight-face dimension, and the verdict.

    The polytope dimension is read with the kept tours, not ranked again:
    it is a function of those tours alone, which are immutable, so ranking
    them again would derive the same int from the same input.  The
    independent check of it is the `Fraction` rank of `tests/oracles.py`.
    Only the row's tight face is ranked here.

    On every call, before the kept set is read, unequal classes are logged
    and given no tours, and an instance past `DEFAULT_TOUR_CAP` is refused;
    an instance without a tour raises `NoToursError`.
    """
    if not instance.tours_possible:
        log.info(
            "no tours: class sizes differ (%d vs %d)", instance.n1, instance.n2
        )
        tours, polytope_dim = _NO_TOURS
    elif instance.n1 > DEFAULT_TOUR_CAP:
        raise EnumerationCapError("tour enumeration", instance.n1, DEFAULT_TOUR_CAP)
    else:
        tours, polytope_dim = _tour_set(instance)
    if polytope_dim is None:
        raise NoToursError("instance has no Hamiltonian tour")
    edges = instance.sorted_edges

    (rhs, *nonzeros), _ = scale_to_ints([ineq.rhs, *ineq.coeffs.values()])
    scaled = dict(zip(ineq.coeffs, nonzeros))
    coef = [scaled.get(e, 0) for e in edges]
    tight = _tight(tours, coef, rhs, ineq.is_equality)
    if tight is None:
        return FacetReport(polytope_dim, 0, -1, FacetVerdict.NOT_VALID)
    if not tight:
        return FacetReport(polytope_dim, 0, -1, FacetVerdict.NOT_SUPPORTING)
    bound = polytope_dim if len(tight) == len(tours) else polytope_dim - 1
    tight_dim = _affine_rank(tight, len(edges), bound)
    verdict = (
        FacetVerdict.FACET
        if tight_dim == polytope_dim - 1
        else FacetVerdict.SUPPORTING_NON_FACET
    )
    return FacetReport(polytope_dim, len(tight), tight_dim, verdict)
