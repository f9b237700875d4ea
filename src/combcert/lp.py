"""Exact rational linear programming and the implication oracle.

A dense two-phase tableau simplex over `fractions.Fraction`, pivoting by
Bland's rule (anti-cycling, no scaling; exact arithmetic makes scaling
pointless at desk scale).  Upper bounds x <= 1 enter as explicit rows,
which keeps the dual a plain vector over rows.

Every optimal solve also extracts the dual vector and re-checks it
against the original data (dual feasibility plus equal objective), so an
"implied" verdict from `is_implied` always carries an independently
checkable nonnegative combination of relaxation rows.

`is_implied` maximizes a row's left-hand side over the relaxation
polytope.  Direct mode materializes every subtour row inside the size
window; lazy mode starts from degree rows and bounds and repeatedly adds
the most violated subtour row at the current optimum until none is
violated.  Both modes end at the same exact optimum.  Lazy separation is
an exact integer min cut (Padberg & Wolsey, "Trees and cuts", 1983), so
its cost is polynomial in the number of vertices; only a non-default size
window falls back to scanning every subset in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _kernels
from .constraints import (
    DEFAULT_ENUMERATION_CAP,
    DegreeMode,
    LinearInequality,
    _sec_size_range,
    gen_degree,
    gen_secs,
    scan_inputs,
    sec_constraint,
    upper_bound,
)
from .errors import CombcertError, EnumerationCapError
from .graph import BipartiteInstance, Edge, FractionalPoint

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """Maximize `objective` subject to `constraints` and (optionally) the
    unit box; variables are edges of the instance, implicitly >= 0."""

    instance: BipartiteInstance
    objective: Mapping[Edge, Fraction]
    constraints: tuple[LinearInequality, ...]
    variables: tuple[Edge, ...] = ()
    box: bool = True

    def __post_init__(self):
        variables = self.variables or tuple(sorted(self.instance.edges))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        declared = set(variables)
        for e in self.objective:
            if e not in declared:
                raise ValueError(f"objective references undeclared variable {e}")
        for row in self.constraints:
            for e in row.coeffs:
                if e not in declared:
                    raise ValueError(
                        f"constraint {row.provenance} references undeclared variable {e}"
                    )


def effective_rows(problem: LpProblem) -> tuple[LinearInequality, ...]:
    """Constraints plus the box's upper-bound rows, in solve order."""
    rows = list(problem.constraints)
    if problem.box:
        rows.extend(upper_bound(problem.instance, e) for e in problem.variables)
    return tuple(rows)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective_value: Fraction | None
    point: FractionalPoint | None
    dual: tuple[Fraction, ...] | None  # aligned with effective_rows(problem)


def solve(problem: LpProblem) -> LpSolution:
    rows = effective_rows(problem)
    variables = problem.variables
    n = len(variables)
    var_index = {e: j for j, e in enumerate(variables)}

    a_rows: list[list[Fraction]] = []
    b: list[Fraction] = []
    is_eq: list[bool] = []
    for row in rows:
        vec = [Fraction(0)] * n
        for e, c in row.coeffs.items():
            vec[var_index[e]] = Fraction(c)
        a_rows.append(vec)
        b.append(Fraction(row.rhs))
        is_eq.append(row.is_equality)

    tableau = _Tableau(n, a_rows, b, is_eq)
    status = tableau.run(
        [Fraction(problem.objective.get(e, 0)) for e in variables]
    )
    if status != OPTIMAL:
        return LpSolution(status, None, None, None)

    assignment = tableau.primal_values()
    value = sum(
        (Fraction(problem.objective.get(e, 0)) * assignment[j] for j, e in enumerate(variables)),
        Fraction(0),
    )
    point = FractionalPoint(
        problem.instance,
        {e: assignment[j] for j, e in enumerate(variables) if assignment[j] != 0},
    )
    dual = tableau.dual_values()
    _audit_duality(rows, variables, problem.objective, value, dual)
    return LpSolution(OPTIMAL, value, point, dual)


def _audit_duality(rows, variables, objective, optimum, dual) -> None:
    """Strong-duality audit from scratch; failure means a solver bug.

    Reads only the original rows, the dual and the objective.  Work is
    proportional to the nonzeros of the rows with a nonzero multiplier,
    plus one comparison per variable.
    """
    if len(dual) != len(rows):
        raise CombcertError("dual vector length mismatch")
    combined: dict[Edge, Fraction] = {}
    total = Fraction(0)
    for y, row in zip(dual, rows):
        if not y:
            continue
        if not row.is_equality and y < 0:
            raise CombcertError(f"negative dual multiplier on {row.provenance}")
        for e, c in row.coeffs.items():
            combined[e] = combined.get(e, 0) + y * c
        total += y * row.rhs
    for e in variables:
        if combined.get(e, 0) < Fraction(objective.get(e, 0)):
            raise CombcertError(f"dual infeasible at variable {e}")
    if total != optimum:
        raise CombcertError("dual objective does not match the optimum")


class _Tableau:
    """Two-phase dense simplex; columns are structurals, slacks, artificials."""

    def __init__(self, n: int, a_rows: list[list[Fraction]], b: list[Fraction], is_eq: list[bool]):
        self.m = len(a_rows)
        self.n = n
        self.sign = [Fraction(-1) if bi < 0 else Fraction(1) for bi in b]
        # Column layout: one slack per inequality row, then one artificial
        # per row that starts without an identity column.
        self.slack_col: list[int | None] = []
        col = self.n
        for i in range(self.m):
            if is_eq[i]:
                self.slack_col.append(None)
            else:
                self.slack_col.append(col)
                col += 1
        self.art_col: list[int | None] = []
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        self.meta: list[int] = list(range(self.m))  # original row index
        art_start = col
        for i in range(self.m):
            needs_art = is_eq[i] or self.sign[i] < 0
            self.art_col.append(col if needs_art else None)
            if needs_art:
                col += 1
        self.total_cols = col
        self.art_start = art_start
        for i in range(self.m):
            vec = [Fraction(0)] * self.total_cols
            s = self.sign[i]
            for j, aij in enumerate(a_rows[i]):
                if aij:
                    vec[j] = s * aij
            if self.slack_col[i] is not None:
                vec[self.slack_col[i]] = s  # +1 normal slack, -1 surplus
            if self.art_col[i] is not None:
                vec[self.art_col[i]] = Fraction(1)
                self.basis.append(self.art_col[i])
            else:
                self.basis.append(self.slack_col[i])
            self.rows.append(vec)
            self.rhs.append(s * b[i])
        self.is_eq = is_eq
        self.cbar: list[Fraction] = []
        self.z0 = Fraction(0)
        self.dropped: list[int] = []  # original indices of redundant rows

    def _price_out(self, c: list[Fraction]) -> None:
        self.cbar = list(c)
        self.z0 = Fraction(0)
        for i, bcol in enumerate(self.basis):
            coef = c[bcol]
            if coef:
                self.z0 += coef * self.rhs[i]
                row = self.rows[i]
                for j in range(self.total_cols):
                    if row[j]:
                        self.cbar[j] -= coef * row[j]

    def _pivot(self, i: int, j: int) -> None:
        row = self.rows[i]
        piv = row[j]
        if piv != 1:
            inv = Fraction(1) / piv
            for k in range(self.total_cols):
                if row[k]:
                    row[k] *= inv
            self.rhs[i] *= inv
        for ii in range(len(self.rows)):
            if ii == i:
                continue
            factor = self.rows[ii][j]
            if factor:
                other = self.rows[ii]
                for k in range(self.total_cols):
                    if row[k]:
                        other[k] -= factor * row[k]
                self.rhs[ii] -= factor * self.rhs[i]
        factor = self.cbar[j]
        if factor:
            for k in range(self.total_cols):
                if row[k]:
                    self.cbar[k] -= factor * row[k]
            self.z0 += factor * self.rhs[i]
        self.basis[i] = j

    def _bland(self, allow_artificial: bool) -> str:
        limit = self.total_cols if allow_artificial else self.art_start
        while True:
            enter = -1
            for j in range(limit):
                if self.cbar[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i in range(len(self.rows)):
                coef = self.rows[i][enter]
                if coef > 0:
                    ratio = self.rhs[i] / coef
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def run(self, objective: list[Fraction]) -> str:
        if any(col is not None for col in self.art_col):
            phase1 = [Fraction(0)] * self.total_cols
            for col in self.art_col:
                if col is not None:
                    phase1[col] = Fraction(-1)
            self._price_out(phase1)
            status = self._bland(allow_artificial=False)
            if status != OPTIMAL or self.z0 != 0:
                return INFEASIBLE
            self._expel_artificials()
        c = list(objective) + [Fraction(0)] * (self.total_cols - self.n)
        self._price_out(c)
        return self._bland(allow_artificial=False)

    def _expel_artificials(self) -> None:
        # Any artificial still basic sits at value 0; pivot it out on a
        # non-artificial column, or drop the row as redundant.
        i = 0
        while i < len(self.rows):
            if self.basis[i] >= self.art_start:
                enter = -1
                for j in range(self.art_start):
                    if self.rows[i][j] != 0:
                        enter = j
                        break
                if enter >= 0:
                    self._pivot(i, enter)
                    i += 1
                else:
                    self.dropped.append(self.meta[i])
                    del self.rows[i], self.rhs[i], self.basis[i], self.meta[i]
            else:
                i += 1

    def primal_values(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, bcol in enumerate(self.basis):
            if bcol < self.n:
                x[bcol] = self.rhs[i]
        return x

    def dual_values(self) -> tuple[Fraction, ...]:
        """Original-row multipliers read off the identity columns."""
        y = [Fraction(0)] * self.m
        for orig in range(self.m):
            if orig in self.dropped:
                continue
            col = self.art_col[orig]
            if col is None:
                col = self.slack_col[orig]
            # cbar[col] = c_col - z_col and c_col = 0, so z_col = -cbar[col].
            y_norm = -self.cbar[col]
            y[orig] = self.sign[orig] * y_norm
        return tuple(y)


@dataclass(frozen=True)
class ImplicationResult:
    status: str  # "implied" | "violated"
    optimum: Fraction
    target_rhs: Fraction
    witness: FractionalPoint | None
    dual_rows: tuple[tuple[LinearInequality, Fraction], ...] | None
    rounds: int
    rows_used: int

    @property
    def implied(self) -> bool:
        return self.status == "implied"


def _most_violated_sec(
    instance: BipartiteInstance,
    point: FractionalPoint,
    size_bounds: tuple[int, int] | None,
) -> LinearInequality | None:
    """A subtour row of largest violation at `point`, or None.

    The default window is separated exactly by `_min_cut_sec`.  A
    non-default window scans every subset in it; there the first subset
    of largest violation in the scan's output wins.
    """
    n = instance.num_vertices
    masks, weights, denom = scan_inputs(instance, point)
    if size_bounds is None:
        best_mask = _min_cut_sec(n, masks, weights, denom)
    else:
        lo, hi = _sec_size_range(instance, size_bounds)
        best = None
        for mask, value in _kernels.sec_violations(n, masks, weights, denom, lo, hi):
            amount = Fraction(value, denom) - (bin(mask).count("1") - 1)
            if best is None or amount > best[0]:
                best = (amount, mask)
        best_mask = None if best is None else best[1]
    if best_mask is None:
        return None
    subset = frozenset(instance.vertex_at(i) for i in range(n) if best_mask >> i & 1)
    return sec_constraint(instance, subset)


def _min_cut_sec(
    num_vertices: int, edge_masks: list[int], weights: list[int], denom: int
) -> int | None:
    """Vertex mask of a most violated subtour set, or None if none is violated.

    Inputs are those of `scan_inputs`: weights are the point's x_e times D.
    With d_v the weighted degree of v, the violation of a set S is
    1 - f(S) / (2D), where

        f(S) = sum over v in S of (2D - D d_v)  +  D x(delta(S)).

    f(S) is the capacity of the cut around S in the graph where each
    vertex v has an arc of capacity 2D - D d_v to a sink t and each
    support edge carries D x_e both ways.  Each max flow forces one vertex
    into S and one or more out of it: vertex 0 in and k out, then k in and
    0..k-1 out, for k = 1..N-1.  These 2(N-1) flows cover every S other
    than the empty set and V.  The first strict minimum below 2D in that
    order wins; within a flow, S is the source side reachable in the
    residual graph.  Sets of one or two vertices are never violated inside
    the unit box, so a violated S has 3 <= |S| <= N - 1, the default
    window of the subtour family.
    """
    to_sink = [2 * denom] * num_vertices
    adjacent: list[dict[int, int]] = [{} for _ in range(num_vertices)]
    for mask, w in zip(edge_masks, weights):
        if not 0 <= w <= denom:
            raise CombcertError("min-cut separation needs a point inside the unit box")
        u, v = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        to_sink[u] -= w
        to_sink[v] -= w
        adjacent[u][v] = adjacent[v][u] = w
    if any(c < 0 for c in to_sink):
        raise CombcertError("min-cut separation needs a point within the degree rows")
    best, best_mask = 2 * denom, None
    for k in range(1, num_vertices):
        for source, sinks in ((0, 1 << k), (k, (1 << k) - 1)):
            found = _min_cut(adjacent, to_sink, source, sinks, best)
            if found is not None:
                best, best_mask = found
    return best_mask


def _min_cut(
    adjacent: list[dict[int, int]],
    to_sink: list[int],
    source: int,
    sinks: int,
    limit: int,
) -> tuple[int, int] | None:
    """Minimum cut between `source` and t merged with the vertices in `sinks`.

    Edmonds-Karp on integer capacities.  Returns (cut capacity, mask of the
    vertices reachable from `source` in the final residual graph), or None
    as soon as the flow reaches `limit`.
    """
    residual = [dict(arcs) for arcs in adjacent]
    sink_arc = list(to_sink)
    parent = [0] * len(adjacent)
    flow = 0
    while True:
        reached = 1 << source
        queue = [source]
        tail = -1  # last vertex of an augmenting path
        for u in queue:
            if sink_arc[u]:
                tail = u
                break
            for v, cap in residual[u].items():
                if cap and not reached >> v & 1:
                    reached |= 1 << v
                    parent[v] = u
                    if sinks >> v & 1:
                        tail = v
                        break
                    queue.append(v)
            if tail >= 0:
                break
        if tail < 0:
            return flow, reached
        # A path ending in a `sinks` vertex reaches t by an uncapacitated arc.
        push = None if sinks >> tail & 1 else sink_arc[tail]
        v = tail
        while v != source:
            u = parent[v]
            if push is None or residual[u][v] < push:
                push = residual[u][v]
            v = u
        if not sinks >> tail & 1:
            sink_arc[tail] -= push
        v = tail
        while v != source:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        flow += push
        if flow >= limit:
            return None


def is_implied(
    instance: BipartiteInstance,
    target: LinearInequality,
    mode: DegreeMode = "le",
    lazy: bool = True,
    size_bounds: tuple[int, int] | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ImplicationResult:
    """Maximize the target's left side over the relaxation.

    Implied iff the optimum is <= the target's rhs; otherwise the optimal
    point is returned as a violation witness.  With `lazy`, subtour rows
    are separated at each optimum instead of materialized up front: by
    exact min cut in the default size window, by a subset scan otherwise.
    """
    if instance.num_vertices > cap:
        raise EnumerationCapError("subtour enumeration", instance.num_vertices, cap)
    rows: list[LinearInequality] = gen_degree(instance, mode)
    rounds = 0
    if lazy:
        while True:
            problem = LpProblem(instance, dict(target.coeffs), tuple(rows))
            solution = solve(problem)
            if solution.status == INFEASIBLE:
                raise CombcertError("relaxation is infeasible; nothing to imply")
            if solution.status == UNBOUNDED:
                raise CombcertError("relaxation unbounded; missing box rows?")
            rounds += 1
            violated = _most_violated_sec(instance, solution.point, size_bounds)
            if violated is None:
                break
            rows.append(violated)
    else:
        rows.extend(gen_secs(instance, size_bounds, cap))
        problem = LpProblem(instance, dict(target.coeffs), tuple(rows))
        solution = solve(problem)
        if solution.status != OPTIMAL:
            raise CombcertError(f"relaxation LP ended {solution.status}")
        rounds = 1

    optimum = solution.objective_value
    all_rows = effective_rows(problem)
    if optimum > target.rhs:
        return ImplicationResult(
            status="violated",
            optimum=optimum,
            target_rhs=target.rhs,
            witness=solution.point,
            dual_rows=None,
            rounds=rounds,
            rows_used=len(all_rows),
        )
    dual_rows = tuple(
        (row, y) for row, y in zip(all_rows, solution.dual) if y != 0
    )
    return ImplicationResult(
        status="implied",
        optimum=optimum,
        target_rhs=target.rhs,
        witness=None,
        dual_rows=dual_rows,
        rounds=rounds,
        rows_used=len(all_rows),
    )
