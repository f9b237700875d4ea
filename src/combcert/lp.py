"""Exact rational linear programming and the implication oracle.

One sparse simplex tableau over exact rationals (`_Tableau`).  Each row,
and the reduced-cost row, is a {column: value} dict holding only its
nonzeros, built straight from the rows' sparse coefficients, which
`LinearInequality` already holds as ints when integral.  Integral
entries are plain Python ints and all others `fractions.Fraction`; every
division goes through `Fraction`, so no float ever appears, and most
pivot arithmetic stays on ints.  Pivoting is by Bland's rule
(anti-cycling, no scaling; exact arithmetic makes scaling pointless at
desk scale).  Upper bounds x <= 1 enter as explicit rows, which keeps
the dual a plain vector over rows: the multiplier of every row, box rows
included, is read off the reduced cost of that row's slack (or
artificial) column.

`solve` is the one driver.  Its rows, with a box row per edge added,
and the starting tableau over them form a `_Relaxation`, which does not
depend on the objective: the tableau has run phase 1 already, since
phase 1 reads no objective.  `solve` copies that tableau, prices out the
objective, runs phase 2 and reads the optimum.  With `lazy` it then
repeatedly appends the most violated subtour row at the current optimum
until none is violated.  Each added row is appended to the optimal
tableau with a new slack column, reduced against the basis, and made
feasible again by the dual simplex (Lemke, 1954), so a round costs a few
pivots rather than a fresh solve.  Lazy separation is an exact integer
min cut (Padberg & Wolsey, "Trees and cuts", 1983), run by
`_kernels.most_violated_set`, so its cost is polynomial in the number of
vertices.  Every optimum read, cold or warm,
yields its dual vector, which is re-checked against the original rows by
`_audit_duality` (dual feasibility plus equal objective).  The optimum
and the dual are read as the tableau stores them, ints where integral,
and the audit checks them in integers: it scales the dual by the lcm of
its denominators, so on the integral degree, subtour and box rows every
product and sum it forms is a plain int, and it compares them with the
scaled objective and optimum.  The `LpSolution` a call returns converts
its optimum and dual to `Fraction`s once.  The cold run over the final
rows is the reference that warm rounds are tested against: both end at
the same exact optimum.

`is_implied` maximizes a row's left-hand side over the relaxation
polytope.  Direct mode hands `solve` every subtour row up front; lazy
mode hands it the degree rows only and separates the rest.  It prepares
those rows and their starting tableau once per instance, degree mode and
driver, keeps the last `RELAXATIONS_KEPT` of them, and hands `solve` the
prepared relaxation, so a query builds no row that does not depend on
its target.  Every optimum is still audited against the rows themselves,
and an "implied" verdict carries an independently checkable nonnegative
combination of relaxation rows, in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Mapping, Sequence

from . import _kernels
from .constraints import (
    DEFAULT_ENUMERATION_CAP,
    DegreeMode,
    LinearInequality,
    gen_degree,
    gen_secs,
    scan_inputs,
    sec_constraint,
    upper_bound,
)
from .errors import CombcertError, EnumerationCapError
from .graph import BipartiteInstance, Edge, FractionalPoint
from .rational import common_denominator, exact_value

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_ZERO = Fraction(0)

# Relaxations `is_implied` keeps prepared: one instance's two degree modes
# under both drivers.
RELAXATIONS_KEPT = 4


@dataclass(frozen=True)
class LpSolution:
    """A `solve` outcome; the optimum and the dual are `Fraction`s, each
    converted once here from the int-or-Fraction values the tableau holds."""

    status: str
    objective_value: Fraction | None
    point: FractionalPoint | None
    dual: tuple[Fraction, ...] | None  # aligned with `rows`
    rows: tuple[LinearInequality, ...]  # given rows, then cuts, then box rows
    rounds: int  # optima read: 1 per cold solve, +1 per cut

    def __post_init__(self):
        if self.objective_value is not None:
            object.__setattr__(self, "objective_value", Fraction(self.objective_value))
        if self.dual is not None:
            dual = tuple(Fraction(y) if y else _ZERO for y in self.dual)
            object.__setattr__(self, "dual", dual)


class _Relaxation:
    """The part of an LP that does not depend on the objective, prepared once.

    Holds the variable order (`instance.sorted_edges`), the rows (the
    given rows, each checked to name only instance edges, then one
    x_e <= 1 box row per edge) and the starting tableau over them.
    Phase 1 does not depend on the objective, so the starting tableau has
    run it already, and an infeasible outcome is kept with it.  `solve`
    reads a relaxation and copies its tableau; nothing writes to either
    after construction, so one relaxation serves any number of queries.
    """

    def __init__(self, instance: BipartiteInstance, rows: Iterable[LinearInequality]):
        given = list(rows)
        for row in given:
            for e in row.coeffs:
                if e not in instance.edges:
                    raise ValueError(f"row {row.provenance} names edge {e} outside the instance")
        self.variables = instance.sorted_edges
        self.given = len(given)
        self.rows = tuple(given + [upper_bound(instance, e) for e in self.variables])
        self.tableau = _Tableau(self.variables, self.rows)
        self.tableau.phase_one()


def solve(
    instance: BipartiteInstance,
    objective: Mapping[Edge, int | Fraction],
    rows: Iterable[LinearInequality] | _Relaxation,
    lazy: bool = False,
) -> LpSolution:
    """Maximize `objective` over `rows` and the unit box, x >= 0.

    The variables are the instance's edges.  Each objective value must be
    an int or a `Fraction`; anything else raises `TypeError` naming its
    edge, before any tableau work.  `rows` is either the given
    rows, which are prepared here for this one call, or a `_Relaxation`
    prepared from them before.  The tableau holds the given rows, then
    one x_e <= 1 row per edge; a copy of a prepared relaxation's starting
    tableau (or the tableau itself, when prepared for this call) runs
    phase 2.  With `lazy`, the most violated subtour row at each
    optimum is appended and the tableau re-optimized by the dual simplex,
    until separation finds none; a separated row that the optimum already
    satisfies raises `CombcertError`, since adding it again would loop
    forever.  Every optimum read has its dual audited against the
    tableau's rows.
    """
    costs = {}
    for e, c in objective.items():
        if e not in instance.edges:
            raise ValueError(f"objective names edge {e} outside the instance")
        c = exact_value(c, f"objective coefficient of edge {e}")
        if c:
            costs[e] = c
    if isinstance(rows, _Relaxation):
        relaxation, tableau = rows, _Tableau.copy_of(rows.tableau)
    else:  # prepared for this call only: its tableau needs no copy
        relaxation = _Relaxation(instance, rows)
        tableau = relaxation.tableau
    variables = relaxation.variables
    # Tableau order: given rows, box rows, then each cut as it is added.
    tableau_rows = list(relaxation.rows)
    boxes = slice(relaxation.given, len(tableau_rows))

    def given_cuts_box(seq: Sequence) -> tuple:
        return (*seq[: boxes.start], *seq[boxes.stop :], *seq[boxes])

    status = tableau.run(costs)
    rounds = 0
    while status == OPTIMAL:
        assignment = tableau.primal_values()
        value = sum(costs.get(e, 0) * x for e, x in assignment.items())
        dual = tableau.dual_values()
        _audit_duality(tableau_rows, variables, costs, value, dual)
        point = FractionalPoint(instance, assignment)
        rounds += 1
        cut = _most_violated_sec(instance, point) if lazy else None
        if cut is None:
            rows_out = given_cuts_box(tableau_rows)
            return LpSolution(OPTIMAL, value, point, given_cuts_box(dual), rows_out, rounds)
        if not cut.value_on(point) > cut.rhs:
            raise CombcertError(
                f"separation returned {cut.provenance}, which the optimum satisfies"
            )
        tableau_rows.append(cut)
        status = tableau.add_row(cut)
    return LpSolution(status, None, None, None, given_cuts_box(tableau_rows), rounds)


def _audit_duality(rows, variables, objective, optimum, dual) -> None:
    """Strong-duality audit from scratch; failure means a solver bug.

    Reads only the original rows, the dual, the objective and the
    optimum, never the tableau; every value is an int or a `Fraction`.
    The check is integer-scaled.  With D > 0 the lcm of the denominators
    of the multipliers y_i, each y_i becomes the integer D y_i, and the
    audit requires sum_i D y_i a_ie >= D c_e at every variable e (dual
    feasibility) and sum_i D y_i b_i == D * optimum (equal objective),
    which hold exactly when the unscaled conditions do.  On integral rows
    every product and sum is a plain int; a non-integral row value still
    enters exactly, as a `Fraction`.  Work is proportional to the
    nonzeros of the rows with a nonzero multiplier, plus one comparison
    per variable.
    """
    if len(dual) != len(rows):
        raise CombcertError("dual vector length mismatch")
    support = []
    for y, row in zip(dual, rows):
        if y:
            if y < 0 and not row.is_equality:
                raise CombcertError(f"negative dual multiplier on {row.provenance}")
            support.append((y, row))
    scale = common_denominator(y for y, _ in support)
    combined: dict[Edge, int | Fraction] = {}
    total = 0
    for y, row in support:
        multiplier = y.numerator * (scale // y.denominator)
        for e, c in row.coeffs.items():
            combined[e] = combined.get(e, 0) + multiplier * c
        total += multiplier * row.rhs
    for e in variables:
        if combined.get(e, 0) < scale * objective.get(e, 0):
            raise CombcertError(f"dual infeasible at variable {e}")
    if total != scale * optimum:
        raise CombcertError("dual objective does not match the optimum")


def _exact(value):
    """`value` as an int when it is integral, else as the Fraction it is."""
    if value.__class__ is int or value.denominator != 1:
        return value
    return value.numerator


def _subtract(target: dict, factor, row: dict) -> None:
    """target -= factor * row, on sparse rows: zeros are dropped."""
    for k, v in row.items():
        t = target.get(k, 0) - factor * v
        if t.__class__ is not int and t.denominator == 1:  # `_exact`, inlined here
            t = t.numerator
        if t:
            target[k] = t
        else:
            del target[k]


class _Tableau:
    """Sparse exact simplex tableau: two phases cold, dual simplex per cut.

    Each row, and the reduced-cost row `cbar`, is a {column: value} dict
    of its nonzeros.  A value is an int when it is integral and a
    Fraction otherwise, the rule `LinearInequality` stores its
    coefficients and rhs by, so a row's values enter the tableau as they
    are; pivots divide through `Fraction` only, so no float ever appears.
    Columns are the structurals 0..n-1 (the problem's
    variables), then one slack per inequality row, then one artificial per
    row that starts without an identity column (an equality, or a row
    negated for its negative rhs).  Artificials form a set and never enter
    the basis, so a slack appended later is eligible like any other.

    `run` solves by Bland's rule: phase 1 (`phase_one`, run once and kept,
    so a copy made by `copy_of` after it goes straight to phase 2), then
    phase 2 for the objective.  `add_row`
    appends a <= row with a fresh slack column, reduces it against the
    current basis and restores primal feasibility by the dual simplex
    (Lemke, 1954) under Bland's rule: the leaving row is the negative-rhs
    row with the smallest basic column; the entering column attains the
    minimum ratio cbar_j / a_j over a_j < 0, ties to the smaller column.
    The reduced costs never turn positive, so the result is optimal.

    The dual of original row i is read off its identity column (its slack,
    or its artificial): y_i = -sign_i * cbar[column].  That covers the box
    rows as well, which are ordinary rows here.  A row dropped as
    redundant in phase 1 leaves its artificial all zero, so it reads 0.
    """

    def __init__(self, variables: Sequence[Edge], rows: Sequence[LinearInequality]):
        self.variables = tuple(variables)
        self.column = {e: j for j, e in enumerate(self.variables)}
        self.rows: list[dict] = []
        self.rhs: list = []
        self.basis: list[int] = []
        self.unit: list[tuple[int, int]] = []  # per original row: (column, sign)
        self.artificial: set[int] = set()
        self.cbar: dict = {}
        self.feasible: bool | None = None  # phase 1 not run yet
        col = len(self.variables)
        slacks = []
        for row in rows:
            if row.is_equality:
                slacks.append(None)
            else:
                slacks.append(col)
                col += 1
        for row, slack in zip(rows, slacks):
            sign = -1 if row.rhs < 0 else 1
            entries = {self.column[e]: c for e, c in row.coeffs.items()}
            if sign < 0:
                entries = {j: -v for j, v in entries.items()}
            unit = slack
            if slack is not None:
                entries[slack] = sign  # +1 slack, -1 surplus
            if slack is None or sign < 0:
                unit = col
                entries[col] = 1
                self.artificial.add(col)
                col += 1
            self.rows.append(entries)
            self.rhs.append(sign * row.rhs)
            self.basis.append(unit)
            self.unit.append((unit, sign))
        self.next_column = col

    @classmethod
    def copy_of(cls, start: _Tableau) -> _Tableau:
        """A tableau in the state of `start` that shares nothing it changes."""
        tableau = cls.__new__(cls)
        tableau.variables, tableau.column = start.variables, start.column
        tableau.rows = [dict(row) for row in start.rows]
        tableau.rhs = list(start.rhs)
        tableau.basis = list(start.basis)
        tableau.unit = list(start.unit)
        tableau.artificial = set(start.artificial)
        tableau.cbar = dict(start.cbar)
        tableau.next_column = start.next_column
        tableau.feasible = start.feasible
        return tableau

    def phase_one(self) -> bool:
        """Drive the artificials to 0 and out of the basis, once.

        Returns whether the rows are feasible.  The outcome is kept, and
        copies inherit it, since phase 1 does not read the objective.
        """
        if self.feasible is None:
            self.feasible = True
            if self.artificial:
                self._price_out({col: -1 for col in self.artificial})
                status = self._primal()
                self.feasible = status == OPTIMAL and not any(
                    self.rhs[i] for i, col in enumerate(self.basis) if col in self.artificial
                )
                if self.feasible:
                    self._expel_artificials()
        return self.feasible

    def run(self, objective: Mapping[Edge, int | Fraction]) -> str:
        """Phase 1 unless done already, then phase 2 for `objective`."""
        if not self.phase_one():
            return INFEASIBLE
        self._price_out({self.column[e]: _exact(c) for e, c in objective.items() if c})
        return self._primal()

    def add_row(self, row: LinearInequality) -> str:
        """Append a <= row to an optimal tableau and re-optimize."""
        entries = {self.column[e]: c for e, c in row.coeffs.items()}
        rhs = row.rhs
        for i, col in enumerate(self.basis):
            factor = entries.get(col)
            if factor:
                _subtract(entries, factor, self.rows[i])
                rhs = _exact(rhs - factor * self.rhs[i])
        slack = self.next_column
        self.next_column += 1
        entries[slack] = 1
        self.rows.append(entries)
        self.rhs.append(rhs)
        self.basis.append(slack)
        self.unit.append((slack, 1))
        return self._dual()

    def _price_out(self, costs: dict) -> None:
        self.cbar = dict(costs)
        for i, col in enumerate(self.basis):
            cost = costs.get(col)
            if cost:
                _subtract(self.cbar, cost, self.rows[i])

    def _pivot(self, r: int, j: int) -> None:
        row = self.rows[r]
        pivot = row[j]
        if pivot != 1:
            inverse = -1 if pivot == -1 else Fraction(1) / pivot
            row = self.rows[r] = {k: _exact(v * inverse) for k, v in row.items()}
            self.rhs[r] = _exact(self.rhs[r] * inverse)
        b = self.rhs[r]
        for i, other in enumerate(self.rows):
            factor = other.get(j)
            if factor and i != r:
                _subtract(other, factor, row)
                self.rhs[i] = _exact(self.rhs[i] - factor * b)
        factor = self.cbar.get(j)
        if factor:
            _subtract(self.cbar, factor, row)
        self.basis[r] = j

    def _primal(self) -> str:
        """Primal simplex, Bland's rule, from a primal feasible basis."""
        while True:
            enter = min(
                (j for j, v in self.cbar.items() if v > 0 and j not in self.artificial),
                default=-1,
            )
            if enter < 0:
                return OPTIMAL
            leave = -1
            for i, row in enumerate(self.rows):
                a = row.get(enter, 0)
                if a > 0:
                    if leave >= 0:
                        # rhs_i / a against rhs_leave / a_leave, both a > 0
                        diff = self.rhs[i] * self.rows[leave][enter] - self.rhs[leave] * a
                        if diff > 0 or (diff == 0 and self.basis[i] > self.basis[leave]):
                            continue
                    leave = i
            if leave < 0:
                return UNBOUNDED
            self._pivot(leave, enter)

    def _dual(self) -> str:
        """Dual simplex, Bland's rule, from a dual feasible basis."""
        while True:
            leave = -1
            for i, b in enumerate(self.rhs):
                if b < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return OPTIMAL
            row = self.rows[leave]
            enter = -1
            for j, a in row.items():
                if a < 0 and j not in self.artificial:
                    if enter >= 0:
                        # cbar_j / a against cbar_enter / a_enter, both a < 0
                        diff = self.cbar.get(j, 0) * row[enter] - self.cbar.get(enter, 0) * a
                        if diff > 0 or (diff == 0 and j > enter):
                            continue
                    enter = j
            if enter < 0:
                return INFEASIBLE
            self._pivot(leave, enter)

    def _expel_artificials(self) -> None:
        # Any artificial still basic sits at value 0; pivot it out on a
        # non-artificial column, or drop the row as redundant.
        i = 0
        while i < len(self.rows):
            if self.basis[i] in self.artificial:
                enter = min(
                    (j for j in self.rows[i] if j not in self.artificial), default=-1
                )
                if enter >= 0:
                    self._pivot(i, enter)
                    i += 1
                else:
                    del self.rows[i], self.rhs[i], self.basis[i]
            else:
                i += 1

    def primal_values(self) -> dict[Edge, int | Fraction]:
        """The nonzero variables of the current basic solution, as stored."""
        n = len(self.variables)
        return {
            self.variables[col]: self.rhs[i]
            for i, col in enumerate(self.basis)
            if col < n and self.rhs[i]
        }

    def dual_values(self) -> tuple[int | Fraction, ...]:
        """Original-row multipliers, in the order the rows were added, as stored."""
        # cbar[col] = c_col - z_col and c_col = 0, so z_col = -cbar[col].
        # `cbar` holds nonzeros only; an absent column reads 0.
        cbar = self.cbar
        return tuple(-sign * cbar[col] if col in cbar else 0 for col, sign in self.unit)


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
    instance: BipartiteInstance, point: FractionalPoint
) -> LinearInequality | None:
    """A subtour row of largest violation at `point`, or None; exact, by
    the min cuts of `_kernels.most_violated_set`."""
    best_mask = _kernels.most_violated_set(
        instance.num_vertices, *scan_inputs(instance, point)
    )
    if best_mask is None:
        return None
    return sec_constraint(instance, instance.vertices_in(best_mask))


@lru_cache(maxsize=RELAXATIONS_KEPT)
def _prepared(instance: BipartiteInstance, mode: DegreeMode, lazy: bool) -> _Relaxation:
    """The relaxation of `is_implied`, prepared on its first query.

    Equal instances share it.
    """
    rows = gen_degree(instance, mode)
    if not lazy:
        rows.extend(gen_secs(instance))
    return _Relaxation(instance, rows)


def is_implied(
    instance: BipartiteInstance,
    target: LinearInequality,
    mode: DegreeMode = "le",
    lazy: bool = True,
) -> ImplicationResult:
    """Maximize the target's left side over the relaxation.

    Implied iff the optimum is <= the target's rhs; otherwise the optimal
    point is returned as a violation witness.  The rows are the degree
    rows, plus every subtour row unless `lazy`, in which case `solve`
    separates subtour rows at each optimum instead.  They and the
    starting tableau are prepared once per instance, mode and driver.
    Both modes refuse an instance of more than
    `DEFAULT_ENUMERATION_CAP` vertices before it looks for a prepared one.
    """
    n = instance.num_vertices
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError("subtour enumeration", n, DEFAULT_ENUMERATION_CAP)
    if mode not in ("le", "eq"):
        raise ValueError(f"mode must be 'le' or 'eq', got {mode!r}")
    solution = solve(instance, target.coeffs, _prepared(instance, mode, bool(lazy)), lazy)
    if solution.status != OPTIMAL:
        raise CombcertError(f"relaxation LP ended {solution.status}")
    implied = solution.objective_value <= target.rhs
    return ImplicationResult(
        status="implied" if implied else "violated",
        optimum=solution.objective_value,
        target_rhs=Fraction(target.rhs),
        witness=None if implied else solution.point,
        dual_rows=tuple(compress(zip(solution.rows, solution.dual), solution.dual))
        if implied
        else None,
        rounds=solution.rounds,
        rows_used=len(solution.rows),
    )
