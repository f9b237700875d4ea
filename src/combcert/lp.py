"""Exact rational linear programming and the implication oracle.

One sparse simplex tableau over exact rationals (`_Tableau`).  Each row,
and the reduced-cost row, is a {column: value} dict holding only its
nonzeros, built straight from the rows' sparse coefficients, which
`LinearInequality` already holds as ints when integral.  Integral
entries are plain Python ints and all others `fractions.Fraction`; every
division goes through `Fraction`, so no float ever appears, and most
pivot arithmetic stays on ints.  Pivoting is by Bland's rule
(anti-cycling, no scaling; exact arithmetic makes scaling pointless at
desk scale).  A pivot reads its entering column once: the ratio test
and the elimination run over the rows that hold it.  Upper bounds
x <= 1 are explicit rows of the tableau, which keeps the dual a plain
vector over rows: the multiplier of every row, box rows included, is
read off the reduced cost of that row's slack (or artificial) column.
But a box row is stored only while an identity does not fix it (the
`_Tableau` docstring proves it): with s_e the slack of x_e + s_e = 1,
x_e or s_e is basic in every basis, and that equation is the sum of the
rows of the basic ones.  So a lone basic one's row is {x_e: 1, s_e: 1}
with rhs 1 (*trivial*), and if both are basic, one row is the unit
minus the non-basic part of the other and the rhs sum to 1
(*mirrored*).  Such a row is derived from the basis on demand, while
every rhs stays stored.  Every box row starts trivial, so the tableau
builds row dicts for the given rows only, and phase 1, phase 2 and the
dual rounds all run on that one storage.  Every row and entry of the
expanded tableau still exists, so the Bland path and the duals are
those of the expanded tableau.  No row is ever removed: a redundant
equality keeps its row, its artificial basic at 0, and reads 0.

`solve` is the one driver.  A `_Tableau` is built from the given rows:
it adds a box row per edge and runs phase 1, which reads no objective,
so one tableau serves any objective over the same rows.  `solve` copies
a prepared tableau (or builds one for the call), prices out the
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
and the dual are read as the tableau stores them, in the package's one
number form (`rational.normal`: an int when integral, else a
`Fraction`), and the audit checks them in integers: it scales the dual
by the lcm of its denominators, so on the integral degree, subtour and
box rows every product and sum it forms is a plain int, and it compares
them with the scaled objective and optimum.  The `LpSolution` a call
returns holds them as read.  The cold run over the final
rows is the reference that warm rounds are tested against: both end at
the same exact optimum.

`is_implied` maximizes a row's left-hand side over the relaxation
polytope.  Direct mode hands `solve` every subtour row up front; lazy
mode hands it the degree rows only and separates the rest.  It prepares
the tableau over those rows once per instance, degree mode and driver,
keeps the last `RELAXATIONS_KEPT` of them, and hands `solve` the
prepared tableau, so a query builds no row that does not depend on
its target.  Every optimum is still audited against the rows themselves,
and an "implied" verdict carries an independently checkable nonnegative
combination of relaxation rows, in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Mapping

from . import _kernels
from .constraints import (
    DegreeMode,
    LinearInequality,
    _degree_kind,
    check_enumeration_cap,
    gen_degree,
    gen_secs,
    scan_inputs,
    sec_constraint,
    upper_bound,
)
from .errors import CombcertError
from .graph import BipartiteInstance, Edge, FractionalPoint
from .rational import exact_value, normal, scale_to_ints

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Tableaus `is_implied` keeps prepared: one instance's two degree modes
# under both drivers.
RELAXATIONS_KEPT = 4


@dataclass(frozen=True)
class LpSolution:
    """A `solve` outcome; the optimum and the dual are as the tableau reads them."""

    status: str
    objective_value: int | Fraction | None
    point: FractionalPoint | None
    dual: tuple[int | Fraction, ...] | None  # aligned with `rows`
    rows: tuple[LinearInequality, ...]  # given rows, then cuts, then box rows
    rounds: int  # optima read: 1 per cold solve, +1 per cut


def solve(
    instance: BipartiteInstance,
    objective: Mapping[Edge, int | Fraction],
    rows: Iterable[LinearInequality] | _Tableau,
    lazy: bool = False,
) -> LpSolution:
    """Maximize `objective` over `rows` and the unit box, x >= 0.

    The variables are the instance's edges.  Each objective value must be
    an int or a `Fraction`; anything else raises `TypeError` naming its
    edge, before any tableau work.  `rows` is either the given rows, over
    which a tableau is built for this one call, or a `_Tableau` built over
    them before, which is copied and left as it is.  Either way the
    tableau holds the given rows and one x_e <= 1 row per edge, and has
    run phase 1; phase 2 runs on it.  With `lazy`, the most violated
    subtour row at each optimum is appended and the tableau re-optimized
    by the dual simplex, until separation finds none; a separated row
    that the optimum already satisfies raises `CombcertError`, since
    adding it again would loop forever.  Every optimum read has its dual
    audited against the tableau's rows.  A `_Tableau` whose variables are
    not the instance's `sorted_edges` raises `ValueError` before any work.
    """
    if isinstance(rows, _Tableau) and rows.variables != instance.sorted_edges:
        raise ValueError("the prepared tableau's variables are not the instance's edges")
    costs = {}
    for e, c in objective.items():
        if e not in instance.edges:
            raise ValueError(f"objective names edge {e} outside the instance")
        c = exact_value(c, "objective coefficient of edge", e)
        if c:
            costs[e] = c
    # A tableau built for this call only needs no copy.
    tableau = rows.copy() if isinstance(rows, _Tableau) else _Tableau(instance, rows)
    status = tableau.run(costs)
    rounds = 0
    while status == OPTIMAL:
        assignment = tableau.primal_values()
        value = normal(sum(costs.get(e, 0) * x for e, x in assignment.items()))
        rows_read, dual = tableau.rows_and_duals()
        _audit_duality(rows_read, tableau.variables, costs, value, dual)
        point = FractionalPoint(instance, assignment)
        rounds += 1
        cut = _most_violated_sec(instance, point) if lazy else None
        if cut is None:
            return LpSolution(OPTIMAL, value, point, dual, rows_read, rounds)
        if not cut.value_on(point) > cut.rhs:
            raise CombcertError(
                f"separation returned {cut.provenance}, which the optimum satisfies"
            )
        status = tableau.add_row(cut)
    return LpSolution(status, None, None, None, tableau.rows_and_duals()[0], rounds)


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
    multipliers, scale = scale_to_ints(y for y, _ in support)
    combined: dict[Edge, int | Fraction] = {}
    total = 0
    for multiplier, (_, row) in zip(multipliers, support):
        for e, c in row.coeffs.items():
            combined[e] = combined.get(e, 0) + multiplier * c
        total += multiplier * row.rhs
    for e in variables:
        if combined.get(e, 0) < scale * objective.get(e, 0):
            raise CombcertError(f"dual infeasible at variable {e}")
    if total != scale * optimum:
        raise CombcertError("dual objective does not match the optimum")


def _subtract(target: dict, factor, row: dict) -> None:
    """target -= factor * row, on sparse rows: zeros are dropped."""
    for k, v in row.items():
        t = target.get(k, 0) - factor * v
        if t.__class__ is not int:  # an int is in `normal` form already
            t = normal(t)
        if t:
            target[k] = t
        else:
            del target[k]


class _Tableau:
    """Sparse exact simplex tableau over an instance's edges, x_e <= 1 included.

    Built from the given rows, each checked to name only instance edges,
    followed by one x_e <= 1 box row per edge (`instance.sorted_edges`),
    so every variable is bounded and no objective is unbounded.  `source`
    holds the `LinearInequality` of each row: the given rows, the box rows
    (at the positions `boxes`), then each cut `add_row` appends.  A row's
    index never changes, and `rhs`, `basis`, `source` and `unit` only
    grow.  Phase 1 reads no objective, so the constructor runs it once
    and keeps its outcome in `feasible`.  `copy` makes a tableau in the
    same state that shares nothing it changes, so one prepared tableau
    serves any number of objectives.

    Each stored row, and the reduced-cost row `cbar`, is a {column: value}
    dict of its nonzeros; `rows` maps a stored row's index to it.  Every
    value is in the package's one form (`rational.normal`), the form
    `LinearInequality` stores its coefficients and rhs in, so a row's
    values enter the tableau as they are; pivots divide through `Fraction`
    only, so no float ever appears.  Columns are the structurals 0..n-1
    (the problem's variables), then one slack per inequality row, then one
    artificial per row that starts without an identity column (an
    equality, or a row negated for its negative rhs).  Artificials form a
    set and never enter the basis, so a slack appended later is eligible
    like any other.

    Box rows are derived, not stored, wherever the identity fixes them.
    Let s_e be the slack of x_e's box row x_e + s_e = 1; `partner` pairs
    the two columns and `pos` gives the row of each basic one.  The
    identity: x_e or s_e is basic in every basis, and x_e + s_e = 1 is the
    sum of the rows of the basic ones.  Proof: every original row is the
    sum of the tableau rows weighted by its own coefficients at the basic
    columns, and the box row's only coefficients are 1 at x_e and s_e
    (with neither basic it would read 0 = 1).  So if one is basic, its row
    is {x_e: 1, s_e: 1} with rhs 1 (*trivial*); if both are, in rows i and
    k, row k is 1 at basis[k] minus the non-basic part of row i, and
    rhs[k] = 1 - rhs[i] (*mirrored*).  `rows` holds no trivial row and one
    row of each mirrored pair; `mirror` maps that stored row to the
    derived one.  The constructor registers each box row as the trivial
    row it starts as, s_e basic with rhs 1, and builds no dict for it, so
    phase 1 already runs on this storage.
    `rhs` and `basis` keep a slot for every row.  `_row(i)` rebuilds a
    derived row, `_column(j)` reads j's entries in the derived rows off the
    stored ones, and `_pivot` eliminates in the stored rows only and keeps the
    bookkeeping: the row of the leaving column's partner turns trivial;
    the trivial row of the entering column's partner becomes the mirror
    of the pivot row; a derived pivot row is stored first, unless it is
    trivial, which is x_e's own bound flip and stays trivial.  So every
    row and entry of the expanded tableau, the one that stores every box
    row, is still read as that tableau holds it, and every ratio,
    tie-break, pivot and dual is that tableau's: no rule is remapped, and
    only arithmetic whose outcome the identity fixes is skipped.  `copy`
    duplicates the stored rows only.

    `run` prices out an objective and runs phase 2 by Bland's rule.  A
    pivot reads its entering column once (`_column`); the ratio test and
    the elimination read only the rows that hold it.
    `add_row` appends a <= row with a fresh slack column, reduces it
    against the current basis and restores primal feasibility by the dual
    simplex (Lemke, 1954) under Bland's rule: the leaving row is the
    negative-rhs row with the smallest basic column; the entering column
    attains the minimum ratio cbar_j / a_j over a_j < 0, ties to the
    smaller column.  The reduced costs never turn positive, so the result
    is optimal.

    The dual of row i is read off its identity column (its slack, or its
    artificial): y_i = -sign_i * cbar[column].  That covers the box rows
    as well, which are ordinary rows here.  Phase 1 keeps a redundant
    equality's row with its artificial basic at 0 and artificial columns
    only, which never enter, so no pivot, cut reduction or `cbar` entry
    touches it and it reads 0.
    `rows_and_duals` reads every row with its multiplier.
    """

    def __init__(self, instance: BipartiteInstance, rows: Iterable[LinearInequality]):
        given = list(rows)
        for row in given:
            for e in row.coeffs:
                if e not in instance.edges:
                    raise ValueError(f"row {row.provenance} names edge {e} outside the instance")
        self.variables = instance.sorted_edges
        self.column = {e: j for j, e in enumerate(self.variables)}
        self.source = given + [upper_bound(instance, e) for e in self.variables]
        self.boxes = slice(len(given), len(self.source))
        self.rows: dict[int, dict] = {}
        self.rhs: list = []
        self.basis: list[int] = []
        self.unit: list[tuple[int, int]] = []  # per row of `source`: (column, sign)
        self.artificial: set[int] = set()
        self.cbar: dict = {}
        self.partner: dict[int, int] = {}
        self.pos: dict[int, int] = {}
        self.mirror: dict[int, int] = {}
        n = len(self.variables)
        # Slacks count up from n in row order, the n box rows' last, and
        # artificials from the column past the last slack.
        slack, col = n, 2 * n + sum(not row.is_equality for row in given)
        for row in given:
            sign = -1 if row.rhs < 0 else 1
            entries = {self.column[e]: c for e, c in row.coeffs.items()}
            if sign < 0:
                entries = {j: -v for j, v in entries.items()}
            unit = slack
            if not row.is_equality:
                entries[slack] = sign  # +1 slack, -1 surplus
                slack += 1
            if row.is_equality or sign < 0:
                unit = col
                entries[col] = 1
                self.artificial.add(col)
                col += 1
            self.rows[len(self.rhs)] = entries
            self.rhs.append(sign * row.rhs)
            self.basis.append(unit)
            self.unit.append((unit, sign))
        # Each box row starts trivial: its slack basic, rhs 1.
        for x in range(n):
            self.partner[x], self.partner[slack] = slack, x
            self.pos[slack] = len(self.rhs)
            self.rhs.append(1)
            self.basis.append(slack)
            self.unit.append((slack, 1))
            slack += 1
        self.next_column = col
        # Phase 1: drive the artificials to 0 and out of the basis.
        self.feasible = True
        if self.artificial:
            self._price_out({col: -1 for col in self.artificial})
            self._primal()
            self.feasible = not any(
                self.rhs[i] for i, col in enumerate(self.basis) if col in self.artificial
            )
            if self.feasible:
                self._expel_artificials()

    def copy(self) -> _Tableau:
        """A tableau in this state that shares nothing either one changes."""
        tableau = _Tableau.__new__(_Tableau)
        tableau.variables, tableau.column = self.variables, self.column
        tableau.artificial, tableau.boxes = self.artificial, self.boxes
        tableau.partner = self.partner
        tableau.source = list(self.source)
        tableau.rows = {i: dict(row) for i, row in self.rows.items()}
        tableau.rhs = list(self.rhs)
        tableau.basis = list(self.basis)
        tableau.unit = list(self.unit)
        tableau.pos, tableau.mirror = dict(self.pos), dict(self.mirror)
        tableau.cbar = dict(self.cbar)
        tableau.next_column = self.next_column
        tableau.feasible = self.feasible
        return tableau

    def run(self, objective: Mapping[Edge, int | Fraction]) -> str:
        """Phase 2 for `objective`, or INFEASIBLE if phase 1 found no point."""
        if not self.feasible:
            return INFEASIBLE
        self._price_out({self.column[e]: normal(c) for e, c in objective.items() if c})
        return self._primal()

    def add_row(self, row: LinearInequality) -> str:
        """Append a <= row to an optimal tableau and re-optimize."""
        entries = {self.column[e]: c for e, c in row.coeffs.items()}
        rhs = row.rhs
        for i, col in enumerate(self.basis):
            factor = entries.get(col)
            if factor:
                _subtract(entries, factor, self._row(i))
                rhs = normal(rhs - factor * self.rhs[i])
        slack = self.next_column
        self.next_column += 1
        entries[slack] = 1
        self.rows[len(self.rhs)] = entries
        self.rhs.append(rhs)
        self.basis.append(slack)
        self.unit.append((slack, 1))
        self.source.append(row)
        return self._dual()

    def _price_out(self, costs: dict) -> None:
        self.cbar = dict(costs)
        for i, col in enumerate(self.basis):
            cost = costs.get(col)
            if cost:
                _subtract(self.cbar, cost, self._row(i))

    def _row(self, i: int) -> dict:
        """Row i as the expanded tableau holds it; a derived row is rebuilt."""
        row = self.rows.get(i)
        if row is not None:
            return row
        basic = self.basis[i]
        other = self.partner[basic]
        twin = self.pos.get(other)
        if twin is None:
            return {basic: 1, other: 1}
        row = {k: -v for k, v in self.rows[twin].items() if k != other}
        row[basic] = 1
        return row

    def _column(self, j: int) -> tuple[list, list]:
        """Column j, a non-basic column, as (row index, entry) pairs: those
        of the stored rows that hold it, and those of the derived rows that
        do, which are the mirror of each such row (entry negated) and the
        trivial row of j's partner (entry 1)."""
        rows = self.rows
        stored = [(i, row[j]) for i, row in rows.items() if j in row]
        derived = [(k, -rows[i][j]) for i, k in self.mirror.items() if j in rows[i]]
        if j in self.partner:
            derived.append((self.pos[self.partner[j]], 1))
        return stored, derived

    def _pivot(self, r: int, j: int, column: tuple[list, list]) -> None:
        """Pivot on (r, j), `column` being `_column(j)` read before the
        pivot: eliminate j from the stored rows that hold it and from
        `cbar`, update the rhs of every row that holds it, and keep the
        derived rows derived."""
        stored, derived = column
        rows, rhs, partner, pos, mirror = self.rows, self.rhs, self.partner, self.pos, self.mirror
        leaving = self.basis[r]
        row = rows.get(r)
        if row is not None:
            twin = mirror.pop(r, None)
        else:
            twin = pos.get(partner[leaving])
            if twin is None:  # trivial: x_e's own bound flip, which stays trivial
                row = {leaving: 1, j: 1}
            else:  # a mirror is stored from now on
                row = rows[r] = self._row(r)
                del rows[twin], mirror[twin]
                stored = [(i, a) for i, a in stored if i != twin]
        pivot = row[j]
        if pivot != 1:
            inverse = -1 if pivot == -1 else Fraction(1, pivot)
            row = rows[r] = {k: normal(v * inverse) for k, v in row.items()}
            rhs[r] = normal(rhs[r] * inverse)
        b = rhs[r]
        for i, factor in stored:
            if i != r:
                _subtract(rows[i], factor, row)
                if b:  # a degenerate pivot leaves every rhs as it is
                    rhs[i] = normal(rhs[i] - factor * b)
        if b:
            for i, factor in derived:
                if i != r:
                    rhs[i] = normal(rhs[i] - factor * b)
        factor = self.cbar.get(j)
        if factor:
            _subtract(self.cbar, factor, row)
        self.basis[r] = j
        if twin is not None:  # the leaving column's partner stays basic alone
            rhs[twin] = 1
        if leaving in partner:
            del pos[leaving]
        if j in partner:
            pos[j] = r
            t = pos.get(partner[j])  # None after a bound flip
            if t is not None:
                mirror[r] = t

    def _primal(self) -> str:
        """Primal simplex, Bland's rule, from a primal feasible basis."""
        rhs, basis = self.rhs, self.basis
        while True:
            enter = min(
                (j for j, v in self.cbar.items() if v > 0 and j not in self.artificial),
                default=-1,
            )
            if enter < 0:
                return OPTIMAL
            column = self._column(enter)
            leave = -1
            for part in column:
                for i, a in part:
                    if a > 0:
                        if leave >= 0:
                            # rhs_i / a against rhs_leave / a_leave, both a > 0
                            diff = rhs[i] * a_leave - rhs[leave] * a
                            if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                                continue
                        leave, a_leave = i, a
            if leave < 0:  # the box rows bound every column: a solver bug
                raise CombcertError(f"column {enter} is unbounded in a bounded tableau")
            self._pivot(leave, enter, column)

    def _dual(self) -> str:
        """Dual simplex, Bland's rule, from a dual feasible basis."""
        while True:
            leave = -1
            for i, b in enumerate(self.rhs):
                if b < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return OPTIMAL
            row = self._row(leave)
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
            self._pivot(leave, enter, self._column(enter))

    def _expel_artificials(self) -> None:
        # Any artificial still basic sits at value 0; pivot it out on its
        # row's least non-artificial column.  A row with none is redundant
        # and stays, its artificial basic at 0.
        for i, col in enumerate(self.basis):
            if col in self.artificial:
                enter = min((j for j in self.rows[i] if j not in self.artificial), default=-1)
                if enter >= 0:
                    self._pivot(i, enter, self._column(enter))

    def primal_values(self) -> dict[Edge, int | Fraction]:
        """The nonzero variables of the current basic solution, as stored."""
        n = len(self.variables)
        return {
            self.variables[col]: self.rhs[i]
            for i, col in enumerate(self.basis)
            if col < n and self.rhs[i]
        }

    def rows_and_duals(self) -> tuple[tuple[LinearInequality, ...], tuple[int | Fraction, ...]]:
        """Every row and its multiplier as stored: given rows, cuts, box rows."""
        # cbar[col] = c_col - z_col and c_col = 0, so z_col = -cbar[col].
        # `cbar` holds nonzeros only; an absent column reads 0.
        cbar, boxes = self.cbar, self.boxes
        duals = [-sign * cbar[col] if col in cbar else 0 for col, sign in self.unit]
        source = self.source
        return (
            (*source[: boxes.start], *source[boxes.stop :], *source[boxes]),
            (*duals[: boxes.start], *duals[boxes.stop :], *duals[boxes]),
        )


@dataclass(frozen=True)
class ImplicationResult:
    status: str  # "implied" | "violated"
    optimum: int | Fraction
    target_rhs: int | Fraction
    witness: FractionalPoint | None
    dual_rows: tuple[tuple[LinearInequality, int | Fraction], ...] | None
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
def _prepared(instance: BipartiteInstance, mode: DegreeMode, lazy: bool) -> _Tableau:
    """The tableau of `is_implied`'s relaxation, built on its first query.

    Equal instances share it.
    """
    rows = gen_degree(instance, mode)
    if not lazy:
        rows.extend(gen_secs(instance))
    return _Tableau(instance, rows)


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
    separates subtour rows at each optimum instead.  The tableau over
    them is prepared once per instance, mode and driver.
    Both modes refuse an instance past the vertex cap
    (`check_enumeration_cap`) before they look for a prepared one.
    """
    check_enumeration_cap(instance)
    _degree_kind(mode)  # before `_prepared`, whose lookup hashes the mode
    solution = solve(instance, target.coeffs, _prepared(instance, mode, bool(lazy)), lazy)
    if solution.status != OPTIMAL:
        raise CombcertError(f"relaxation LP ended {solution.status}")
    implied = solution.objective_value <= target.rhs
    return ImplicationResult(
        status="implied" if implied else "violated",
        optimum=solution.objective_value,
        target_rhs=target.rhs,
        witness=None if implied else solution.point,
        dual_rows=tuple(compress(zip(solution.rows, solution.dual), solution.dual))
        if implied
        else None,
        rounds=solution.rounds,
        rows_used=len(solution.rows),
    )
