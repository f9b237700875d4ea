"""The sparse tableau: warm-started cut rounds against cold solves.

Lazy `is_implied` keeps one tableau per query and appends each separated
subtour row to it, repairing feasibility by the dual simplex.  Every warm
result must agree with a cold `solve` over the same final rows, and no
entry of the tableau may ever be a float.
"""

import random
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    CombcertError,
    ConstraintKind,
    LinearInequality,
    comb_inequality,
    gen_degree,
    gen_secs,
    is_implied,
    sec_constraint,
    solve,
)
from combcert import lp
from combcert.lp import INFEASIBLE, OPTIMAL, _audit_duality
from combcert.search import FAMILIES, sample_comb
from oracles import ExpandedTableau, check_box_pairs, expanded_rows, in_normal_form


def _row(variables, coeffs, rhs, name="row"):
    return LinearInequality(
        {variables[j]: Fraction(c) for j, c in coeffs.items() if c},
        Fraction(rhs),
        ConstraintKind.AGGREGATE,
        name,
    )


def _lazy_run(instance, target, mode, monkeypatch):
    """Lazy `is_implied`, plus the cuts its separation returned, in order."""
    cuts = []
    separate = lp._most_violated_sec

    def record(inst, point):
        row = separate(inst, point)
        if row is not None:
            cuts.append(row)
        return row

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_most_violated_sec", record)
        result = is_implied(instance, target, mode=mode)
    return result, cuts


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["le", "eq"])
def test_warm_lazy_matches_cold_solve_on_final_rows(n, mode, monkeypatch):
    instance = BipartiteInstance.complete(n)
    rng = random.Random(700 + n)
    combs = [sample_comb(rng, instance, family) for family in FAMILIES for _ in range(2)]
    warm_rounds = 0
    for comb in combs:
        target = comb_inequality(instance, comb)
        result, cuts = _lazy_run(instance, target, mode, monkeypatch)
        assert result.rounds == len(cuts) + 1
        warm_rounds += len(cuts)
        cold = solve(instance, target.coeffs, gen_degree(instance, mode) + cuts)
        assert cold.status == OPTIMAL
        assert result.optimum == cold.objective_value
        assert result.implied == (cold.objective_value <= target.rhs)
        rows = cold.rows
        assert result.rows_used == len(rows)
        if not result.implied:
            continue
        # Nonzero multipliers, in `solve`'s row order: degree, cuts, box.
        support = [row for row, _ in result.dual_rows]
        position = {row.provenance: k for k, row in enumerate(rows)}
        assert len(position) == len(rows)
        positions = [position[row.provenance] for row in support]
        assert positions == sorted(positions)
        _audit_duality(
            support,
            tuple(sorted(instance.edges)),
            target.coeffs,
            result.optimum,
            tuple(y for _, y in result.dual_rows),
        )
    if n >= 4:
        assert warm_rounds  # some queries did take warm rounds


def _check_entries(tableau):
    """Asserts that every tableau entry is an int or a Fraction, and no zero."""
    values = list(tableau.rhs) + list(tableau.cbar.values())
    for row in expanded_rows(tableau):
        values += row.values()
    for value in values:
        assert in_normal_form(value), value
    assert all(values[len(tableau.rhs) :])  # sparse rows hold no zeros


def _check_every_solve(patch):
    """Patches `lp._Tableau.run` and `add_row` to check the entries after
    every call, on every tableau, copies of one built before included;
    returns the list that gets one entry per check."""
    checks = []
    for name in ("run", "add_row"):
        method = getattr(lp._Tableau, name)

        def checked(self, arg, method=method):
            status = method(self, arg)
            _check_entries(self)
            checks.append(method.__name__)
            return status

        patch.setattr(lp._Tableau, name, checked)
    return checks


def _check_every_pivot(patch, cls):
    """Patches `cls._pivot` to check every box pair after every pivot
    (`check_box_pairs`); returns the list that gets one entry per check."""
    checks = []
    pivot = cls._pivot

    def checked(self, *args):
        pivot(self, *args)
        check_box_pairs(self)
        checks.append(args[:2])

    patch.setattr(cls, "_pivot", checked)
    return checks


def _random_lp_rounds(monkeypatch) -> int:
    """Random LPs with random cuts appended, each warm round against a
    cold solve; returns the number of optimal warm rounds."""
    rng = random.Random(31)
    checked = 0
    checks = _check_every_solve(monkeypatch)
    for _ in range(60):
        instance = BipartiteInstance.complete(1, rng.randint(2, 4))
        variables = tuple(sorted(instance.edges))
        n = len(variables)

        def random_row(name):
            coeffs = {j: rng.randint(-2, 3) for j in range(n)}
            return _row(variables, coeffs, Fraction(rng.randint(-1, 4), rng.choice((1, 2, 3))), name)

        objective = {e: Fraction(rng.randint(-2, 3)) for e in variables}
        base = [random_row(f"r{i}") for i in range(rng.randint(0, 3))]
        tableau = lp._Tableau(instance, base)
        status = tableau.run(objective)
        cuts = []
        for k in range(4):
            if status != OPTIMAL:
                break
            cut = random_row(f"cut{k}")
            cuts.append(cut)
            status = tableau.add_row(cut)
            cold = solve(instance, objective, base + cuts)
            assert status == cold.status
            rows, dual = tableau.rows_and_duals()
            assert rows == cold.rows  # given rows, cuts, then box rows
            if status == OPTIMAL:
                assignment = tableau.primal_values()
                warm = sum(c * assignment.get(e, 0) for e, c in objective.items())
                assert warm == cold.objective_value
                _audit_duality(rows, variables, objective, warm, dual)
                checked += 1
    assert checks.count("add_row") >= checked  # every warm round was checked
    return checked


def test_appended_rows_match_cold_solve_on_random_lps(monkeypatch):
    pivots = _check_every_pivot(monkeypatch, lp._Tableau)
    assert _random_lp_rounds(monkeypatch) > 50
    assert len(pivots) > 100


def test_expanded_tableau_keeps_the_box_identity_on_random_lps(monkeypatch):
    # The same LPs on the tableau that stores every box row: the identity
    # that `lp._Tableau` derives its box rows from holds after every pivot.
    monkeypatch.setattr(lp, "_Tableau", ExpandedTableau)
    pivots = _check_every_pivot(monkeypatch, ExpandedTableau)
    assert _random_lp_rounds(monkeypatch) > 50
    assert len(pivots) > 100


def test_cut_that_empties_the_polytope_is_infeasible():
    instance = BipartiteInstance.complete(1, 2)
    variables = tuple(sorted(instance.edges))
    tableau = lp._Tableau(instance, [])
    assert tableau.run({variables[0]: Fraction(1)}) == OPTIMAL
    assert tableau.add_row(_row(variables, {0: -1, 1: -1}, -3)) == INFEASIBLE


def _checked_queries(cases, monkeypatch):
    """Every query of `cases` with every `lp._Tableau` checked; returns the
    number of checks and the number of optima the queries read."""
    optima = 0
    with monkeypatch.context() as patch:
        checks = _check_every_solve(patch)
        for inst, target, modes in cases:
            for mode in modes:
                result = is_implied(inst, target, mode=mode)
                optima += result.rounds
                assert in_normal_form(result.optimum)
                if result.implied:
                    assert all(in_normal_form(y) for _, y in result.dual_rows)
                else:
                    assert all(in_normal_form(w) for _, w in result.witness.items())
            solution = solve(inst, target.coeffs, gen_degree(inst))
            optima += solution.rounds
            assert in_normal_form(solution.objective_value)
            assert all(map(in_normal_form, solution.dual))
            assert all(in_normal_form(w) for _, w in solution.point.items())
        return len(checks), optima


def test_tableau_entries_are_int_or_fraction_never_float(table1, monkeypatch):
    instance, _, table_comb = table1
    k55 = BipartiteInstance.complete(5)
    rng = random.Random(5)
    cases = [(instance, comb_inequality(instance, table_comb), ("le",))] + [
        (k55, comb_inequality(k55, sample_comb(rng, k55, "wild")), ("le", "eq"))
        for _ in range(6)
    ]  # the Table 1 instance has no tour
    # `is_implied` copies a prepared tableau per query.  Every run and
    # every warm round goes through the checked methods whether the
    # tableau was prepared under the patch (cold cache) or before it (warm
    # cache).
    lp._prepared.cache_clear()
    for warm in (False, True):
        if warm:
            lp._prepared.cache_clear()
            for inst, target, modes in cases:
                for mode in modes:
                    is_implied(inst, target, mode=mode)
        checks, optima = _checked_queries(cases, monkeypatch)
        assert checks > 3 * len(cases)  # warm rounds were checked
        assert checks == optima  # one check per optimum read: none was missed


def test_separated_row_that_is_not_violated_stops_the_loop(k44, monkeypatch):
    target = comb_inequality(k44, sample_comb(random.Random(3), k44, "wild"))
    triple = frozenset(sorted(k44.vertices())[3:6])  # one class-1, two class-2
    satisfied = sec_constraint(k44, triple)  # x(S) <= 2 holds: S spans two edges
    assert len(satisfied.coeffs) == 2
    monkeypatch.setattr(lp, "_most_violated_sec", lambda inst, point: satisfied)
    with pytest.raises(CombcertError, match="which the optimum satisfies"):
        is_implied(k44, target)


def _redundant_rows(tableau):
    return [i for i, col in enumerate(tableau.basis) if col in tableau.artificial]


@pytest.mark.parametrize(
    "n, lazy",
    [(n, True) for n in range(3, 9)] + [(3, False), (4, False)],
    ids=[f"K{n}-lazy" for n in range(3, 9)] + ["K3-direct", "K4-direct"],
)
def test_phase_one_keeps_the_dependent_degree_equation(n, lazy, monkeypatch):
    # In eq mode the |V| degree equations have rank |V| - 1, so phase 1
    # leaves one artificial basic.  Its row stays, holds artificial columns
    # only, and no query touches it or gives it a nonzero multiplier.
    instance = BipartiteInstance.complete(n)
    rows = gen_degree(instance, "eq")
    if not lazy:
        rows.extend(gen_secs(instance))
    tableau = lp._Tableau(instance, rows)
    assert tableau.feasible
    (i,) = _redundant_rows(tableau)
    assert i < tableau.boxes.start and tableau.source[i].is_equality
    kept = (dict(tableau.rows[i]), tableau.rhs[i], tableau.basis[i])
    assert kept[1] == 0
    assert kept[0] and set(kept[0]) <= tableau.artificial
    copies = []
    copy = lp._Tableau.copy

    def recorded_copy(self):
        copies.append(copy(self))
        return copies[-1]

    monkeypatch.setattr(lp._Tableau, "copy", recorded_copy)
    rng = random.Random(f"kept/{n}/{lazy}")
    for k in range(20):
        comb = sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)])
        solution = solve(instance, comb_inequality(instance, comb).coeffs, tableau, lazy)
        assert solution.status == OPTIMAL
        assert solution.rows[i] is tableau.source[i] and solution.dual[i] == 0
        query = copies[-1]
        assert _redundant_rows(query) == [i]
        assert (query.rows[i], query.rhs[i], query.basis[i]) == kept
    assert len(copies) == 20
