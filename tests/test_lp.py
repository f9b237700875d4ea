import random
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    ConstraintKind,
    LinearInequality,
    comb_inequality,
    gen_degree,
    is_implied,
    solve,
)
from combcert.errors import CombcertError
from combcert.graph import CLASS1, CLASS2, Edge, VertexId
from combcert import lp
from combcert.lp import INFEASIBLE, OPTIMAL, _audit_duality
from combcert.search import sample_comb
from combcert.certificates import BUILDERS
from oracles import vertex_enumeration_max


def _vars(instance):
    return tuple(sorted(instance.edges))


def _row(variables, coeffs, rhs, is_eq=False, name="row"):
    kind = ConstraintKind.DEGREE_EQ2 if is_eq else ConstraintKind.AGGREGATE
    return LinearInequality(
        {variables[j]: Fraction(c) for j, c in coeffs.items() if c},
        Fraction(rhs),
        kind,
        name,
    )


def test_single_variable_bound():
    instance = BipartiteInstance.complete(1, 1)
    variables = _vars(instance)
    solution = solve(instance, {variables[0]: Fraction(1)}, ())
    assert solution.status == OPTIMAL
    assert solution.objective_value == 1


def test_k22_degree_lp_max_total_weight():
    k22 = BipartiteInstance.complete(2)
    solution = solve(k22, {e: Fraction(1) for e in k22.edges}, gen_degree(k22))
    assert solution.objective_value == 4
    assert all(solution.point.weight(e) == 1 for e in k22.edges)


def test_infeasible_detected():
    instance = BipartiteInstance.complete(1, 2)
    variables = _vars(instance)
    rows = (
        _row(variables, {0: 1, 1: 1}, -1, name="impossible"),
    )
    assert solve(instance, {variables[0]: Fraction(1)}, rows).status == INFEASIBLE


def test_equality_rows_handled():
    instance = BipartiteInstance.complete(1, 2)
    variables = _vars(instance)
    rows = (
        _row(variables, {0: 1, 1: 1}, Fraction(3, 2), is_eq=True, name="sum"),
    )
    solution = solve(instance, {variables[0]: Fraction(1)}, rows)
    assert solution.status == OPTIMAL
    assert solution.objective_value == 1
    assert solution.point.weight(variables[1]) == Fraction(1, 2)


def test_dual_is_exposed_and_matches_objective():
    k22 = BipartiteInstance.complete(2)
    solution = solve(k22, {e: Fraction(1) for e in k22.edges}, gen_degree(k22))
    rows = solution.rows
    assert rows[: k22.num_vertices] == tuple(gen_degree(k22))
    assert [row.kind for row in rows[k22.num_vertices :]] == [ConstraintKind.UPPER_BOUND] * 4
    assert len(solution.dual) == len(rows)
    assert sum(y * r.rhs for y, r in zip(solution.dual, rows)) == 4
    assert all(y >= 0 for y in solution.dual)


def _audited_k22():
    """A solved problem and the arguments `solve` hands to the audit."""
    k22 = BipartiteInstance.complete(2)
    objective = {e: Fraction(1) for e in k22.edges}
    solution = solve(k22, objective, gen_degree(k22))
    return solution.rows, _vars(k22), objective, solution.objective_value, list(solution.dual)


def test_audit_accepts_the_dual_from_solve():
    rows, variables, objective, optimum, dual = _audited_k22()
    _audit_duality(rows, variables, objective, optimum, tuple(dual))


def test_audit_rejects_length_mismatch():
    rows, variables, objective, optimum, dual = _audited_k22()
    with pytest.raises(CombcertError, match="length mismatch"):
        _audit_duality(rows, variables, objective, optimum, tuple(dual[:-1]))


def test_audit_rejects_negative_multiplier():
    rows, variables, objective, optimum, dual = _audited_k22()
    dual[-1] = Fraction(-1)  # an upper-bound row, an inequality
    with pytest.raises(CombcertError, match="negative dual multiplier on ub"):
        _audit_duality(rows, variables, objective, optimum, tuple(dual))


def test_audit_rejects_dual_infeasibility():
    rows, variables, objective, optimum, dual = _audited_k22()
    with pytest.raises(CombcertError, match="dual infeasible at variable"):
        _audit_duality(rows, variables, objective, optimum, (Fraction(0),) * len(rows))


def test_audit_rejects_objective_mismatch():
    rows, variables, objective, optimum, dual = _audited_k22()
    with pytest.raises(CombcertError, match="does not match the optimum"):
        _audit_duality(rows, variables, objective, optimum + 1, tuple(dual))


def test_table1_comb_lp_value(table1):
    instance, _, comb = table1
    row = comb_inequality(instance, comb)
    result = is_implied(instance, row)
    assert result.status == "violated"
    assert result.optimum == Fraction(15, 2)
    assert result.witness is not None
    # The witness genuinely achieves the optimum.
    achieved = sum(
        c * result.witness.weight(e) for e, c in row.coeffs.items()
    )
    assert achieved == result.optimum


def test_table2_corrected_comb_lp_value(table2):
    instance, _, comb = table2
    result = is_implied(instance, comb_inequality(instance, comb))
    assert result.status == "violated"
    assert result.optimum == Fraction(17, 2)


def test_certified_comb_is_implied_with_dual(k44):
    rng = random.Random(909)
    for family in ("l1", "l3", "t2"):
        comb = sample_comb(rng, k44, family)
        cert = BUILDERS[family.upper()](k44, comb)
        row = comb_inequality(k44, comb)
        result = is_implied(k44, row)
        assert result.implied
        assert result.dual_rows  # checked multipliers travel with the verdict
        total = sum(y for _, y in result.dual_rows)
        assert total > 0


def test_lazy_and_direct_agree(k33, table1):
    rng = random.Random(11)
    instance1, _, comb1 = table1
    cases = [(instance1, comb_inequality(instance1, comb1))]
    for family in ("l1", "wild"):
        comb = sample_comb(rng, k33, family)
        cases.append((k33, comb_inequality(k33, comb)))
    for instance, row in cases:
        lazy = is_implied(instance, row, lazy=True)
        direct = is_implied(instance, row, lazy=False)
        assert lazy.optimum == direct.optimum
        assert lazy.status == direct.status


def test_value_invariant_under_row_permutation(k33):
    rng = random.Random(17)
    rows = tuple(gen_degree(k33))
    objective = {e: Fraction(rng.randint(1, 3)) for e in k33.edges}
    base = solve(k33, objective, rows).objective_value
    for _ in range(4):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert solve(k33, objective, shuffled).objective_value == base


def test_solve_matches_vertex_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        instance = BipartiteInstance.complete(1, n)
        variables = _vars(instance)
        triples = []
        rows = []
        for i in range(m):
            vec = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rhs = Fraction(rng.randint(-2, 4), rng.choice((1, 2)))
            is_eq = rng.random() < 0.15
            triples.append((vec, rhs, is_eq))
            rows.append(
                _row(
                    variables,
                    {j: vec[j] for j in range(n)},
                    rhs,
                    is_eq=is_eq,
                    name=f"r{i}",
                )
            )
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        solution = solve(
            instance, {variables[j]: objective[j] for j in range(n) if objective[j]}, rows
        )
        expected = vertex_enumeration_max(n, triples, objective)
        if expected is None:
            assert solution.status == INFEASIBLE
        else:
            assert solution.status == OPTIMAL
            assert solution.objective_value == expected


def test_solve_refuses_an_edge_outside_the_instance():
    instance = BipartiteInstance.complete(1, 2)
    variables = _vars(instance)
    foreign = Edge(VertexId(CLASS1, 0), VertexId(CLASS2, 2))
    row = LinearInequality({foreign: 1}, 1, ConstraintKind.AGGREGATE, "foreign")
    with pytest.raises(ValueError, match="row foreign names edge .* outside the instance"):
        solve(instance, {variables[0]: Fraction(1)}, [row])
    with pytest.raises(ValueError, match="objective names edge .* outside the instance"):
        solve(instance, {foreign: Fraction(1)}, ())
    with pytest.raises(ValueError, match="outside the instance"):
        solve(instance, {variables[0]: Fraction(1)}, [row], lazy=True)


def test_solve_refuses_a_tableau_over_other_edges(monkeypatch):
    k33, k44 = BipartiteInstance.complete(3), BipartiteInstance.complete(4)
    objective = dict.fromkeys(k33.edges, 1)  # x(E(K_{3,3})), edges of K_{4,4} too
    assert solve(k44, objective, gen_degree(k44, "eq")).objective_value == 5
    foreign = lp._Tableau(k33, gen_degree(k33, "eq"))

    def no_work(*args, **kwargs):
        raise AssertionError("work before the tableau's variables were checked")

    monkeypatch.setattr(lp, "exact_value", no_work)
    monkeypatch.setattr(lp._Tableau, "copy", no_work)
    for lazy in (False, True):
        with pytest.raises(ValueError, match="variables are not the instance's edges"):
            solve(k44, objective, foreign, lazy)
    monkeypatch.undo()
    # An equal instance, built apart, has the same variables.
    assert solve(BipartiteInstance.complete(3), objective, foreign).objective_value == 6


def test_lazy_solve_lists_rows_given_then_cuts_then_box(table1):
    instance, _, comb = table1
    objective = comb_inequality(instance, comb).coeffs
    degree = gen_degree(instance)
    solution = solve(instance, objective, degree, lazy=True)
    assert solution.status == OPTIMAL
    cuts = solution.rows[len(degree) : len(solution.rows) - len(instance.edges)]
    assert solution.rows[: len(degree)] == tuple(degree)
    assert solution.rounds == len(cuts) + 1 > 1
    assert all(row.kind is ConstraintKind.SUBTOUR_ELIM for row in cuts)
    box = solution.rows[len(degree) + len(cuts) :]
    assert all(row.kind is ConstraintKind.UPPER_BOUND for row in box)
    # The cold run over the final rows is the reference for the warm rounds.
    cold = solve(instance, objective, degree + list(cuts))
    assert cold.rounds == 1
    assert (cold.objective_value, cold.rows) == (solution.objective_value, solution.rows)
    _audit_duality(
        solution.rows, _vars(instance), objective, solution.objective_value, solution.dual
    )
