"""The integer-scaled duality audit, and the objective values `solve` takes.

`lp._audit_duality` scales the dual by the lcm of its denominators and
checks in ints.  It must decide exactly as the `Fraction` audit it
replaced (`oracles.fraction_audit_duality`): on every round that seeded
lazy and direct queries audit, and on mutants of those rounds that a
sound audit accepts or rejects.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from combcert import (
    BipartiteInstance,
    CombcertError,
    LinearInequality,
    comb_inequality,
    gen_degree,
    is_implied,
    solve,
)
from combcert import lp
from combcert.search import FAMILIES, sample_comb
from oracles import fraction_audit_duality

# Direct mode stops at K_{6,6}: K_{7,7} has 16,340 rows, and in `eq` mode
# preparing them takes tens of seconds.
CASES = [(n, mode, True) for n in range(3, 9) for mode in ("le", "eq")] + [
    (n, mode, False) for n in range(3, 7) for mode in ("le", "eq")
]


def _audited_rounds(instance, combs, mode, lazy, monkeypatch):
    """The arguments of every audit that `is_implied` ran on `combs`."""
    rounds = []
    audit = lp._audit_duality

    def record(rows, variables, objective, optimum, dual):
        rounds.append((tuple(rows), tuple(variables), dict(objective), optimum, tuple(dual)))
        return audit(rows, variables, objective, optimum, dual)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_audit_duality", record)
        for comb in combs:
            is_implied(instance, comb_inequality(instance, comb), mode=mode, lazy=lazy)
    return rounds


def _verdict(audit, args):
    """None when `audit` accepts, else its `CombcertError` message."""
    try:
        audit(*args)
    except CombcertError as exc:
        return str(exc)
    return None


def _assert_same_verdict(args):
    verdict = _verdict(lp._audit_duality, args)
    assert verdict == _verdict(fraction_audit_duality, args)
    return verdict


def _scaled_row(row, factor):
    """`row` with its coefficients and rhs divided by `factor`."""
    return LinearInequality(
        {e: Fraction(c) / factor for e, c in row.coeffs.items()},
        Fraction(row.rhs) / factor,
        row.kind,
        row.provenance,
    )


def _fractional(rng, rows, variables, objective, optimum, dual):
    """An equivalent round on non-integral rows and objective.

    Each row with a nonzero multiplier, and one other row, is divided by a
    non-integral factor while its multiplier is multiplied by it; the
    objective, the optimum and every multiplier are divided by one more.
    The result is still a valid certificate.
    """
    scaled = {k for k, y in enumerate(dual) if y} | {rng.randrange(len(rows))}
    factors = [
        Fraction(rng.choice((3, 5, 7)), rng.choice((2, 4))) if k in scaled else 1
        for k in range(len(rows))
    ]
    s = Fraction(rng.choice((3, 5)), 2)
    return (
        tuple(_scaled_row(row, f) if f != 1 else row for row, f in zip(rows, factors)),
        variables,
        {e: Fraction(c) / s for e, c in objective.items()},
        Fraction(optimum) / s,
        tuple(Fraction(y) * f / s for y, f in zip(dual, factors)),
    )


def _mutants(rng, rows, variables, objective, optimum, dual):
    """(name, audit arguments, expected verdict).

    The expected verdict is "accept", a part of the expected message, or
    None where either verdict can be right.
    """
    support = [k for k, y in enumerate(dual) if y]

    def with_entry(values, k, value):
        return (*values[:k], value, *values[k + 1 :])

    if support:
        k = rng.choice(support)
        negated = with_entry(dual, k, -dual[k])
        yield "negated", (rows, variables, objective, optimum, negated), None
    k = rng.randrange(len(dual))
    bumped = with_entry(dual, k, dual[k] + Fraction(1, 3))
    yield "plus a third", (rows, variables, objective, optimum, bumped), None
    scale = lcm(*(Fraction(y).denominator for y in dual))
    off = optimum + Fraction(1, scale)
    yield "optimum + 1/D", (rows, variables, objective, off, dual), "does not match the optimum"
    yield "one entry short", (rows, variables, objective, optimum, dual[:-1]), "length mismatch"
    fractional = _fractional(rng, rows, variables, objective, optimum, dual)
    yield "non-integral", fractional, "accept"
    f_rows, _, f_objective, f_optimum, f_dual = fractional
    k = rng.randrange(len(f_dual))
    f_bumped = with_entry(f_dual, k, f_dual[k] + Fraction(1, 3))
    yield "non-integral, plus a third", (f_rows, variables, f_objective, f_optimum, f_bumped), None
    if support:
        k = rng.choice(support)
        f_negated = with_entry(f_dual, k, -f_dual[k])
        yield "non-integral, negated", (f_rows, variables, f_objective, f_optimum, f_negated), None


def _check_rounds(rounds, rng):
    """Both audits accept every round, and decide every mutant alike."""
    outcomes = set()
    for args in rounds:
        assert _assert_same_verdict(args) is None
        for name, mutant, expected in _mutants(rng, *args):
            verdict = _assert_same_verdict(mutant)
            outcomes.add(verdict is None)
            if expected == "accept":
                assert verdict is None, name
            elif expected is not None:
                assert verdict is not None and expected in verdict, name
    assert outcomes == {True, False}


@pytest.mark.parametrize("n, mode, lazy", CASES)
def test_integer_audit_decides_as_the_fraction_audit(n, mode, lazy, monkeypatch):
    instance = BipartiteInstance.complete(n)
    rng = random.Random(900 + n)
    combs = [sample_comb(rng, instance, family) for family in FAMILIES]
    rounds = _audited_rounds(instance, combs, mode, lazy, monkeypatch)
    assert len(rounds) >= len(FAMILIES)
    _check_rounds(rounds, random.Random(n))


@pytest.mark.parametrize("lazy", [True, False])
def test_integer_audit_on_the_paper_tables(table1, table2, lazy, monkeypatch):
    """The table combs are violated, and each final dual holds halves, so
    the audit scales it by 2; the complete instances rarely give one."""
    rounds = []
    for instance, _, comb in (table1, table2):
        rounds += _audited_rounds(instance, [comb], "le", lazy, monkeypatch)
    scales = [lcm(*(Fraction(y).denominator for y in args[-1])) for args in rounds]
    assert [scale for scale in scales if scale > 1] == [2, 2]
    _check_rounds(rounds, random.Random(7))


def test_integer_audit_reports_as_the_fraction_audit():
    """Each failure names the same first culprit, in the same order of checks."""
    k22 = BipartiteInstance.complete(2)
    objective = {e: 1 for e in k22.edges}
    solution = solve(k22, objective, gen_degree(k22))
    rows, dual = solution.rows, solution.dual
    variables = tuple(sorted(k22.edges))
    cases = [
        (rows, variables, objective, solution.objective_value, dual),
        (rows, variables, objective, solution.objective_value, (-1,) * len(rows)),
        (rows, variables, objective, solution.objective_value, (0,) * len(rows)),
        (rows, variables, objective, solution.objective_value + 1, dual),
        (rows, variables, objective, solution.objective_value, dual[1:]),
    ]
    verdicts = [_assert_same_verdict(args) for args in cases]
    assert verdicts[0] is None
    assert all(verdicts[1:])
    assert len(set(verdicts[1:])) == 4


BAD_OBJECTIVE_VALUES = [0.5, 0.0, 2.0, True, False, "1/2", None, 1 + 0j]


@pytest.mark.parametrize("bad", BAD_OBJECTIVE_VALUES, ids=repr)
def test_solve_refuses_an_objective_value_that_is_not_int_or_fraction(bad, monkeypatch):
    k33 = BipartiteInstance.complete(3)
    e, f = sorted(k33.edges)[:2]
    prepared = lp._Relaxation(k33, gen_degree(k33))

    def no_tableau(*args, **kwargs):
        raise AssertionError("tableau work before the objective was checked")

    monkeypatch.setattr(lp._Tableau, "__init__", no_tableau)
    monkeypatch.setattr(lp._Tableau, "copy_of", no_tableau)
    for rows, lazy in ((gen_degree(k33), False), (prepared, True)):
        with pytest.raises(TypeError) as refused:
            solve(k33, {f: 1, e: bad}, rows, lazy)
        message = str(refused.value)
        assert message.startswith(f"objective coefficient of edge {e}: ")
        assert message.endswith(f"got {bad!r}")


def test_int_and_fraction_objectives_give_the_same_solution():
    k33 = BipartiteInstance.complete(3)
    rng = random.Random(5)
    for _ in range(20):
        values = {e: rng.randint(-2, 3) for e in k33.edges}
        as_ints = solve(k33, values, gen_degree(k33), lazy=True)
        as_fractions = solve(
            k33, {e: Fraction(c) for e, c in values.items()}, gen_degree(k33), lazy=True
        )
        halves = solve(
            k33, {e: Fraction(c, 2) for e, c in values.items()}, gen_degree(k33), lazy=True
        )
        assert as_ints == as_fractions
        assert halves.objective_value == as_ints.objective_value / 2
        assert halves.dual == tuple(y / 2 for y in as_ints.dual)


def test_solutions_and_verdicts_hold_fractions(table1):
    instance, _, comb = table1
    target = comb_inequality(instance, comb)
    solution = solve(instance, target.coeffs, gen_degree(instance), lazy=True)
    assert type(solution.objective_value) is Fraction
    assert all(type(y) is Fraction for y in solution.dual)
    assert all(type(w) is Fraction for _, w in solution.point.items())
    for lazy in (True, False):
        result = is_implied(instance, target, lazy=lazy)
        assert type(result.optimum) is Fraction
        assert type(result.target_rhs) is Fraction
        assert all(type(w) is Fraction for _, w in result.witness.items())
    k44 = BipartiteInstance.complete(4)
    rng = random.Random(3)
    target = comb_inequality(k44, sample_comb(rng, k44, "l1"))
    result = is_implied(k44, target)
    assert result.implied
    assert result.dual_rows
    assert all(type(y) is Fraction for _, y in result.dual_rows)
