"""`is_implied` on prepared relaxations against uncached `solve` calls.

`is_implied` prepares the tableau of its relaxation (the rows, box rows
included, after phase 1) once per (instance, mode, driver) and copies it
per query.  Its
outcomes must equal those of `solve` over freshly generated rows, the
prepared state must never change, and the cache must stay within its
bound.
"""

import random
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    CombcertError,
    EnumerationCapError,
    comb_inequality,
    gen_degree,
    gen_secs,
    is_implied,
    lp,
    solve,
)
from combcert import constraints
from combcert.constraints import upper_bound
from combcert.lp import OPTIMAL
from combcert.search import FAMILIES, sample_comb

MODES = ("le", "eq")
DRIVERS = (True, False)  # lazy, direct
# Combs per pool: direct mode on K_{6,6} holds about 4,000 subtour rows,
# and an uncached phase 1 over them takes seconds.
POOL = {3: 6, 4: 6, 5: 3, 6: 1}


def _cached(instance, target, mode, lazy):
    """The outcome of `is_implied`: its message if it raised, else every
    field of its result."""
    try:
        result = is_implied(instance, target, mode=mode, lazy=lazy)
    except CombcertError as exc:
        return str(exc)
    return (
        result.status,
        result.optimum,
        result.witness,
        result.dual_rows,
        result.rounds,
        result.rows_used,
    )


def _reference(instance, target, mode, lazy):
    """The outcome of `is_implied`, from `solve` over rows built afresh."""
    rows = gen_degree(instance, mode)
    if not lazy:
        rows.extend(gen_secs(instance))
    solution = solve(instance, target.coeffs, rows, lazy)
    if solution.status != OPTIMAL:
        return f"relaxation LP ended {solution.status}"
    implied = solution.objective_value <= target.rhs
    dual_rows = tuple((row, y) for row, y in zip(solution.rows, solution.dual) if y)
    return (
        "implied" if implied else "violated",
        solution.objective_value,
        None if implied else solution.point,
        dual_rows if implied else None,
        solution.rounds,
        len(solution.rows),
    )


def _pool(instance, count, seed):
    rng = random.Random(seed)
    return [
        comb_inequality(instance, sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)]))
        for k in range(count)
    ]


def _state(tableau):
    """Everything a prepared tableau holds, as plain comparable values."""
    return (
        tableau.variables,
        dict(tableau.column),
        [(dict(row.coeffs), row.rhs, row.kind, row.provenance) for row in tableau.source],
        tableau.boxes,
        {i: dict(row) for i, row in tableau.rows.items()},
        [dict(tableau._row(i)) for i in range(len(tableau.rhs))],
        dict(tableau.partner),
        dict(tableau.pos),
        dict(tableau.mirror),
        list(tableau.rhs),
        list(tableau.basis),
        list(tableau.unit),
        set(tableau.artificial),
        dict(tableau.cbar),
        tableau.next_column,
        tableau.feasible,
    )


@pytest.mark.parametrize("n", sorted(POOL))
def test_prepared_outcomes_equal_uncached_solves(n):
    lp._prepared.cache_clear()
    instance = BipartiteInstance.complete(n)
    targets = _pool(instance, POOL[n], f"relaxation/{n}")
    for lazy in DRIVERS:
        for mode in MODES:
            for target in targets:
                got = _cached(instance, target, mode, lazy)
                assert got == _reference(instance, target, mode, lazy)


def test_equal_instances_share_one_prepared_relaxation():
    lp._prepared.cache_clear()
    first, second = BipartiteInstance.complete(4), BipartiteInstance.complete(4)
    assert first == second and first is not second
    targets = _pool(first, 8, "relaxation/shared")
    for lazy in DRIVERS:
        for mode in MODES:
            for k, target in enumerate(targets):
                instance = (first, second)[k % 2]
                outcome = _cached(instance, target, mode, lazy)
                assert outcome == _reference(instance, target, mode, lazy)
                witness = outcome[2]
                assert witness is None or witness.instance is instance
    info = lp._prepared.cache_info()
    assert (info.misses, info.currsize) == (4, 4)  # one entry per mode and driver


def test_table1_outcomes_equal_uncached_solves(table1):
    # In `eq` mode the Table 1 instance, which has no tour, is infeasible.
    instance, _, comb = table1
    target = comb_inequality(instance, comb)
    for lazy in DRIVERS:
        for mode in MODES:
            for _ in range(2):  # the second query runs on the prepared relaxation
                got = _cached(instance, target, mode, lazy)
                assert got == _reference(instance, target, mode, lazy)


@pytest.mark.parametrize("lazy", DRIVERS)
@pytest.mark.parametrize("mode", MODES)
def test_queries_leave_the_prepared_relaxation_unchanged(mode, lazy):
    instance = BipartiteInstance.complete(4)
    targets = _pool(instance, 20, "relaxation/snapshot")
    is_implied(instance, targets[0], mode=mode, lazy=lazy)
    prepared = lp._prepared(instance, mode, lazy)
    before = _state(prepared)
    for target in targets:
        is_implied(instance, target, mode=mode, lazy=lazy)
    assert lp._prepared(instance, mode, lazy) is prepared
    assert _state(prepared) == before


def test_queries_that_store_a_derived_row_leave_the_prepared_one_derived(monkeypatch):
    # 50 queries per instance, over (lazy, mode) relaxations.  Direct `eq`
    # on K_{8,8} is left out (its phase 1 over 65,000 rows takes a minute),
    # and direct `le` there gets two queries, as each takes about a second.
    plans = {
        5: {(True, "le"): 13, (True, "eq"): 13, (False, "le"): 12, (False, "eq"): 12},
        8: {(True, "le"): 24, (True, "eq"): 24, (False, "le"): 2},
    }
    pivot = lp._Tableau._pivot
    stored_mirrors = []

    def logged(self, r, *args):
        if r not in self.rows and r in self.mirror.values():
            stored_mirrors.append(r)  # the copy's mirror becomes a stored row
        pivot(self, r, *args)

    monkeypatch.setattr(lp._Tableau, "_pivot", logged)
    for n, plan in plans.items():
        instance = BipartiteInstance.complete(n)
        targets = iter(_pool(instance, 50, f"relaxation/derived/{n}"))
        for (lazy, mode), count in plan.items():
            prepared = lp._prepared(instance, mode, lazy)
            before = _state(prepared)
            mirrors = len(stored_mirrors)
            for _ in range(count):
                is_implied(instance, next(targets), mode=mode, lazy=lazy)
            assert lp._prepared(instance, mode, lazy) is prepared
            assert _state(prepared) == before
            if lazy:
                assert len(stored_mirrors) > mirrors, (n, mode)
        assert next(targets, None) is None


def test_cache_holds_at_most_its_bound():
    lp._prepared.cache_clear()
    assert lp._prepared.cache_info().maxsize == lp.RELAXATIONS_KEPT
    rng = random.Random(41)
    for n in (3, 4, 5):
        instance = BipartiteInstance.complete(n)
        target = comb_inequality(instance, sample_comb(rng, instance, "wild"))
        for lazy in DRIVERS:
            for mode in MODES:
                is_implied(instance, target, mode=mode, lazy=lazy)
                assert lp._prepared.cache_info().currsize <= lp.RELAXATIONS_KEPT
    assert lp._prepared.cache_info().currsize == lp.RELAXATIONS_KEPT


def test_infeasible_phase_one_is_reported_on_every_query():
    # On K_{2,3} the degree equalities ask the class-1 edges for a total
    # of 4 and the class-2 edges for 6: no point meets them.
    instance = BipartiteInstance.complete(2, 3)
    target = upper_bound(instance, instance.sorted_edges[0])
    for lazy in DRIVERS:
        for _ in range(2):
            with pytest.raises(CombcertError, match="relaxation LP ended infeasible"):
                is_implied(instance, target, mode="eq", lazy=lazy)
        assert lp._prepared(instance, "eq", lazy).feasible is False


def test_a_bad_mode_is_refused_on_every_call(k33):
    target = upper_bound(k33, k33.sorted_edges[0])
    for mode in ("ge", ["le"], None, "le"):
        for _ in range(2):
            if mode == "le":
                assert is_implied(k33, target, mode=mode).optimum == Fraction(1)
            else:
                with pytest.raises(ValueError, match="mode must be"):
                    is_implied(k33, target, mode=mode)


def test_the_vertex_cap_is_checked_before_the_cache(k44, monkeypatch):
    target = upper_bound(k44, k44.sorted_edges[0])
    is_implied(k44, target, lazy=False)  # prepared under the default cap
    monkeypatch.setattr(constraints, "DEFAULT_ENUMERATION_CAP", 7)
    with pytest.raises(EnumerationCapError, match="subtour enumeration"):
        is_implied(k44, target, lazy=False)


def test_sorted_edges_is_the_edge_order_computed_once(k44):
    lp._prepared.cache_clear()
    assert k44.sorted_edges == tuple(sorted(k44.edges))
    assert k44.sorted_edges is k44.sorted_edges
    assert lp._prepared(k44, "le", True).variables is k44.sorted_edges
