"""The tableau against the expanded tableau and the full-scan pivot it replaced.

`lp._Tableau` derives the box rows that the identity x_e + s_e = 1 fixes
and pivots on the rows that `_column` gathers for the entering column.
`tests/oracles.py` keeps `ExpandedTableau`, the tableau that stored every
box row, and the full-scan `_primal` and `_pivot` bodies that look the
column up in every row twice.  All three are run here on the same LPs:
the expanded tableau with the full-scan bodies patched on, the expanded
tableau as it is, and `lp._Tableau` (for the expanded ones, `lp._Tableau`
is patched to `ExpandedTableau`, so `solve` copies and builds those).
They must take the same Bland path: the same pivot sequence in phase 1,
phase 2 and every dual-simplex round, the same rows, rhs, basis and
reduced costs, entry types included, after phase 1, every phase 2 and
every appended cut, and the same `LpSolution`.  `lp._Tableau`'s rows are
read through `_row`, which rebuilds a derived row; since a derived row's
dict is built in another key order, its rows and `cbar` are compared as
sorted items, while the two expanded runs are compared key order and all.
After every pivot of every run, phase 1's included, each box pair is
checked against the identity and `lp._Tableau`'s derived-row bookkeeping
against its basis (`check_box_pairs`).
"""

import random

import pytest

from combcert import BipartiteInstance, comb_inequality, gen_degree, gen_secs, lp, solve
from combcert.search import FAMILIES, sample_comb
from combcert.tables import load_table
from oracles import (
    ExpandedTableau,
    check_box_pairs,
    expanded_rows,
    full_scan_pivot,
    full_scan_primal,
)

COMBS_PER_FAMILY = 3


def _typed(items):
    return [(k, type(v), v) for k, v in items]


def _state(tableau):
    if isinstance(tableau, ExpandedTableau):
        return (
            [_typed(row.items()) for row in tableau.rows],
            _typed(enumerate(tableau.rhs)),
            list(tableau.basis),
            _typed(tableau.cbar.items()),
        )
    return (
        [_typed(sorted(row.items())) for row in expanded_rows(tableau)],
        _typed(enumerate(tableau.rhs)),
        list(tableau.basis),
        _typed(sorted(tableau.cbar.items())),
    )


def _sorted_state(state):
    rows, rhs, basis, cbar = state
    return [sorted(row) for row in rows], rhs, basis, sorted(cbar)


def _recorded(patch, cls, full_scan: bool) -> list:
    """Patch `cls` to log each phase, each pivot (leaving row, entering
    column) and the state after each phase 2 and each appended cut, and to
    check every box pair after every pivot; with `full_scan`, `_primal` and
    `_pivot` are the replaced bodies."""
    log = []
    pivot = full_scan_pivot if full_scan else cls._pivot
    phases = {
        "_primal": full_scan_primal if full_scan else cls._primal,
        "_dual": cls._dual,
        "_expel_artificials": cls._expel_artificials,
    }

    def logged_pivot(self, r, j, *column):
        log.append(("pivot", r, j))
        pivot(self, r, j, *column)
        check_box_pairs(self)

    patch.setattr(cls, "_pivot", logged_pivot)
    for name, method in phases.items():

        def logged(self, name=name, method=method):
            log.append(name)
            return method(self)

        patch.setattr(cls, name, logged)
    for name in ("run", "add_row"):
        method = getattr(cls, name)

        def stated(self, arg, name=name, method=method):
            log.append(name)
            status = method(self, arg)
            log.append((status, _state(self)))
            return status

        patch.setattr(cls, name, stated)
    return log


def _solutions(patch, tableau_class, full_scan, instance, rows, targets, lazy):
    with patch.context() as m:
        m.setattr(lp, "_Tableau", tableau_class)
        log = _recorded(m, tableau_class, full_scan)
        tableau = tableau_class(instance, rows)
        log.append(("phase 1", tableau.feasible, _state(tableau)))
        solutions = [solve(instance, t.coeffs, tableau, lazy) for t in targets]
    return log, solutions


def _typed_solution(solution):
    point = solution.point
    return (
        solution,
        type(solution.objective_value),
        None if solution.dual is None else [type(y) for y in solution.dual],
        None if point is None else _typed(point.items()),
    )


def _unordered(log):
    """The log with every state's rows and cbar as sorted items."""
    return [
        (event[0], *event[1:-1], _sorted_state(event[-1]))
        if isinstance(event, tuple) and event[0] != "pivot"
        else event
        for event in log
    ]


def _three_runs(patch, instance, rows, targets, lazy):
    """The expanded tableau with the full-scan bodies, then as it is, then
    `lp._Tableau`; asserts that all three agree and returns the log."""
    old_log, old = _solutions(patch, ExpandedTableau, True, instance, rows, targets, lazy)
    ref_log, ref = _solutions(patch, ExpandedTableau, False, instance, rows, targets, lazy)
    new_log, new = _solutions(patch, lp._Tableau, False, instance, rows, targets, lazy)
    assert ref_log == old_log
    assert list(map(_typed_solution, ref)) == list(map(_typed_solution, old))
    assert new_log == _unordered(ref_log)
    assert list(map(_typed_solution, new)) == list(map(_typed_solution, ref))
    return new_log


def _targets(instance, per_family, seed):
    targets = []
    for family in FAMILIES:
        rng = random.Random(f"{seed}/{family}")
        targets += [
            comb_inequality(instance, sample_comb(rng, instance, family))
            for _ in range(per_family)
        ]
    return targets


def _cases():
    for n in (3, 4, 5):
        instance = BipartiteInstance.complete(n)
        yield f"K{n}", instance, _targets(instance, COMBS_PER_FAMILY, n)
    for table in (1, 2):
        instance, _, comb = load_table(table)
        yield f"table{table}", instance, [comb_inequality(instance, comb)]


CASES = list(_cases())


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "direct"])
@pytest.mark.parametrize("mode", ["le", "eq"])
@pytest.mark.parametrize("name, instance, targets", CASES, ids=[c[0] for c in CASES])
def test_gathered_pivot_takes_the_full_scan_path(monkeypatch, name, instance, targets, mode, lazy):
    rows = gen_degree(instance, mode)
    if not lazy:
        rows.extend(gen_secs(instance))
    new_log = _three_runs(monkeypatch, instance, rows, targets, lazy)
    assert any(event[0] == "pivot" for event in new_log if isinstance(event, tuple))
    if mode == "eq":  # phase 1 runs only when some row starts with an artificial
        assert new_log.index("_primal") < new_log.index("run")
    if lazy and mode == "le" and name in ("K4", "K5"):  # none of K3's combs needs a cut
        assert "_dual" in new_log


@pytest.mark.parametrize(
    "n, mode, per_family",
    [(6, "le", 2), (6, "eq", 2), (8, "le", 1), (8, "eq", 1), (30, "le", 1)],
    ids=["K6-le", "K6-eq", "K8-le", "K8-eq", "K30-le"],
)
def test_lazy_pivots_take_the_full_scan_path(monkeypatch, n, mode, per_family):
    instance = BipartiteInstance.complete(n)
    targets = _targets(instance, per_family, n)
    new_log = _three_runs(monkeypatch, instance, gen_degree(instance, mode), targets, True)
    assert "_dual" in new_log
