"""The gathered-column pivot against the full-scan pivot it replaced.

`lp._Tableau` pivots on the rows that `_column` gathers for the entering
column, and `_primal` runs its ratio test over that list.  The bodies it
replaced, which look the column up in every row twice, are kept in
`tests/oracles.py`.  Both are run here on the same LPs, with the methods
patched onto `lp._Tableau` (every copy `solve` makes is a plain
`_Tableau`), and must take the same Bland path: the same pivot sequence
in phase 1, phase 2 and every dual-simplex round, the same rows, rhs,
basis and reduced costs, entry types included, after every phase 2 and
every appended cut, and the same `LpSolution`.
"""

import random

import pytest

from combcert import BipartiteInstance, comb_inequality, gen_degree, gen_secs, lp, solve
from combcert.search import FAMILIES, sample_comb
from combcert.tables import load_table
from oracles import full_scan_pivot, full_scan_primal

COMBS_PER_FAMILY = 3


def _typed(items):
    return [(k, type(v), v) for k, v in items]


def _state(tableau):
    return (
        [_typed(row.items()) for row in tableau.rows],
        _typed(enumerate(tableau.rhs)),
        list(tableau.basis),
        _typed(tableau.cbar.items()),
    )


def _recorded(patch, full_scan: bool) -> list:
    """Patch `lp._Tableau` to log each phase, each pivot (leaving row,
    entering column) and the state after each phase 2 and each appended
    cut; with `full_scan`, `_primal` and `_pivot` are the replaced bodies."""
    log = []
    cls = lp._Tableau
    pivot = full_scan_pivot if full_scan else cls._pivot
    phases = {
        "_primal": full_scan_primal if full_scan else cls._primal,
        "_dual": cls._dual,
        "_expel_artificials": cls._expel_artificials,
    }

    def logged_pivot(self, r, j, *column):
        log.append(("pivot", r, j))
        pivot(self, r, j, *column)

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


def _solutions(patch, full_scan, instance, rows, targets, lazy):
    with patch.context() as m:
        log = _recorded(m, full_scan)
        tableau = lp._Tableau(instance, rows)
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


def _cases():
    for n in (3, 4, 5):
        instance = BipartiteInstance.complete(n)
        targets = []
        for family in FAMILIES:
            rng = random.Random(f"{n}/{family}")
            targets += [
                comb_inequality(instance, sample_comb(rng, instance, family))
                for _ in range(COMBS_PER_FAMILY)
            ]
        yield f"K{n}", instance, targets
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
    old_log, old = _solutions(monkeypatch, True, instance, rows, targets, lazy)
    new_log, new = _solutions(monkeypatch, False, instance, rows, targets, lazy)
    assert new_log == old_log
    assert list(map(_typed_solution, new)) == list(map(_typed_solution, old))
    assert any(event[0] == "pivot" for event in new_log if isinstance(event, tuple))
    if mode == "eq":  # phase 1 runs only when some row starts with an artificial
        assert new_log.index("_primal") < new_log.index("run")
    if lazy and mode == "le" and name in ("K4", "K5"):  # none of K3's combs needs a cut
        assert "_dual" in new_log

