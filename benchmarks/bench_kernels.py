#!/usr/bin/env python3
"""Microbenchmark what the end-to-end workloads of `perfbench/run.py` do not
measure.

Four workloads:
  * `check_point`, the feasibility check behind `verify-point`, which
    lists violated subtour sets by branching on min cuts: on the uniform
    point x_e = 2/n of K_{8,8} and K_{12,12}, which must be feasible, and
    on four disjoint weight-1 4-cycles covering K_{8,8}, which must
    violate exactly the 14 subtour rows of their unions;
  * Hamiltonian tour enumeration on complete balanced instances: the
    recursive search `_kernels.hamiltonian_cycles` from a K_{n,n} position
    table to its list of edge-index tuples, which must hold all
    n! (n-1)! / 2 tours, and the peak RSS of the process after it;
  * warm lazy `solve` on K_{30,30}, past the vertex cap of `is_implied`:
    8 seeded wild combs over one prepared `lp._Tableau` of the degree
    rows, every one optimal, the share of that time spent in the
    duality audit, the simplex pivots per query, the simplex time per
    pivot, the row eliminations per pivot and the rows a query copies;
  * `facet_test` on K_{6,6} (43,200 tours) over 6 seeded combs, first
    and then per query, the same reports on a second pass, and the size
    of the kept tour set and the peak RSS with it kept.

Usage: python benchmarks/bench_kernels.py [--seed S] [--tour-n N]
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import sys
import time
from fractions import Fraction

from combcert import (
    BipartiteInstance,
    Edge,
    FractionalPoint,
    _kernels,
    check_point,
    comb_inequality,
    facet_test,
    gen_degree,
    lp,
    solve,
    tours,
)
from combcert.search import FAMILIES, sample_comb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import expected_tour_count  # noqa: E402


def time_call(fn, *args, repeat=3):
    best = None
    for _ in range(repeat):
        result = None  # free the last result, so it does not add to peak RSS
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best, result


def four_cycles_point(n: int) -> FractionalPoint:
    """Weight 1 on n/2 disjoint 4-cycles covering K_{n,n}, n even."""
    instance = BipartiteInstance.complete(n)
    ones = [v for v in instance.vertices() if v.cls == 1]
    twos = [v for v in instance.vertices() if v.cls == 2]
    return FractionalPoint(
        instance,
        {
            Edge(a, b): 1
            for i in range(0, n, 2)
            for a in ones[i : i + 2]
            for b in twos[i : i + 2]
        },
    )


def bench_verify_point():
    cases = []
    for n in (8, 12):
        instance = BipartiteInstance.complete(n)
        point = FractionalPoint(instance, {e: Fraction(2, n) for e in instance.edges})
        cases.append((f"uniform 2/{n}", point, 0))
    cases.append(("four 4-cycles", four_cycles_point(8), 14))
    for name, point, violated in cases:
        instance = point.instance
        seconds, report = time_call(check_point, instance, point)
        assert report.feasible == (violated == 0)
        assert len(report.violations) == violated
        line = f"verify-point n={instance.num_vertices:2d} ({name}, {violated} violated)"
        print(f"{line}  {seconds * 1e3:9.1f} ms")


def bench_tours(n: int):
    position = [[a * n + b for b in range(n)] for a in range(n)]
    seconds, tours = time_call(_kernels.hamiltonian_cycles, n, position)
    assert len(tours) == expected_tour_count(n)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"tour search  n={n:2d} ({len(tours)} tours)"
    print(f"{line}  {seconds * 1e3:9.1f} ms   peak RSS so far {peak:6.0f} MiB")


def _timed(owner, name: str, totals: dict) -> None:
    """Replace `owner.name` by a wrapper that adds its seconds to totals[name]."""
    method = getattr(owner, name)

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return method(*args)
        finally:
            totals[name] += time.perf_counter() - t0

    setattr(owner, name, timed)


def bench_lazy_past_the_cap(seed: int, n: int = 30, combs: int = 8, repeat: int = 3):
    """Warm lazy `solve` per query on K_{n,n}, its duality audit's share,
    and its simplex pivots.

    `is_implied` refuses an instance over `DEFAULT_ENUMERATION_CAP`
    vertices, so the queries go through `solve` over a tableau of the
    degree rows prepared once, as `is_implied` prepares its own.  The best
    of `repeat` passes over the same queries is reported.  The time per
    pivot is the time spent in the primal and dual simplex loops
    (`_primal`, `_dual`: entering choice, ratio test and pivots) over the
    pivots per query, which a separate untimed pass counts, with the row
    eliminations per pivot (the stored rows a pivot subtracts from; `cbar`
    is not counted) and the rows each query's copy of the prepared
    tableau duplicates (its stored rows, of all its rows).
    """
    instance = BipartiteInstance.complete(n)
    rng = random.Random(seed)
    targets = [comb_inequality(instance, sample_comb(rng, instance, "wild")) for _ in range(combs)]
    t0 = time.perf_counter()
    prepared = lp._Tableau(instance, gen_degree(instance))
    t_prepare = time.perf_counter() - t0

    def queries():
        return [solve(instance, t.coeffs, prepared, lazy=True) for t in targets]

    counts = {"pivots": 0, "eliminations": 0, "copied": 0}
    pivot, copy, subtract = lp._Tableau._pivot, lp._Tableau.copy, lp._subtract
    pivoting = []  # the `cbar` of the tableau in `_pivot`, if any

    def counted_pivot(self, *args):
        counts["pivots"] += 1
        pivoting.append(self.cbar)
        try:
            pivot(self, *args)
        finally:
            pivoting.pop()

    def counted_subtract(target, *args):
        if pivoting and target is not pivoting[-1]:
            counts["eliminations"] += 1
        subtract(target, *args)

    def counted_copy(self):
        counts["copied"] += len(self.rows)
        return copy(self)

    lp._Tableau._pivot, lp._Tableau.copy = counted_pivot, counted_copy
    lp._subtract = counted_subtract
    try:
        queries()
    finally:
        lp._Tableau._pivot, lp._Tableau.copy, lp._subtract = pivot, copy, subtract

    originals = lp._audit_duality, lp._Tableau._primal, lp._Tableau._dual
    best = None
    for _ in range(repeat):
        totals = {"_audit_duality": 0.0, "_primal": 0.0, "_dual": 0.0}
        _timed(lp, "_audit_duality", totals)
        _timed(lp._Tableau, "_primal", totals)
        _timed(lp._Tableau, "_dual", totals)
        try:
            t0 = time.perf_counter()
            solutions = queries()
            seconds = time.perf_counter() - t0
        finally:
            lp._audit_duality, lp._Tableau._primal, lp._Tableau._dual = originals
        if best is None or seconds < best[0]:
            best = seconds, totals
    assert all(solution.status == lp.OPTIMAL for solution in solutions)
    rounds = sum(solution.rounds for solution in solutions)
    seconds, totals = best
    simplex = totals["_primal"] + totals["_dual"]
    pivots = counts["pivots"]
    line = f"lazy LP      n={instance.num_vertices:2d} ({combs} combs, {rounds} rounds)"
    print(
        f"{line}  prepare {t_prepare * 1e3:6.1f} ms, then {seconds / combs * 1e3:6.2f} ms/query"
        f"   of which the audit {totals['_audit_duality'] / combs * 1e3:5.2f} ms/query"
        f"   {pivots / combs:5.1f} pivots/query at {simplex / pivots * 1e6:6.1f} us/pivot"
        f"   {counts['eliminations'] / pivots:5.1f} row eliminations/pivot"
        f"   copies {counts['copied'] / combs:.0f} of {len(prepared.rhs)} rows/query"
    )


def bench_facet_kept(seed: int, n: int = 6, combs: int = 6):
    """`facet_test` on K_{n,n} over seeded combs of every family: the first
    query, which enumerates the tours and ranks the polytope, and per query
    the others, which read the kept tour set and dimension; then the size
    of the kept set and the peak RSS with it kept.  A second pass must
    give the same reports."""
    instance = BipartiteInstance.complete(n)
    rng = random.Random(seed)
    rows = [
        comb_inequality(instance, sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)]))
        for k in range(combs)
    ]
    tours._tour_set.cache_clear()
    t0 = time.perf_counter()
    reports = [facet_test(instance, rows[0])]
    t1 = time.perf_counter()
    reports += [facet_test(instance, row) for row in rows[1:]]
    first, warm = t1 - t0, (time.perf_counter() - t1) / (combs - 1)
    assert [facet_test(instance, row) for row in rows] == reports
    kept = tours._tour_set(instance).tours
    assert len(kept) == expected_tour_count(n)
    kept_bytes = sys.getsizeof(kept) + sum(map(sys.getsizeof, kept))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"facet test   n={instance.num_vertices:2d} ({len(kept)} tours, {combs} combs)"
    print(
        f"{line}  first {first * 1e3:6.1f} ms, then {warm * 1e3:6.1f} ms/query"
        f"   kept set {kept_bytes / 2**20:4.1f} MiB, peak RSS so far {peak:4.0f} MiB"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tour-n", type=int, default=6)
    args = parser.parse_args()
    print(f"seed: {args.seed}")
    bench_verify_point()
    for n in (5, args.tour_n):
        bench_tours(n)
    bench_lazy_past_the_cap(args.seed)
    bench_facet_kept(args.seed)


if __name__ == "__main__":
    main()
