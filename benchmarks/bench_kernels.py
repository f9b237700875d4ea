#!/usr/bin/env python3
"""Microbenchmark the kernels and the layers built on them.

Seven workloads:
  * `check_point`, the feasibility check behind `verify-point`, which
    lists violated subtour sets by branching on min cuts: on the uniform
    point x_e = 2/n of K_{8,8} and K_{12,12}, which must be feasible, and
    on four disjoint weight-1 4-cycles covering K_{8,8}, which must
    violate exactly the 14 subtour rows of their unions;
  * Hamiltonian tour enumeration on complete balanced instances: the
    single-frame `_kernels.hamiltonian_cycles` from a K_{n,n} position
    table to its list of edge-index tuples, which must hold all
    n! (n-1)! / 2 tours, and the peak RSS of the process after it;
  * lazy subtour separation: the min cut that `is_implied` uses against
    the largest violation among the rows `check_point` lists, on the LP
    points its lazy loop visits for seeded wild combs on K_{8,8}.  Both
    must find the same most violated amount;
  * the lazy LP itself on those same 20 queries: the time of the first
    lazy query, which prepares the relaxation's rows and starting tableau,
    and of the other 19, which reuse them, against a cold `solve` over
    each query's final rows, which must reach the same optimum;
  * warm lazy `solve` on K_{30,30}, past the vertex cap of `is_implied`:
    8 seeded wild combs over one prepared `lp._Relaxation` of the degree
    rows, every one optimal, and the share of that time spent in the
    duality audit;
  * `facet_test` on K_{5,5} (1,440 tours) over 24 seeded combs of every
    family: the time per query, and for the first 4 combs the same report
    as the oracle path of the tests (`Tour.as_point`, `value_on` and a
    `Fraction` rank over all tours);
  * `certificates.verify` on K_{10,10} over 40 seeded combs of the five
    certified families, each with the certificate of its family's class:
    the time per call, every report dominating.

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
    ConstraintKind,
    Edge,
    FractionalPoint,
    _kernels,
    check_point,
    comb_inequality,
    enumerate_tours,
    expected_tour_count,
    facet_test,
    gen_degree,
    is_implied,
    lp,
    solve,
)
from combcert.certificates import BUILDERS, verify
from combcert.search import FAMILIES, sample_comb

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import facet_report_oracle, tour_affine_rank  # noqa: E402


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


def lazy_runs(n: int, combs: int, seed: int):
    """Lazy `is_implied` on seeded wild combs over K_{n,n}.

    Per comb: the target row, the result, the seconds the query took, and
    the (LP point, separated row or None) of each round.
    """
    instance = BipartiteInstance.complete(n)
    rng = random.Random(seed)
    runs, separated = [], []
    separate = lp._most_violated_sec

    def record(inst, point):
        row = separate(inst, point)
        separated.append((point, row))
        return row

    lp._most_violated_sec = record
    lp._prepared.cache_clear()  # the first query prepares the relaxation
    try:
        for _ in range(combs):
            target = comb_inequality(instance, sample_comb(rng, instance, "wild"))
            start = len(separated)
            t0 = time.perf_counter()
            result = is_implied(instance, target)
            seconds = time.perf_counter() - t0
            runs.append((target, result, seconds, separated[start:]))
    finally:
        lp._most_violated_sec = separate
    return instance, runs


def largest_listed_violation(instance, point):
    """The largest subtour violation among the rows `check_point` lists, or None."""
    report = check_point(instance, point)
    amounts = (
        value - row.rhs
        for row, value in report.violations
        if row.kind is ConstraintKind.SUBTOUR_ELIM
    )
    return max(amounts, default=None)


def bench_separation(instance, runs):
    points = [point for *_, rounds in runs for point, _ in rounds]
    t_list = t_cut = 0.0
    for point in points:
        t0 = time.perf_counter()
        listed = largest_listed_violation(instance, point)
        t1 = time.perf_counter()
        cut = lp._most_violated_sec(instance, point)
        t_cut += time.perf_counter() - t1
        t_list += t1 - t0
        assert (listed is None) == (cut is None)
        if listed is not None:
            assert listed == cut.value_on(point) - cut.rhs
    calls = len(points)
    line = f"separation   n={instance.num_vertices:2d} ({calls} LP points, {len(runs)} combs)"
    print(
        f"{line}  check_point {t_list / calls * 1e3:7.2f} ms/call"
        f"   min cut {t_cut / calls * 1e3:7.2f} ms/call"
    )


def bench_lp(instance, runs):
    """Lazy queries against a cold `solve` over each query's final rows.

    The first query prepares the relaxation that the others reuse, so it
    is timed apart from them.
    """
    t_cold = 0.0
    total_rounds = 0
    for target, result, seconds, rounds in runs:
        cuts = [row for _, row in rounds if row is not None]
        rows = gen_degree(instance) + cuts
        t0 = time.perf_counter()
        cold = solve(instance, target.coeffs, rows)
        t_cold += time.perf_counter() - t0
        total_rounds += result.rounds
        assert cold.objective_value == result.optimum
    first, *rest = (seconds for _, _, seconds, _ in runs)
    line = f"lazy LP      n={instance.num_vertices:2d} ({len(runs)} combs, {total_rounds} rounds)"
    print(
        f"{line}  first {first * 1e3:6.2f} ms, then {sum(rest) / len(rest) * 1e3:6.2f} ms/query"
        f"   cold solve of the final rows {t_cold / len(runs) * 1e3:7.2f} ms/query"
    )


def bench_lazy_past_the_cap(seed: int, n: int = 30, combs: int = 8, repeat: int = 3):
    """Warm lazy `solve` per query on K_{n,n}, and its duality audit's share.

    `is_implied` refuses an instance over `DEFAULT_ENUMERATION_CAP`
    vertices, so the queries go through `solve` over a relaxation of the
    degree rows prepared once, as `is_implied` prepares its own.  The best
    of `repeat` passes over the same queries is reported.
    """
    instance = BipartiteInstance.complete(n)
    rng = random.Random(seed)
    targets = [comb_inequality(instance, sample_comb(rng, instance, "wild")) for _ in range(combs)]
    t0 = time.perf_counter()
    relaxation = lp._Relaxation(instance, gen_degree(instance))
    t_prepare = time.perf_counter() - t0
    audit = lp._audit_duality
    audit_seconds = 0.0

    def timed_audit(*args):
        nonlocal audit_seconds
        t0 = time.perf_counter()
        audit(*args)
        audit_seconds += time.perf_counter() - t0

    best = None
    lp._audit_duality = timed_audit
    try:
        for _ in range(repeat):
            audit_seconds = 0.0
            t0 = time.perf_counter()
            solutions = [solve(instance, t.coeffs, relaxation, lazy=True) for t in targets]
            seconds = time.perf_counter() - t0
            if best is None or seconds < best[0]:
                best = seconds, audit_seconds
    finally:
        lp._audit_duality = audit
    assert all(solution.status == lp.OPTIMAL for solution in solutions)
    rounds = sum(solution.rounds for solution in solutions)
    seconds, audit_seconds = best
    line = f"lazy LP      n={instance.num_vertices:2d} ({combs} combs, {rounds} rounds)"
    print(
        f"{line}  prepare {t_prepare * 1e3:6.1f} ms, then {seconds / combs * 1e3:6.2f} ms/query"
        f"   of which the audit {audit_seconds / combs * 1e3:5.2f} ms/query"
    )


def bench_facet(seed: int, combs: int = 24, checked: int = 4):
    """`facet_test` per query on K_{5,5}; the first `checked` reports must
    equal the oracle's."""
    instance = BipartiteInstance.complete(5)
    rng = random.Random(seed)
    rows = [
        comb_inequality(instance, sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)]))
        for k in range(combs)
    ]
    t0 = time.perf_counter()
    reports = [facet_test(instance, row) for row in rows]
    seconds = time.perf_counter() - t0
    tours = list(enumerate_tours(instance))
    t0 = time.perf_counter()
    dim = tour_affine_rank(instance, tours)
    for row, report in zip(rows[:checked], reports):
        assert report.as_dict() == facet_report_oracle(instance, row, tours, dim)
    t_oracle = time.perf_counter() - t0
    line = f"facet test   n={instance.num_vertices:2d} ({len(tours)} tours, {combs} combs)"
    print(
        f"{line}  {seconds / combs * 1e3:9.2f} ms/query"
        f"   oracle path {t_oracle:6.2f} s for the first {checked}, its full rank included"
    )


def bench_verify(seed: int, combs: int = 40, repeat: int = 5):
    """`verify` per call on K_{10,10}, on certificates of every class."""
    instance = BipartiteInstance.complete(10)
    rng = random.Random(seed)
    names = list(BUILDERS)
    certs = []
    for k in range(combs):
        name = names[k % len(names)]
        certs.append(BUILDERS[name](instance, sample_comb(rng, instance, name.lower())))
    seconds, reports = time_call(lambda: [verify(instance, cert) for cert in certs], repeat=repeat)
    assert all(report.dominates for report in reports)
    members = sum(len(cert.members) for cert in certs)
    line = f"certificate verify n={instance.num_vertices:2d} ({combs} combs, {members} members)"
    print(f"{line}  {seconds / combs * 1e3:9.3f} ms/call")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tour-n", type=int, default=6)
    args = parser.parse_args()
    print(f"seed: {args.seed}")
    bench_verify_point()
    for n in (5, args.tour_n):
        bench_tours(n)
    instance, runs = lazy_runs(8, 20, args.seed)
    bench_separation(instance, runs)
    bench_lp(instance, runs)
    bench_lazy_past_the_cap(args.seed)
    bench_facet(args.seed)
    bench_verify(args.seed)


if __name__ == "__main__":
    main()
