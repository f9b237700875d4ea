"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Every numeric comparison is exact rational arithmetic; there are
no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    ConstraintKind,
    LinearInequality,
    check_point,
    classify,
    comb_inequality,
    comb_value,
    facet_test,
    is_implied,
    load_table,
    solve,
    verify,
)
from combcert import tours
from combcert.certificates import BUILDERS, aggregation_members
from combcert.combs import comb_rhs
from combcert.lp import INFEASIBLE, OPTIMAL
from combcert.search import sample_comb
from combcert.tours import FacetVerdict
from oracles import expected_tour_count, tour_point, vertex_enumeration_max

FAMILY_SIZES = {"l1": (3, 4, 5, 6), "l2": (4, 5, 6), "l3": (3, 4, 5, 6),
                "t1": (4, 5, 6), "t2": (4, 5, 6)}


def _report(number, name, ok):
    print(f"\n[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    instance, point, comb = load_table(1)
    feasible = check_point(instance, point).feasible
    row = comb_inequality(instance, comb)
    lhs = comb_value(point, comb)
    elapsed = time.perf_counter() - start
    ok = (
        feasible
        and lhs == Fraction(15, 2)
        and row.rhs == 7
        and lhs - row.rhs == Fraction(1, 2)
        and elapsed < 1.0
    )
    _report(1, f"table 1 reproduction ({elapsed:.3f}s)", ok)


def test_criterion_2_table2_reproduction():
    start = time.perf_counter()
    instance, point, comb = load_table(2, "corrected")
    feasible = check_point(instance, point).feasible
    row = comb_inequality(instance, comb)
    lhs = comb_value(point, comb)

    instance_p, point_p, comb_p = load_table(2, "printed")
    printed_lhs = comb_value(point_p, comb_p)
    elapsed = time.perf_counter() - start
    ok = (
        feasible
        and lhs == Fraction(17, 2)
        and row.rhs == 8
        and printed_lhs == Fraction(15, 2)  # documented non-reproduction
        and printed_lhs <= row.rhs
        and elapsed < 1.0
    )
    _report(2, f"table 2 reproduction ({elapsed:.3f}s)", ok)


def _family_stream(rng, family, count):
    sizes = FAMILY_SIZES[family]
    instances = {n: BipartiteInstance.complete(n) for n in sizes}
    for k in range(count):
        instance = instances[sizes[k % len(sizes)]]
        yield instance, sample_comb(rng, instance, family)


def test_criterion_3_certificate_completeness():
    rng = random.Random(20260809)
    start = time.perf_counter()
    total = failures = 0
    per_class = 500
    for family in ("l1", "l2", "l3", "t1", "t2"):
        builder = BUILDERS[family.upper()]
        for instance, comb in _family_stream(rng, family, per_class):
            cert = builder(instance, comb)
            report = verify(instance, cert)
            total += 1
            if not report.dominates:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = total == 5 * per_class and failures == 0 and elapsed < 120.0
    _report(
        3,
        f"certificate completeness {total - failures}/{total} ({elapsed:.1f}s)",
        ok,
    )


def _audit_implication_certificate(instance, target, result) -> bool:
    """Re-check the dual certificate with no reference to the solver."""
    if not result.dual_rows:
        return False
    covered = {e: Fraction(0) for e in target.coeffs}
    total = Fraction(0)
    for row, y in result.dual_rows:
        if y < 0 and not row.is_equality:
            return False
        total += y * row.rhs
        for e, c in row.coeffs.items():
            covered[e] = covered.get(e, Fraction(0)) + y * c
    if any(covered.get(e, 0) < c for e, c in target.coeffs.items()):
        return False
    if any(v < 0 for e, v in covered.items() if e not in target.coeffs):
        return False
    return total == result.optimum and total <= target.rhs


def test_criterion_4_oracle_agreement():
    rng = random.Random(40404)
    start = time.perf_counter()
    checked = bad = 0
    for family in ("l1", "l2", "l3", "t1", "t2"):
        for _ in range(40):
            n = rng.choice((3, 4)) if family in ("l1", "l3") else 4
            instance = BipartiteInstance.complete(n)
            comb = sample_comb(rng, instance, family)
            cert = BUILDERS[family.upper()](instance, comb)
            if not verify(instance, cert).dominates:
                bad += 1
                continue
            target = comb_inequality(instance, comb)
            result = is_implied(instance, target)
            checked += 1
            if not (
                result.implied
                and _audit_implication_certificate(instance, target, result)
            ):
                bad += 1

    margins = []
    for table, variant in ((1, "corrected"), (2, "corrected")):
        instance, _, comb = load_table(table, variant)
        target = comb_inequality(instance, comb)
        result = is_implied(instance, target)
        margins.append(
            result.status == "violated"
            and result.optimum - target.rhs == Fraction(1, 2)
            and result.witness is not None
        )
    elapsed = time.perf_counter() - start
    ok = checked >= 200 and bad == 0 and all(margins)
    _report(
        4,
        f"oracle agreement on {checked} certified combs + both tables "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_parity_invariants():
    rng = random.Random(55555)
    start = time.perf_counter()
    total = bad = 0
    for family, builder_name in (("l2", "L2"), ("t2", "T2")):
        for n in (4, 5, 6):
            instance = BipartiteInstance.complete(n)
            for _ in range(50):
                comb = sample_comb(rng, instance, family)
                one_class = "T2" in classify(instance, comb).builder_names()
                pats = comb.patterns
                slack = [
                    comb_rhs(comb) - aggregation_members(instance, comb, pat)[1]
                    for pat in pats
                ]
                cert = BUILDERS[builder_name](instance, comb)
                report = verify(instance, cert)
                total += 1
                slacks_integral = all(s.denominator == 1 for s in slack)
                # Doubled as in the orientation-switch argument both
                # comparison sides are even, so these gaps are even integers.
                margins_even = all(2 * s % 2 == 0 for s in slack)
                expected = sum(pats[0].s) + pats[0].trailing_r_sum() - 1
                identity = sum(slack) == expected >= -1
                if not (
                    report.dominates
                    and one_class
                    and max(slack) >= 0
                    and slacks_integral
                    and margins_even
                    and identity
                ):
                    bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and total == 300
    _report(5, f"parity invariants on {total} combs ({elapsed:.1f}s)", ok)


def test_criterion_6_tour_validity():
    start = time.perf_counter()
    expected = {2: 1, 3: 6, 4: 72, 5: 1440}
    ok = True
    for n, want in expected.items():
        instance = BipartiteInstance.complete(n)
        count = 0
        for tour in tours._tour_set(instance).tours:
            count += 1
            report = check_point(instance, tour_point(instance, tour), mode="eq")
            if not report.feasible:
                ok = False
        if count != want or count != expected_tour_count(n):
            ok = False
    elapsed = time.perf_counter() - start
    _report(6, f"tour validity and counts n=2..5 ({elapsed:.1f}s)", ok)


def test_criterion_7_certified_combs_not_facet_defining():
    rng = random.Random(70707)
    start = time.perf_counter()
    instance = BipartiteInstance.complete(4)
    dim = tours._tour_set(instance).dim
    total = bad = 0
    for k in range(150):
        family = ("l1", "l2", "l3", "t1", "t2")[k % 5]
        comb = sample_comb(rng, instance, family)
        cert = BUILDERS[family.upper()](instance, comb)
        if not verify(instance, cert).dominates:
            bad += 1
            continue
        report = facet_test(instance, comb_inequality(instance, comb))
        total += 1
        if report.verdict is FacetVerdict.FACET:
            bad += 1
        if not (report.tight_tour_count == 0 or report.tight_face_dim < dim - 1):
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and total == 150
    _report(
        7,
        f"no certified comb is facet defining on K44 ({total} combs, "
        f"{elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_simplex_against_vertex_enumeration():
    rng = random.Random(80808)
    start = time.perf_counter()
    solved = bad = 0
    while solved < 50:
        n = rng.randint(1, 6)
        m = rng.randint(1, 10)
        from math import comb as binom

        if binom(m + 2 * n, n) > 20000:
            continue
        instance = BipartiteInstance.complete(1, n)
        variables = tuple(sorted(instance.edges))
        triples = []
        rows = []
        for i in range(m):
            vec = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            rhs = Fraction(rng.randint(-2, 4), rng.choice((1, 2)))
            is_eq = rng.random() < 0.1
            triples.append((vec, rhs, is_eq))
            kind = (
                ConstraintKind.DEGREE_EQ2 if is_eq else ConstraintKind.AGGREGATE
            )
            rows.append(
                LinearInequality(
                    {variables[j]: vec[j] for j in range(n) if vec[j]},
                    rhs,
                    kind,
                    f"r{i}",
                )
            )
        objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        solution = solve(
            instance, {variables[j]: objective[j] for j in range(n) if objective[j]}, rows
        )
        expected = vertex_enumeration_max(n, triples, objective)
        solved += 1
        if expected is None:
            if solution.status != INFEASIBLE:
                bad += 1
        elif solution.status != OPTIMAL or solution.objective_value != expected:
            bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and solved == 50
    _report(8, f"simplex vs vertex enumeration on 50 LPs ({elapsed:.1f}s)", ok)
