import random
from fractions import Fraction
from itertools import combinations

import pytest

from combcert import (
    BipartiteInstance,
    ConstraintKind,
    Edge,
    EnumerationCapError,
    FractionalPoint,
    LinearInequality,
    check_point,
    comb_inequality,
    degree_constraint,
    gen_degree,
    gen_secs,
    is_implied,
    sec_constraint,
)
from combcert import constraints, tours
from combcert.constraints import lower_bound, upper_bound
from combcert.search import FAMILIES, ExperimentConfig, run_search, sample_comb
from oracles import in_normal_form, naive_sec_violations, subset_count, tour_point, with_weight

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def evaluate(row, point):
    """The row's value at the point, and whether its relation holds there."""
    value = row.value_on(point)
    return value, (value == row.rhs if row.is_equality else value <= row.rhs)


def test_gen_degree_k22():
    k22 = BipartiteInstance.complete(2)
    rows = gen_degree(k22)
    assert len(rows) == 4
    assert all(len(r.coeffs) == 2 for r in rows)
    assert all(r.rhs == 2 and r.kind is ConstraintKind.DEGREE_LE2 for r in rows)


def test_gen_degree_table1(table1):
    instance, _, _ = table1
    assert len(gen_degree(instance)) == 8


def test_a_bad_degree_mode_is_refused(k33):
    v = next(k33.vertices())
    assert degree_constraint(k33, v).kind is ConstraintKind.DEGREE_LE2
    assert degree_constraint(k33, v, "eq").kind is ConstraintKind.DEGREE_EQ2
    for mode in ("bogus", "ge", "", None, ["le"]):
        with pytest.raises(ValueError, match="mode must be"):
            degree_constraint(k33, v, mode)
        with pytest.raises(ValueError, match="mode must be"):
            gen_degree(k33, mode)


def test_gen_degree_eq_mode_two_thirds_point(k33):
    point = FractionalPoint(k33, {e: Fraction(2, 3) for e in k33.edges})
    for row in gen_degree(k33, "eq"):
        value, ok = evaluate(row, point)
        assert value == 2 and ok


def test_gen_secs_count_matches_enumeration_oracle(table1):
    instance, _, _ = table1
    rows = list(gen_secs(instance))  # the window 3..N-1 of 8 vertices
    assert len(rows) == subset_count(8, 3, 7) == 218
    provenances = {r.provenance for r in rows}
    assert len(provenances) == len(rows)  # duplicate-free


def test_gen_secs_excludes_small_sets(table1):
    instance, _, _ = table1
    rows = list(gen_secs(instance))
    assert all(len(r.provenance.split(",")) >= 3 for r in rows)
    # The two-vertex tooth {h, d} is never emitted in the default window.
    assert "sec{h,d}" not in {r.provenance for r in rows}
    assert "sec{d,h}" not in {r.provenance for r in rows}


def test_sec_rhs_is_size_minus_one(table1):
    instance, _, _ = table1
    subset = {instance.vertex(x) for x in "bgcf"}
    row = sec_constraint(instance, subset)
    assert row.rhs == 3


def test_gen_secs_cap():
    big = BipartiteInstance.complete(13)  # 26 vertices > default cap 24
    with pytest.raises(EnumerationCapError):
        next(gen_secs(big))


def test_every_subtour_cap_refusal_reads_one_cap(monkeypatch):
    # `gen_secs`, `is_implied` and a wild `run_search` all refuse through
    # `check_enumeration_cap`, so lowering the one cap moves all three.
    monkeypatch.setattr(constraints, "DEFAULT_ENUMERATION_CAP", 7)
    k44 = BipartiteInstance.complete(4)
    message = "subtour enumeration: size 8 exceeds the enumeration cap 7"
    with pytest.raises(EnumerationCapError, match=message):
        next(gen_secs(k44))
    with pytest.raises(EnumerationCapError, match=message):
        is_implied(k44, upper_bound(k44, k44.sorted_edges[0]))
    with pytest.raises(EnumerationCapError, match=message):
        run_search(ExperimentConfig(seed=0, size=4, comb_count=1, families=("wild",)))
    run_search(ExperimentConfig(seed=0, size=4, comb_count=1, families=("l1",)))


def test_check_point_table1_feasible(table1):
    instance, point, _ = table1
    report = check_point(instance, point)
    assert report.feasible
    assert report.violations == ()


def test_check_point_agrees_with_naive_subset_scan(table1):
    instance, point, _ = table1
    tweaked = with_weight(point, next(iter(sorted(instance.edges))), Fraction(9, 10))
    report = check_point(instance, tweaked)
    got = {
        frozenset(r.provenance for r, _ in report.violations
                  if r.kind is ConstraintKind.SUBTOUR_ELIM)
    }
    naive = naive_sec_violations(instance, tweaked, 3, 7)
    naive_provs = {
        "sec{" + ",".join(instance.labels_of(s)) + "}" for s, _ in naive
    }
    sec_provs = {
        r.provenance
        for r, _ in report.violations
        if r.kind is ConstraintKind.SUBTOUR_ELIM
    }
    assert sec_provs == naive_provs


def _subtour_violations(report):
    return {
        row.provenance: value
        for row, value in report.violations
        if row.kind is ConstraintKind.SUBTOUR_ELIM
    }


def _naive_subtour_violations(instance, point):
    naive = naive_sec_violations(instance, point, 3, instance.num_vertices - 1)
    return {"sec{" + ",".join(instance.labels_of(s)) + "}": v for s, v in naive}


def test_check_point_matches_the_subset_oracle_on_random_points():
    # Negative weights, weights above 1 and points off the degree rows:
    # the cut search clips and shifts for these, and must still list every
    # violated set, each with its exact value.
    rng = random.Random(2024)
    pool = [Fraction(k, 4) for k in range(-4, 10)] + [Fraction(1, 3), Fraction(2, 3)]
    shapes = [(n, n) for n in (2, 3, 4, 5)] + [(1, 4), (2, 5), (3, 2), (4, 5), (5, 3)]
    seen = {"negative": 0, "above_one": 0, "off_degree": 0, "violated_sets": 0}
    for k in range(400):
        instance = BipartiteInstance.complete(*shapes[k % len(shapes)])
        density = rng.choice((0.3, 0.6, 1.0))
        weights = {e: rng.choice(pool) for e in instance.edges if rng.random() < density}
        point = FractionalPoint(instance, weights)
        got = _subtour_violations(check_point(instance, point))
        expected = _naive_subtour_violations(instance, point)
        assert got == expected
        seen["negative"] += any(w < 0 for w in weights.values())
        seen["above_one"] += any(w > 1 for w in weights.values())
        seen["off_degree"] += not all(
            evaluate(row, point)[1] for row in gen_degree(instance)
        )
        seen["violated_sets"] += len(expected)
    assert min(seen.values()) >= 100, seen


def _four_cycles_k88():
    """Four disjoint 4-cycles of weight 1 covering K_{8,8}, and the cycles."""
    k88 = BipartiteInstance.complete(8)
    ones = [v for v in k88.vertices() if v.cls == 1]
    twos = [v for v in k88.vertices() if v.cls == 2]
    weights, cycles = {}, []
    for i in range(0, 8, 2):
        cycles.append(frozenset(ones[i : i + 2] + twos[i : i + 2]))
        for a in ones[i : i + 2]:
            for b in twos[i : i + 2]:
                weights[Edge(a, b)] = 1
    return k88, FractionalPoint(k88, weights), cycles


def test_check_point_lists_every_union_of_disjoint_four_cycles():
    instance, point, cycles = _four_cycles_k88()
    report = check_point(instance, point)
    assert not report.feasible
    # A union of j < 4 cycles has 4j vertices and weight 4j > 4j - 1.
    unions = [
        frozenset().union(*chosen)
        for j in (1, 2, 3)
        for chosen in combinations(cycles, j)
    ]
    expected = {
        "sec{" + ",".join(instance.labels_of(s)) + "}": len(s) for s in unions
    }
    assert len(expected) == 14
    assert _subtour_violations(report) == expected


def test_check_point_refuses_more_violated_sets_than_the_budget(monkeypatch):
    instance, point, _ = _four_cycles_k88()
    monkeypatch.setattr(constraints, "VIOLATED_SET_BUDGET", 5)
    with pytest.raises(EnumerationCapError, match="violated subtour sets"):
        check_point(instance, point)
    monkeypatch.setattr(constraints, "VIOLATED_SET_BUDGET", 13)
    with pytest.raises(EnumerationCapError, match="size 14 exceeds the enumeration cap 13"):
        check_point(instance, point)
    # The 14 unions are all the budget needs: V, which the search also
    # finds, counts against it no more.
    monkeypatch.setattr(constraints, "VIOLATED_SET_BUDGET", 14)
    assert len(check_point(instance, point).violations) == 14


def test_check_point_runs_past_the_subtour_vertex_cap():
    # K_{13,13} has 26 vertices, above the cap that `gen_secs` keeps.
    instance = BipartiteInstance.complete(13)
    uniform = FractionalPoint(instance, {e: Fraction(2, 13) for e in instance.edges})
    assert check_point(instance, uniform, mode="eq").feasible


def test_check_point_upper_bound_violation(table1):
    instance, point, _ = table1
    edge = next(iter(sorted(instance.edges)))
    bad = with_weight(point, edge, Fraction(3, 2))
    report = check_point(instance, bad)
    kinds = {r.kind for r, _ in report.violations}
    assert ConstraintKind.UPPER_BOUND in kinds


def test_check_point_degree_violation_when_raising_ac(table1):
    instance, point, _ = table1
    ac = next(
        e
        for e in instance.edges
        if {instance.label(e.u), instance.label(e.v)} == {"a", "c"}
    )
    bad = with_weight(point, ac, Fraction(1))
    report = check_point(instance, bad)
    degree_hits = {
        r.provenance: value
        for r, value in report.violations
        if r.kind is ConstraintKind.DEGREE_LE2
    }
    assert degree_hits["degree(a)"] == Fraction(5, 2)


def test_check_point_reports_integral_violation_values_as_ints():
    # A 4-cycle at weight 1 plus one edge at 1/2: the cut kernels scale by
    # D = 2, and the subtour value 8/2 comes back as the int 4.  Two
    # weights of 3/2 at u0 give the degree value 3, a weight 4/2 the bound
    # value 2.
    k33 = BipartiteInstance.complete(3)
    u0, u1, u2, v0, v1, v2 = (k33.vertex(x) for x in ("u0", "u1", "u2", "v0", "v1", "v2"))
    cycle = {Edge(u, v): 1 for u in (u0, u1) for v in (v0, v1)}
    point = FractionalPoint(k33, {**cycle, Edge(u2, v2): HALF})
    violations = {row.provenance: value for row, value in check_point(k33, point).violations}
    assert violations == {"sec{u0,u1,v0,v1}": 4}
    assert type(violations["sec{u0,u1,v0,v1}"]) is int
    three_halves = Fraction(3, 2)
    point = FractionalPoint(
        k33, {Edge(u0, v0): three_halves, Edge(u0, v1): three_halves, Edge(u1, v2): Fraction(4, 2)}
    )
    values = {row.provenance: value for row, value in check_point(k33, point).violations}
    assert values["degree(u0)"] == 3 and type(values["degree(u0)"]) is int
    assert values["ub(u1-v2)"] == 2 and type(values["ub(u1-v2)"]) is int
    assert values["ub(u0-v0)"] == three_halves
    assert all(map(in_normal_form, values.values()))


def test_check_point_violations_sorted_and_deterministic(table1):
    instance, point, _ = table1
    bad = point
    for e in sorted(instance.edges)[:3]:
        bad = with_weight(bad, e, Fraction(1))
    r1 = check_point(instance, bad)
    r2 = check_point(instance, bad)
    provs = [row.provenance for row, _ in r1.violations]
    assert provs == sorted(provs)
    assert provs == [row.provenance for row, _ in r2.violations]


def test_check_point_matches_row_by_row_evaluation(table1):
    instance, point, _ = table1
    bad = with_weight(point, sorted(instance.edges)[0], Fraction(1))
    report = check_point(instance, bad)
    expected = set()
    for row in gen_degree(instance):
        value, ok = evaluate(row, bad)
        if not ok:
            expected.add(row.provenance)
    for row in gen_secs(instance):
        value, ok = evaluate(row, bad)
        if not ok:
            expected.add(row.provenance)
    got = {
        r.provenance
        for r, _ in report.violations
        if r.kind in (ConstraintKind.DEGREE_LE2, ConstraintKind.SUBTOUR_ELIM)
    }
    assert got == expected


def test_evaluate_manual_two_vertex_sec(table1):
    instance, point, _ = table1
    row = sec_constraint(instance, {instance.vertex("a"), instance.vertex("e")})
    value, ok = evaluate(row, point)
    assert (value, row.rhs, ok) == (1, 1, True)


def test_evaluate_degree_row(table1):
    instance, point, _ = table1
    row = gen_degree(instance)[0]
    assert row.provenance == "degree(a)"
    assert evaluate(row, point) == (2, True)


def test_evaluate_comb_row_violated(table1):
    instance, point, comb = table1
    row = comb_inequality(instance, comb)
    value, ok = evaluate(row, point)
    assert value == Fraction(15, 2)
    assert row.rhs == 7
    assert not ok


@pytest.mark.parametrize("n", [2, 3])
def test_every_tour_satisfies_generated_constraints(n):
    instance = BipartiteInstance.complete(n)
    rows = gen_degree(instance, "le") + gen_degree(instance, "eq") + list(
        gen_secs(instance)
    )
    for tour in tours._tour_set(instance).tours:
        point = tour_point(instance, tour)
        for row in rows:
            _, ok = evaluate(row, point)
            assert ok


def _generated_rows(instance, rng):
    """Every row family the package builds, on one instance."""
    rows = gen_degree(instance, "le") + gen_degree(instance, "eq") + list(gen_secs(instance))
    rows += [upper_bound(instance, e) for e in instance.sorted_edges]
    rows += [lower_bound(instance, e) for e in instance.sorted_edges]
    rows += [comb_inequality(instance, sample_comb(rng, instance, f)) for f in FAMILIES]
    return rows


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generated_rows_hold_ints(n):
    instance = BipartiteInstance.complete(n)
    rows = _generated_rows(instance, random.Random(90 + n))
    kinds = {row.kind for row in rows}
    assert kinds >= {
        ConstraintKind.DEGREE_LE2,
        ConstraintKind.DEGREE_EQ2,
        ConstraintKind.UPPER_BOUND,
        ConstraintKind.LOWER_BOUND,
        ConstraintKind.COMB,
    }
    assert ConstraintKind.SUBTOUR_ELIM in kinds or n == 3
    for row in rows:
        assert type(row.rhs) is int, row
        assert all(type(c) is int for c in row.coeffs.values()), row
        from_fractions = LinearInequality(
            {e: Fraction(c) for e, c in row.coeffs.items()},
            Fraction(row.rhs),
            row.kind,
            row.provenance,
        )
        assert from_fractions == row
        assert type(from_fractions.rhs) is int


def test_row_values_are_ints_when_integral():
    e, f = sorted(BipartiteInstance.complete(2).edges)[:2]
    row = LinearInequality(
        {e: Fraction(4, 2), f: Fraction(1, 2)}, Fraction(6, 3), ConstraintKind.AGGREGATE, "r"
    )
    assert type(row.coeffs[e]) is int and row.coeffs[e] == 2
    assert type(row.coeffs[f]) is Fraction and row.coeffs[f] == HALF
    assert type(row.rhs) is int and row.rhs == 2
    half_rhs = LinearInequality({e: 1}, HALF, ConstraintKind.AGGREGATE, "r")
    assert type(half_rhs.rhs) is Fraction and half_rhs.rhs == HALF
    zeros = LinearInequality({e: 0, f: Fraction(0)}, 0, ConstraintKind.AGGREGATE, "r")
    assert zeros.coeffs == {}


@pytest.mark.parametrize("bad", [0.5, 1.0, 0.0, True, False, "1/2", "1", None])
def test_row_refuses_a_coefficient_that_is_not_int_or_fraction(bad):
    e, f = sorted(BipartiteInstance.complete(2).edges)[:2]
    with pytest.raises(TypeError) as refused:
        LinearInequality({f: 1, e: bad}, 1, ConstraintKind.AGGREGATE, "r")
    message = str(refused.value)
    assert message.startswith(f"coefficient of edge {e}: ")
    assert message.endswith(f"got {bad!r}")


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1/2", None])
def test_row_refuses_an_rhs_that_is_not_int_or_fraction(bad):
    e = min(BipartiteInstance.complete(2).edges)
    with pytest.raises(TypeError) as refused:
        LinearInequality({e: 1}, bad, ConstraintKind.AGGREGATE, "r")
    assert str(refused.value).startswith("rhs: ")
    assert str(refused.value).endswith(f"got {bad!r}")


def test_check_point_refuses_a_point_on_another_instance(table1):
    instance, _, _ = table1
    other = BipartiteInstance.complete(2)
    point = FractionalPoint(other, {e: 1 for e in other.edges})
    with pytest.raises(ValueError, match="^point does not belong to this instance$"):
        check_point(instance, point)
