import random
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    Edge,
    EnumerationCapError,
    LinearInequality,
    NoToursError,
    comb_inequality,
    facet_test,
    sec_constraint,
)
from combcert import tours as tours_module
from combcert.constraints import ConstraintKind, degree_constraint, lower_bound
from combcert.graph import VertexId
from combcert.search import FAMILIES, sample_comb
from combcert.certificates import BUILDERS, verify
from combcert.tours import FacetVerdict
from oracles import (
    expected_tour_count,
    facet_report_oracle,
    fraction_rank,
    is_hamiltonian_cycle,
    nested_generator_edge_tours,
    tour_affine_rank,
    tour_point,
)


def _tours(instance):
    """The kept tours: tuples of indices into `instance.sorted_edges`."""
    return tours_module._tour_set(instance).tours


def _dim(instance):
    """The kept polytope dimension."""
    return tours_module._tour_set(instance).dim


@pytest.mark.parametrize("n,count", [(2, 1), (3, 6), (4, 72)])
def test_tour_counts(n, count):
    instance = BipartiteInstance.complete(n)
    assert len(_tours(instance)) == count == expected_tour_count(n)


def test_tours_are_distinct_and_valid(k44):
    tours = _tours(k44)
    assert len(set(map(frozenset, tours))) == len(tours)
    for t in tours:
        assert is_hamiltonian_cycle(k44, t)
        assert len(t) == k44.num_vertices


def test_unequal_classes_yield_no_tours(caplog):
    # Every call refuses and logs, not only the first.
    instance = BipartiteInstance.complete(3, 2)
    row = LinearInequality({}, Fraction(1), ConstraintKind.AGGREGATE, "0<=1")
    caplog.set_level("INFO", logger=tours_module.log.name)
    for _ in range(2):
        caplog.clear()
        with pytest.raises(NoToursError):
            facet_test(instance, row)
        assert [r.getMessage() for r in caplog.records] == [
            "no tours: class sizes differ (3 vs 2)"
        ]


def test_tour_cap(monkeypatch):
    # Every call refuses before the tour kernel is reached.
    calls = []
    monkeypatch.setattr(
        tours_module._kernels, "hamiltonian_cycles", lambda *args: calls.append(args)
    )
    k77 = BipartiteInstance.complete(7)
    row = comb_inequality(k77, sample_comb(random.Random(7), k77, "l1"))
    for _ in range(2):
        with pytest.raises(EnumerationCapError):
            facet_test(k77, row)
    assert calls == []


def Edge_(c1, i1, c2, i2):
    return Edge(VertexId(c1, i1), VertexId(c2, i2))


def _instance(n, pairs):
    """K_{n,n} restricted to the class-1/class-2 index pairs given."""
    return BipartiteInstance(
        tuple(f"u{i}" for i in range(n)),
        tuple(f"v{i}" for i in range(n)),
        frozenset(Edge_(1, a, 2, b) for a, b in pairs),
    )


def _eight_cycle():
    return _instance(4, [(i, i) for i in range(4)] + [(i, (i - 1) % 4) for i in range(4)])


def _complete_minus(n, missing):
    return _instance(
        n, [(a, b) for a in range(n) for b in range(n) if (a, b) not in missing]
    )


def test_sparse_instance_tours():
    # An 8-cycle as the whole instance: exactly one tour.
    instance = _eight_cycle()
    tours = _tours(instance)
    assert len(tours) == 1
    assert {instance.sorted_edges[k] for k in tours[0]} == instance.edges


def _random_instance(rng):
    n = rng.randint(1, 6)
    density = rng.uniform(0.3, 0.95)
    return _instance(
        n, [(a, b) for a in range(n) for b in range(n) if rng.random() < density]
    )


def test_edge_tours_match_nested_generator_oracle():
    # The recursive kernel against the nested-generator reference: the
    # same tuples in the same order, which `_stride_order` relies on.  Unequal
    # classes never reach the kernel (`test_unequal_classes_yield_no_tours`).
    rng = random.Random(2017)
    instances = (
        [BipartiteInstance.complete(n) for n in (2, 3, 4, 5, 6)]
        + [_eight_cycle(), _complete_minus(4, {(0, 0)})]
        + [_random_instance(rng) for _ in range(300)]
    )
    for instance in instances:
        assert list(_tours(instance)) == nested_generator_edge_tours(instance)


@pytest.mark.parametrize(
    "instance",
    [BipartiteInstance.complete(n) for n in (2, 3, 4, 5)]
    + [_eight_cycle(), _complete_minus(4, {(0, 0)})],
)
def test_tours_match_kernel_sequences(instance):
    # The kept tuples against the reference search's, in the same order
    # with the tour set cleared and kept.
    expected = tuple(nested_generator_edge_tours(instance))
    tours_module._tour_set.cache_clear()
    assert tours_module._tour_set(instance).tours == expected
    assert tours_module._tour_set(instance).tours == expected


def test_dimension_small_instances(k33, k44):
    assert _dim(BipartiteInstance.complete(2)) == 0
    assert _dim(k33) == 4
    # 2n degree equalities have rank 2n - 1 on a connected bipartite graph,
    # so the dimension can be at most n^2 - (2n - 1) = 9; it is exactly 9.
    assert _dim(k44) == 9


def test_dimension_matches_fraction_gauss_oracle(k33):
    tours = _tours(k33)
    base = [int(k in tours[0]) for k in range(len(k33.edges))]
    rows = [[int(k in t) - b for k, b in enumerate(base)] for t in tours[1:]]
    assert fraction_rank(rows) == _dim(k33) == 4


def test_facet_verdicts_for_subtour_row(k33):
    row = sec_constraint(
        k33, {k33.vertex("u0"), k33.vertex("u1"), k33.vertex("v0")}
    )
    report = facet_test(k33, row)
    assert report.verdict in (
        FacetVerdict.FACET,
        FacetVerdict.SUPPORTING_NON_FACET,
    )
    assert report.polytope_dim == 4
    assert report.tight_tour_count > 0
    # Cross-check the tight face dimension against the naive rank oracle:
    # Fraction elimination over the tight tours' difference rows.
    tights = [t for t in _tours(k33) if row.value_on(tour_point(k33, t)) == row.rhs]
    assert report.tight_tour_count == len(tights)
    edges = sorted(k33.edges)
    points = [[tour_point(k33, t).weight(e) for e in edges] for t in tights]
    differences = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    assert report.tight_face_dim == fraction_rank(differences)


def test_facet_trivial_inequality_not_supporting(k33):
    trivial = LinearInequality({}, Fraction(1), ConstraintKind.AGGREGATE, "0<=1")
    report = facet_test(k33, trivial)
    assert report.verdict is FacetVerdict.NOT_SUPPORTING
    assert report.tight_tour_count == 0


def test_facet_invalid_inequality(k33):
    e = sorted(k33.edges)[0]
    impossible = LinearInequality(
        {e: Fraction(1)}, Fraction(-1), ConstraintKind.AGGREGATE, "x<=-1"
    )
    assert facet_test(k33, impossible).verdict is FacetVerdict.NOT_VALID


def test_certified_combs_never_facet_on_k44(k44):
    rng = random.Random(616)
    dim = _dim(k44)
    for k in range(15):
        family = ("l1", "l2", "l3", "t1", "t2")[k % 5]
        comb = sample_comb(rng, k44, family)
        cert = BUILDERS[family.upper()](k44, comb)
        assert verify(k44, cert).dominates
        report = facet_test(k44, comb_inequality(k44, comb))
        assert report.verdict is not FacetVerdict.FACET
        assert report.tight_tour_count == 0 or report.tight_face_dim < dim - 1


# Differential tests: `facet_test` against the oracle, which evaluates each
# row with `value_on` at every kept tour's point and ranks with
# `fraction_rank`.


@pytest.fixture(scope="module")
def oracle_dim():
    """The oracle's polytope dimension, computed once per instance."""
    dims = {}

    def dim(instance, tours):
        if instance not in dims:
            dims[instance] = tour_affine_rank(instance.sorted_edges, tours)
        return dims[instance]

    return dim


def _assert_reports_match_oracle(instance, rows, oracle_dim):
    # Each row twice: with the tour set cleared, and then kept.
    tours = _tours(instance)
    dim = oracle_dim(instance, tours)
    for row in rows:
        expected = facet_report_oracle(instance, row, tours, dim)
        tours_module._tour_set.cache_clear()
        assert facet_test(instance, row).as_dict() == expected, row
        assert facet_test(instance, row).as_dict() == expected, row


def test_facet_reports_match_oracle_on_criterion_7_corpus(k44, oracle_dim):
    rng = random.Random(70707)
    rows = []
    for k in range(150):
        comb = sample_comb(rng, k44, ("l1", "l2", "l3", "t1", "t2")[k % 5])
        rows.append(comb_inequality(k44, comb))
    _assert_reports_match_oracle(k44, rows, oracle_dim)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polytope_dimension_matches_oracle_on_criterion_6_corpus(n, oracle_dim):
    instance = BipartiteInstance.complete(n)
    kept = tours_module._tour_set(instance)
    assert kept.dim == oracle_dim(instance, kept.tours)


@pytest.mark.parametrize("n,per_family", [(3, 4), (4, 4), (5, 2)])
def test_facet_reports_match_oracle_on_seeded_combs(n, per_family, oracle_dim):
    instance = BipartiteInstance.complete(n)
    rng = random.Random(4000 + n)
    rows = [
        comb_inequality(instance, sample_comb(rng, instance, family))
        for family in FAMILIES
        for _ in range(per_family)
    ]
    if n < 5:  # on K_{5,5} the oracle takes seconds per nonnegativity row
        # Nonnegativity rows: facets from K_{4,4} on, tight face early-stopped.
        rows += [lower_bound(instance, e) for e in sorted(instance.edges)[:2]]
    _assert_reports_match_oracle(instance, rows, oracle_dim)


@pytest.mark.parametrize(
    "instance", [_eight_cycle(), _complete_minus(4, {(0, 0)})], ids=["8-cycle", "K44-e"]
)
def test_facet_reports_match_oracle_on_sparse_instances(instance, oracle_dim):
    rng = random.Random(808)
    rows = [
        comb_inequality(instance, sample_comb(rng, instance, family))
        for family in FAMILIES
    ]
    rows += [sec_constraint(instance, list(instance.vertices())[:3])]
    rows += [lower_bound(instance, e) for e in sorted(instance.edges)[:2]]
    rows += [degree_constraint(instance, v, "eq") for v in instance.vertices()]
    # A coefficient on an edge outside the instance is ignored.
    absent = min(BipartiteInstance.complete(4).edges - instance.edges)
    present = sorted(instance.edges)[0]
    rows.append(
        LinearInequality(
            {absent: Fraction(5), present: Fraction(1)},
            Fraction(1),
            ConstraintKind.AGGREGATE,
            "absent edge",
        )
    )
    _assert_reports_match_oracle(instance, rows, oracle_dim)


def test_facet_reports_match_oracle_on_special_rows(k44, oracle_dim):
    e = sorted(k44.edges)
    rows = [
        # Every tour tight, so the bound is polytope_dim.
        degree_constraint(k44, k44.vertex("u0"), "eq"),
        degree_constraint(k44, k44.vertex("v2"), "le"),
        # An equality that tours without e[0] miss from below.
        LinearInequality(
            {e[0]: Fraction(1)}, Fraction(1), ConstraintKind.DEGREE_EQ2, "x==1"
        ),
        # Fractional coefficients and rhs, tight on 4 tours.
        LinearInequality(
            {e[0]: Fraction(1, 3), e[1]: Fraction(1, 2), e[5]: Fraction(2, 3)},
            Fraction(3, 2),
            ConstraintKind.AGGREGATE,
            "fractional",
        ),
        LinearInequality(
            {e[0]: Fraction(1, 2), e[4]: Fraction(1, 2)},
            Fraction(1),
            ConstraintKind.AGGREGATE,
            "half",
        ),
        # Violated by some tours and satisfied by others.
        LinearInequality(
            {e[0]: Fraction(1), e[5]: Fraction(1)},
            Fraction(1),
            ConstraintKind.AGGREGATE,
            "not valid",
        ),
        LinearInequality(
            {e[0]: Fraction(1)}, Fraction(1, 3), ConstraintKind.AGGREGATE, "x<=1/3"
        ),
    ]
    _assert_reports_match_oracle(k44, rows, oracle_dim)
    verdicts = [facet_test(k44, row).verdict for row in rows]
    assert FacetVerdict.NOT_VALID in verdicts
    assert FacetVerdict.SUPPORTING_NON_FACET in verdicts


# The kept tour set against the enumeration it keeps.


def test_facet_reports_cold_and_warm_agree_on_k66():
    # Past the oracle's reach: each report with the tour set cleared
    # against the report that reads it kept.
    instance = BipartiteInstance.complete(6)
    rng = random.Random(4006)
    rows = [comb_inequality(instance, sample_comb(rng, instance, f)) for f in FAMILIES]
    rows.append(lower_bound(instance, min(instance.edges)))
    for row in rows:
        tours_module._tour_set.cache_clear()
        cold = facet_test(instance, row)
        assert facet_test(instance, row) == cold, row
    tours_module._tour_set.cache_clear()
    cold = _dim(instance)
    assert _dim(instance) == cold == 25


def test_kept_tour_set_is_a_tuple_of_tuples(k33):
    tours_module._tour_set.cache_clear()
    kept = tours_module._tour_set(k33)
    assert type(kept.tours) is tuple and all(type(t) is tuple for t in kept.tours)
    assert kept.tours == tuple(nested_generator_edge_tours(k33))
    assert kept.dim == tour_affine_rank(k33.sorted_edges, kept.tours) == 4
    # Equal instances share it.
    assert tours_module._tour_set(BipartiteInstance.complete(3)) is kept


def test_instance_without_a_tour_raises_on_every_call(monkeypatch):
    # Two disjoint 4-cycles: balanced classes, no Hamiltonian tour.  The
    # empty tour set is kept, and each call still raises.
    instance = _instance(4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    calls = []
    cycles = tours_module._kernels.hamiltonian_cycles
    monkeypatch.setattr(
        tours_module._kernels,
        "hamiltonian_cycles",
        lambda *args: calls.append(args) or cycles(*args),
    )
    row = LinearInequality({}, Fraction(1), ConstraintKind.AGGREGATE, "0<=1")
    tours_module._tour_set.cache_clear()
    for _ in range(2):
        with pytest.raises(NoToursError):
            facet_test(instance, row)
    assert len(calls) == 1


def test_tour_sets_kept_stays_bounded():
    info = tours_module._tour_set.cache_info
    assert info().maxsize == tours_module.TOUR_SETS_KEPT
    tours_module._tour_set.cache_clear()
    instances = [BipartiteInstance.complete(n) for n in (2, 3, 4)]
    instances += [_eight_cycle(), _complete_minus(4, {(0, 0)})]
    for instance in instances + instances:
        tours_module._tour_set(instance)
        assert info().currsize <= tours_module.TOUR_SETS_KEPT
    assert info().currsize == tours_module.TOUR_SETS_KEPT


# The rank stops at |E| - |V| + 1 on the polytope.


@pytest.mark.parametrize("n,dim", [(5, 16), (6, 25)])
def test_polytope_dimension_large(n, dim):
    assert _dim(BipartiteInstance.complete(n)) == dim == (n - 1) ** 2


def _count_echelon_rows(monkeypatch):
    calls = []
    add = tours_module._IntEchelon.add

    def counting_add(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(tours_module._IntEchelon, "add", counting_add)
    return calls


# Each test clears the kept tour sets before it counts, so that the rank
# it counts is not one a kept entry already holds.


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rank_stops_at_polytope_bound(n, monkeypatch):
    instance = BipartiteInstance.complete(n)
    bound = len(instance.edges) - instance.num_vertices + 1
    calls = _count_echelon_rows(monkeypatch)
    tours_module._tour_set.cache_clear()
    assert _dim(instance) == bound
    assert 0 < len(calls) <= bound


def test_rank_below_bound_reads_every_tour(monkeypatch):
    instance = _complete_minus(4, {(0, 0), (1, 2), (3, 2)})
    tours = _tours(instance)
    bound = len(instance.edges) - instance.num_vertices + 1
    oracle = tour_affine_rank(instance.sorted_edges, tours)
    assert oracle < bound
    calls = _count_echelon_rows(monkeypatch)
    tours_module._tour_set.cache_clear()
    assert _dim(instance) == oracle
    assert len(calls) == len(tours) - 1


def test_polytope_is_ranked_once_per_kept_instance(k44, monkeypatch):
    # The first call adds the polytope's 9 echelon rows and then its tight
    # face's; every later call, and a second pass, only the tight face's,
    # over exactly the tours that the report counts as tight.
    rng = random.Random(44)
    rows = [comb_inequality(k44, sample_comb(rng, k44, f)) for f in FAMILIES]
    rows += [lower_bound(k44, e) for e in sorted(k44.edges)[:2]]
    calls = _count_echelon_rows(monkeypatch)
    ranked = []
    affine_rank = tours_module._affine_rank

    def recording_rank(tours, width, bound):
        ranked.append(len(tours))
        return affine_rank(tours, width, bound)

    monkeypatch.setattr(tours_module, "_affine_rank", recording_rank)
    tours_module._tour_set.cache_clear()
    added, reports = [], []
    for k, row in enumerate(rows + rows):
        before, ranked_before = len(calls), len(ranked)
        reports.append(facet_test(k44, row))
        added.append(len(calls) - before)
        tight = reports[-1].tight_tour_count
        expected = ([72] if k == 0 else []) + ([tight] if tight else [])
        assert ranked[ranked_before:] == expected, row
    assert reports[: len(rows)] == reports[len(rows) :]
    assert added[0] == 9 + added[len(rows)]
    assert added[1 : len(rows)] == added[len(rows) + 1 :]
    assert sum(added[len(rows) :]) > 0


@pytest.mark.parametrize("count", range(1, 60))
def test_stride_order_is_a_permutation(count):
    assert sorted(tours_module._stride_order(count)) == list(range(count))


@pytest.mark.parametrize("seed", range(8))
def test_int_echelon_rank_matches_fraction_rank(seed):
    rng = random.Random(seed)
    width = rng.randint(3, 8)
    basis = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(rng.randint(1, width))]
    rows = []
    for _ in range(2 * width):
        # Mostly combinations of a few basis rows, so many rows are dependent.
        weights = [rng.randint(-2, 2) for _ in basis]
        rows.append([sum(w * b[c] for w, b in zip(weights, basis)) for c in range(width)])
    echelon = tours_module._IntEchelon()
    for k, row in enumerate(rows):
        grew = echelon.add(row)
        assert grew == (fraction_rank(rows[: k + 1]) > fraction_rank(rows[:k]))
    assert echelon.rank == fraction_rank(rows)
