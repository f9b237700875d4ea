import random
from collections import Counter
from fractions import Fraction

import pytest

from combcert import (
    BipartiteInstance,
    Comb,
    FractionalPoint,
    HypothesisNotMetError,
    build_l1,
    build_l2,
    build_l3,
    build_t1,
    build_t2,
    check_point,
    classify,
    comb_inequality,
    verify,
)
from combcert.certificates import (
    BUILDERS,
    Certificate,
    CertificateMember,
    aggregation_members,
    certify,
)
from combcert import certificates, load_table, validate_comb
from combcert import tours as tours_module
from combcert.combs import comb_rhs
from combcert.errors import CombcertError, InvalidCombError
from combcert.graph import CLASS1, CLASS2, Edge, VertexId
from combcert.search import FAMILIES, ExperimentConfig, run_search, sample_comb
import oracles
from oracles import in_normal_form, member_inequality, tour_point


def _labels(instance, *names):
    return frozenset(instance.vertex(x) for x in names)


def _smallest_l1_comb(k44):
    """t = 3, one hand vertex in class 1, two in class 2, all teeth size 2."""
    return Comb(
        _labels(k44, "u0", "v0", "v1"),
        (
            _labels(k44, "u0", "v2"),
            _labels(k44, "v0", "u1"),
            _labels(k44, "v1", "u2"),
        ),
    )


def test_l1_smallest_comb_slack_zero(k44):
    comb = _smallest_l1_comb(k44)
    cert = build_l1(k44, comb)
    report = verify(k44, cert)
    # Aggregate rhs sum|T| - q = 6 - 2 = 4 equals target 3 + 6 - 5 = 4.
    assert report.dominates
    assert report.slack == 0
    assert comb_inequality(k44, comb).rhs == 4


def test_l1_emits_trivial_singleton_subtour_members(k44):
    comb = _smallest_l1_comb(k44)
    cert = build_l1(k44, comb)
    singletons = [
        m for m in cert.members if m.kind == "sec" and len(m.vertex_set) == 1
    ]
    # The class-1 tooth has size 2, so its interior is a single vertex:
    # the member degenerates to 0 <= 0 but is still counted.
    assert len(singletons) == 1
    assert member_inequality(k44, singletons[0]).coeffs == {}


def test_l1_per_edge_surplus_exact(k44):
    comb = _smallest_l1_comb(k44)
    report = verify(k44, build_l1(k44, comb))
    target = comb_inequality(k44, comb)
    # Hand-internal edges are covered exactly once by the class-1 endpoint's
    # degree member; every comb edge comes out with zero surplus.
    for e in target.coeffs:
        assert report.edge_surplus[e] == 0


def test_l1_refuses_multi_intersection(table1):
    instance, _, comb = table1
    with pytest.raises(HypothesisNotMetError):
        build_l1(instance, comb)


def test_l2_reduces_to_l1_without_toothless(k44):
    comb = _smallest_l1_comb(k44)
    cert1 = build_l1(k44, comb)
    cert2 = build_l2(k44, comb)
    assert cert1.orientation == cert2.orientation
    assert set(cert1.members) == set(cert2.members)


def test_l2_picks_swapped_orientation_when_needed(k44):
    # One toothless class-1 vertex; two class-1 hand vertices total and two
    # class-2 hand vertices, all teeth single-intersection.  The as-given
    # orientation overshoots by one; the swapped orientation lands exactly.
    comb = Comb(
        _labels(k44, "u0", "u3", "v0", "v1"),
        (
            _labels(k44, "u0", "v2"),
            _labels(k44, "v0", "u1"),
            _labels(k44, "v1", "u2"),
        ),
    )
    flags = classify(k44, comb).as_dict()
    assert flags["single"] and not flags["single_all_toothed"]
    target = comb_inequality(k44, comb).rhs
    pat1, pat2 = classify(k44, comb).patterns
    agg1 = aggregation_members(k44, comb, pat1)[1]
    agg2 = aggregation_members(k44, comb, pat2)[1]
    assert agg1 > target >= agg2
    cert = build_l2(k44, comb)
    assert cert.orientation == 2
    assert verify(k44, cert).dominates


def test_l2_slack_is_integral():
    rng = random.Random(23)
    instance = BipartiteInstance.complete(5)
    for _ in range(40):
        comb = sample_comb(rng, instance, "l2")
        report = verify(instance, build_l2(instance, comb))
        assert report.dominates
        assert report.slack.denominator == 1


def test_l3_table2_comb_without_its_toothless_vertex(table2):
    instance, _, comb = table2
    # The toothless hand vertex is b (class 1); dropping it gives the
    # fully-toothed p=1 < q=2 pattern and the recipe certifies it.
    reduced = Comb(comb.hand - _labels(instance, "b"), comb.teeth)
    assert classify(instance, reduced).as_dict()["sorted_minority"]
    pat = classify(instance, reduced).patterns[0]
    assert (pat.p, pat.q) == (1, 2)
    cert = build_l3(instance, reduced)
    report = verify(instance, cert)
    assert report.dominates


def test_l3_single_intersection_comb_matches_l1_members(k44):
    comb = _smallest_l1_comb(k44)
    cert_l1 = build_l1(k44, comb)
    cert_l3 = build_l3(k44, comb)
    assert set(cert_l1.members) == set(cert_l3.members)


def test_l3_aggregate_rhs_identity():
    rng = random.Random(71)
    for n in (4, 5, 6):
        instance = BipartiteInstance.complete(n)
        for _ in range(25):
            comb = sample_comb(rng, instance, "l3")
            pat = next(
                p
                for p in classify(instance, comb).patterns
                if p.w == 0 and p.y == 0 and p.p < p.q
            )
            _, agg = aggregation_members(instance, comb, pat)
            tooth_total = sum(len(t) for t in comb.teeth)
            assert agg == tooth_total + sum(pat.s) + sum(pat.r[: pat.p]) - pat.q


def test_t1_reduces_to_l3_when_fully_toothed(k44):
    comb = _smallest_l1_comb(k44)
    cert_l3 = build_l3(k44, comb)
    cert_t1 = build_t1(k44, comb)
    assert set(cert_l3.members) == set(cert_t1.members)


def test_t1_refuses_table2(table2):
    instance, _, comb = table2
    with pytest.raises(HypothesisNotMetError):
        build_t1(instance, comb)


def test_t1_condition_met_with_equality_on_k66():
    # p = 1, q = 4, one toothless class-1 vertex: 1 <= (4 - 2)/2 holds with
    # equality and the certificate still dominates.
    k66 = BipartiteInstance.complete(6)
    comb = Comb(
        _labels(k66, "u0", "u5", "v1", "v2", "v3", "v4"),
        (
            _labels(k66, "u0", "v0"),
            _labels(k66, "v1", "u1"),
            _labels(k66, "v2", "u2"),
            _labels(k66, "v3", "u3"),
            _labels(k66, "v4", "u4"),
        ),
    )
    pat = classify(k66, comb).patterns[0]
    assert (pat.p, pat.q, pat.w, pat.y) == (1, 4, 1, 0)
    assert pat.condition_bound() == 1
    cert = build_t1(k66, comb)
    report = verify(k66, cert)
    assert report.dominates and report.slack >= 0


def test_t2_accepts_single_intersection_combs(k44):
    comb = _smallest_l1_comb(k44)
    assert verify(k44, build_t2(k44, comb)).dominates


def test_t2_wide_pattern_on_k88():
    # p = 1 with a three-vertex class-1 hand block, two class-2 teeth (one
    # doubled), two toothless class-1 vertices: at least one orientation of
    # the recipe must land, despite the counting condition failing as given.
    k88 = BipartiteInstance.complete(8)
    comb = Comb(
        frozenset(
            {k88.vertex(x) for x in ("u0", "u1", "u2", "u6", "u7", "v0", "v1", "v2")}
        ),
        (
            frozenset({k88.vertex(x) for x in ("u0", "u1", "u2", "v6")}),
            frozenset({k88.vertex(x) for x in ("v0", "u3")}),
            frozenset({k88.vertex(x) for x in ("v1", "v2", "u4")}),
        ),
    )
    pat = classify(k88, comb).patterns[0]
    assert (pat.p, pat.q) == (1, 2)
    assert pat.s == (2,)
    assert pat.r == (0, 0, 1)
    assert (pat.w, pat.y) == (2, 0)
    cert = build_t2(k88, comb)
    assert verify(k88, cert).dominates


def _slacks(instance, comb):
    """Each orientation's comb rhs minus its aggregate rhs, for a
    one-class-per-tooth comb."""
    flags = classify(instance, comb)
    assert "T2" in flags.builder_names()
    return [comb_rhs(comb) - aggregation_members(instance, comb, p)[1] for p in flags.patterns]


def test_t2_orientation_fallback_exhaustive():
    # Whenever the as-given orientation's aggregate overshoots, the swapped
    # one must land; scan generated one-class-per-tooth combs for both cases.
    rng = random.Random(3111)
    instance = BipartiteInstance.complete(6)
    saw_swap = saw_direct = 0
    for _ in range(80):
        comb = sample_comb(rng, instance, "t2")
        slack = _slacks(instance, comb)
        assert max(slack) >= 0
        cert = build_t2(instance, comb)
        assert verify(instance, cert).dominates
        if slack[0] < 0:
            assert cert.orientation == 2
            saw_swap += 1
        else:
            saw_direct += 1
    assert saw_swap and saw_direct


def test_parity_audit_identity_and_evenness():
    rng = random.Random(88)
    instance = BipartiteInstance.complete(5)
    for family in ("l1", "l2", "t2"):
        for _ in range(30):
            comb = sample_comb(rng, instance, family)
            s1, s2 = _slacks(instance, comb)
            assert s1.denominator == 1 and s2.denominator == 1
            pat = comb.patterns[0]
            expected = sum(pat.s) + pat.trailing_r_sum() - 1
            assert s1 + s2 == expected >= -1
            assert 2 * s1 % 2 == 0 and 2 * s2 % 2 == 0


def test_one_builder_call_validates_once_and_extracts_two_patterns(monkeypatch):
    from combcert import combs

    calls = {"validate": 0, "extract": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(combs, "validate_comb", counted("validate", combs.validate_comb))
    monkeypatch.setattr(combs, "_pattern", counted("extract", combs._pattern))
    rng = random.Random(808)
    instance = BipartiteInstance.complete(5)
    for name, builder in BUILDERS.items():
        sampled = sample_comb(rng, instance, name.lower())
        comb = Comb(sampled.hand, sampled.teeth)  # no patterns kept yet
        calls.update(validate=0, extract=0)
        builder(instance, comb)
        assert calls == {"validate": 1, "extract": 2}, name
        # The comb keeps its patterns: a second call extracts nothing.
        builder(instance, comb)
        assert calls == {"validate": 2, "extract": 2}, name


def test_builders_produce_only_primitive_members():
    rng = random.Random(5150)
    instance = BipartiteInstance.complete(5)
    for family, builder in BUILDERS.items():
        comb = sample_comb(rng, instance, family.lower())
        cert = builder(instance, comb)
        assert all(m.kind in ("degree", "sec") for m in cert.members)


def test_verify_detects_member_removal(k44):
    comb = _smallest_l1_comb(k44)
    cert = build_l1(k44, comb)
    for drop in range(len(cert.members)):
        mutant = Certificate(
            cert.builder,
            cert.comb,
            cert.members[:drop] + cert.members[drop + 1 :],
            cert.orientation,
        )
        report = verify(k44, mutant)
        # Dropping the singleton member (an empty row) only tightens the
        # aggregate; dropping anything else must break domination.
        if member_inequality(k44, cert.members[drop]).coeffs:
            assert not report.dominates
            assert report.problems


def test_verify_rejects_bad_degree_support(k44):
    comb = _smallest_l1_comb(k44)
    cert = build_l1(k44, comb)
    v0 = k44.vertex("u0")
    foreign = next(e for e in sorted(k44.edges) if v0 not in e)
    bad_member = CertificateMember(
        kind="degree", vertex=v0, support=frozenset({foreign})
    )
    mutant = Certificate(
        cert.builder, cert.comb, cert.members + (bad_member,), cert.orientation
    )
    report = verify(k44, mutant)
    assert not report.dominates
    assert any("not incident" in p for p in report.problems)


def test_no_certificate_for_table1_comb(table1):
    # The comb is genuinely violable, so no member list can dominate; try a
    # hand-built one shaped like the single-intersection recipe.
    instance, point, comb = table1
    members = []
    for tooth in comb.teeth:
        members.append(CertificateMember(kind="sec", vertex_set=tooth))
    for v in sorted(comb.hand):
        members.append(
            CertificateMember(
                kind="degree",
                vertex=v,
                support=frozenset(
                    e for e in instance.incident(v) if e.u in comb.hand and e.v in comb.hand
                ),
            )
        )
    report = verify(
        instance, Certificate("L1", comb, tuple(members), orientation=1)
    )
    assert not report.dominates


def test_certified_combs_hold_on_sampled_feasible_points(k33):
    rng = random.Random(4040)
    tours = [tour_point(k33, t) for t in tours_module._tour_set(k33).tours]
    # Convex combinations of tours plus a low uniform point, all feasible.
    feasible = []
    for _ in range(6):
        picks = rng.sample(range(len(tours)), 3)
        weights = {}
        for idx in picks:
            for e, w in tours[idx].items():
                weights[e] = weights.get(e, Fraction(0)) + w * Fraction(1, 3)
        feasible.append(FractionalPoint(k33, weights))
    feasible.append(
        FractionalPoint(k33, {e: Fraction(1, 4) for e in k33.edges})
    )
    for point in feasible:
        assert check_point(k33, point).feasible
    for _ in range(20):
        family = rng.choice(["l1", "l2", "t2"])
        comb = sample_comb(rng, k33, family)
        cert = BUILDERS[family.upper()](k33, comb)
        assert verify(k33, cert).dominates
        row = comb_inequality(k33, comb)
        for point in feasible:
            assert row.value_on(point) <= row.rhs


def _first_admitting_builder(instance, comb):
    """The certificate `cli certify --builder auto` and `run_search` built
    before `certify`: the first of `builder_names()` through `BUILDERS`."""
    names = classify(instance, comb).builder_names()
    return BUILDERS[names[0]](instance, comb) if names else None


@pytest.mark.parametrize("n", range(3, 11))
def test_certify_builds_the_first_admitting_class(n):
    instance = BipartiteInstance.complete(n)
    rng = random.Random(1900 + n)
    built = 0
    for k in range(4 * len(FAMILIES)):
        comb = sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)])
        expected = _first_admitting_builder(instance, Comb(comb.hand, comb.teeth))
        assert certify(instance, comb) == expected
        built += expected is not None
    assert built >= 4 * (len(FAMILIES) - 1)


def test_run_search_admits_a_certified_comb_once_and_extracts_it_once(monkeypatch):
    """Per certified comb: one admission pass (each class's predicate run
    once, by the sampler), one classification (`certify`'s) and one
    extraction of each orientation, which the comb keeps."""
    from combcert import combs, search

    seen = []  # every comb counted, kept alive so that no id is reused
    classified, admitted, extracted, sampled = Counter(), Counter(), Counter(), []
    classify, pattern, sample = combs.classify, combs._pattern, search.sample_comb

    def counted_admits(name, admits):
        def wrapper(pats):
            admitted[id(pats), name] += 1
            return admits(pats)

        return wrapper

    def counted_classify(instance, comb):
        seen.append(comb)
        classified[id(comb)] += 1
        return classify(instance, comb)

    def counted_pattern(comb, swap_classes):
        seen.append(comb)
        extracted[id(comb), swap_classes] += 1
        return pattern(comb, swap_classes)

    def recorded_sample(*args):
        sampled.append(sample(*args))
        return sampled[-1]

    for module in (combs, certificates):
        monkeypatch.setattr(module, "classify", counted_classify)
    for name, cls in combs.CLASSES.items():
        admits = counted_admits(name, cls.admits)
        monkeypatch.setitem(combs.CLASSES, name, cls._replace(admits=admits))
    monkeypatch.setattr(combs, "_pattern", counted_pattern)
    monkeypatch.setattr(search, "sample_comb", recorded_sample)
    families = tuple(name.lower() for name in BUILDERS)
    config = ExperimentConfig(seed=0, size=6, comb_count=len(families), families=families)
    findings = run_search(config)
    assert len(findings["certified"]) == len(sampled) == len(families)
    assert not findings["failures"]
    for comb in sampled:
        assert classified[id(comb)] == 1
        assert [admitted[id(comb.patterns), name] for name in combs.CLASSES] == [1] * 5
        assert extracted[id(comb), False] == extracted[id(comb), True] == 1


def _mutants(instance, cert, rng):
    """Broken copies of a certificate: a dropped member, a foreign vertex,
    a non-incident support edge, an empty vertex set and an unknown kind."""
    n = instance.n1
    members = cert.members
    drop = rng.randrange(len(members))
    foreign = VertexId(CLASS2, n)
    hand_vertex = min(cert.comb.hand)
    far_edge = next(e for e in instance.sorted_edges if hand_vertex not in e)
    replace = rng.randrange(len(members))
    extra = [
        CertificateMember(kind="sec", vertex_set=frozenset({hand_vertex, foreign})),
        CertificateMember(kind="degree", vertex=VertexId(CLASS1, n)),
        CertificateMember(
            kind="degree",
            vertex=hand_vertex,
            support=frozenset(instance.incident(hand_vertex)[:1]) | {far_edge},
        ),
        CertificateMember(kind="sec"),
        CertificateMember(kind="cycle", vertex_set=cert.comb.teeth[0]),
    ]
    lists = [members[:drop] + members[drop + 1 :]]
    lists += [members + (m,) for m in extra]
    lists += [members[:replace] + (m,) + members[replace + 1 :] for m in extra]
    return [Certificate(cert.builder, cert.comb, tuple(ms), cert.orientation) for ms in lists]


def _assert_same_report(instance, cert):
    report, reference = verify(instance, cert), oracles.verify(instance, cert)
    assert report.dominates == reference.dominates
    assert in_normal_form(report.slack) and report.slack == reference.slack
    assert list(report.edge_surplus.items()) == list(reference.edge_surplus.items())
    assert all(map(in_normal_form, report.edge_surplus.values()))
    assert report.problems == reference.problems
    return report


@pytest.mark.parametrize("n", range(3, 11))
def test_verify_matches_the_fraction_oracle(n):
    """`verify` gives the report of the Fraction-based checker it replaced,
    on builder output of every class and on broken certificates."""
    instance = BipartiteInstance.complete(n)
    rng = random.Random(1400 + n)
    built = broken = 0
    for family in FAMILIES:
        comb = sample_comb(rng, instance, family)
        for name in classify(instance, comb).builder_names():
            cert = BUILDERS[name](instance, comb)
            assert _assert_same_report(instance, cert).dominates
            built += 1
            for mutant in _mutants(instance, cert, rng):
                broken += not _assert_same_report(instance, mutant).dominates
    assert built >= 5
    assert broken >= 10 * built


def test_verify_and_the_oracle_refuse_the_same_invalid_comb(k44):
    comb = _smallest_l1_comb(k44)
    cert = build_l1(k44, comb)
    bad = Certificate(cert.builder, Comb(comb.hand, comb.teeth[:2]), cert.members, 1)
    with pytest.raises(InvalidCombError) as new:
        verify(k44, bad)
    with pytest.raises(InvalidCombError) as old:
        oracles.verify(k44, bad)
    assert str(new.value) == str(old.value)


def _with_edges_removed(n, rng, drop):
    """K_{n,n} less `drop` seeded edges."""
    full = BipartiteInstance.complete(n)
    gone = set(rng.sample(full.sorted_edges, drop))
    return BipartiteInstance(
        full.class1_labels, full.class2_labels, frozenset(full.edges - gone)
    )


def _sparse_instances():
    rng = random.Random(4242)
    for table in ((1,), (2, "corrected"), (2, "printed")):
        instance, _, comb = load_table(*table)
        yield instance, [comb]
    for n, drop in ((4, 3), (5, 6), (6, 9), (8, 20), (10, 30)):
        yield _with_edges_removed(n, rng, drop), []


@pytest.mark.parametrize("case", range(8))
def test_builders_and_verify_on_missing_edges_match_the_edge_oracle(case):
    """On the bundled table instances and on K_{n,n} with edges removed:
    every orientation's members, the builders' members and supports, and
    every report (of sound and of broken certificates) equal the
    `Edge`-based derivation and the Fraction checker."""
    instance, combs = list(_sparse_instances())[case]
    rng = random.Random(5100 + case)
    for family in FAMILIES:
        for _ in range(6):
            try:
                combs.append(sample_comb(rng, instance, family))
            except CombcertError:  # a table instance is too small for some families
                break
    missing = [
        Edge(a, b)
        for a in instance.class_vertices(CLASS1)
        for b in instance.class_vertices(CLASS2)
        if Edge(a, b) not in instance.edges
    ]
    assert missing
    built = broken = 0
    for comb in combs:
        for pat in comb.patterns if not validate_comb(instance, comb) else ():
            assert aggregation_members(instance, comb, pat) == oracles.aggregation_members(
                instance, comb, pat
            )
        for name in classify(instance, comb).builder_names():
            cert = BUILDERS[name](instance, comb)
            pat = comb.patterns[cert.orientation - 1]
            assert cert.members == oracles.aggregation_members(instance, comb, pat)[0]
            assert all(m.support <= instance.edges for m in cert.members)
            _assert_same_report(instance, cert)
            built += 1
            vertex = min(cert.comb.hand)
            absent = [e for e in missing if vertex in e]
            extra = CertificateMember(
                kind="degree", vertex=vertex, support=frozenset(absent[:1] + missing[-1:])
            )
            for mutant in _mutants(instance, cert, rng) + [
                Certificate(cert.builder, comb, cert.members + (extra,), cert.orientation)
            ]:
                broken += not _assert_same_report(instance, mutant).dominates
    assert built >= 2
    assert broken >= 10 * built
