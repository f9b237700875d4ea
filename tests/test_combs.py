import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from combcert import (
    BipartiteInstance,
    Comb,
    FractionalPoint,
    InvalidCombError,
    classify,
    comb_inequality,
    comb_value,
    validate_comb,
)
from combcert.combs import _pattern, twice_toothless_bound
from combcert.graph import CLASS1, CLASS2, VertexId
from combcert.search import FAMILIES, sample_comb
import oracles
from oracles import fraction_condition_bound, in_normal_form, naive_comb_lhs, set_based_flags


def _labels(instance, *names):
    return frozenset(instance.vertex(x) for x in names)


def test_table1_comb_valid(table1):
    instance, _, comb = table1
    assert validate_comb(instance, comb) == []


def test_even_tooth_count_rejected(table1):
    instance, _, comb = table1
    bad = Comb(comb.hand, comb.teeth[:2])
    problems = validate_comb(instance, bad)
    assert any("odd" in p for p in problems)


def test_overlapping_teeth_rejected(table1):
    instance, _, comb = table1
    g = instance.vertex("g")
    bad = Comb(comb.hand, (comb.teeth[0] | {g}, comb.teeth[1], comb.teeth[2]))
    problems = validate_comb(instance, bad)
    assert any("not disjoint" in p for p in problems)


def test_tooth_missing_hand_rejected(table2):
    instance, _, comb = table2
    # Dropping e from the hand leaves tooth 3 = {h, e} hanging free.
    bad = Comb(comb.hand - _labels(instance, "e"), comb.teeth)
    problems = validate_comb(instance, bad)
    assert any("does not meet the hand" in p for p in problems)
    with pytest.raises(InvalidCombError):
        comb_inequality(instance, bad)


def test_tooth_inside_hand_rejected(table1):
    instance, _, comb = table1
    swallowed = Comb(comb.hand | comb.teeth[0], comb.teeth)
    problems = validate_comb(instance, swallowed)
    assert any("outside the hand" in p for p in problems)


def test_comb_rhs_table1(table1):
    instance, _, comb = table1
    assert comb_inequality(instance, comb).rhs == 4 + (2 + 4 + 2) - 5 == 7


def test_comb_rhs_table2(table2):
    instance, _, comb = table2
    assert comb_inequality(instance, comb).rhs == 5 + (4 + 2 + 2) - 5 == 8


def test_comb_rhs_integral_for_odd_t():
    assert (3 * 3 + 1) // 2 == 5
    assert (3 * 3 + 1) % 2 == 0


def test_comb_coefficients_in_one_two(table1, table2):
    for instance, _, comb in (table1, table2):
        row = comb_inequality(instance, comb)
        assert set(row.coeffs.values()) <= {1, 2}
        for e, c in row.coeffs.items():
            if c == 2:
                inside = [
                    tooth
                    for tooth in comb.teeth
                    if e.u in tooth and e.v in tooth
                ]
                assert len(inside) == 1
                assert e.u in comb.hand and e.v in comb.hand


def test_comb_value_matches_coefficient_route(table1, table2):
    k44 = BipartiteInstance.complete(4)
    halves = FractionalPoint(k44, dict.fromkeys(k44.edges, Fraction(1, 2)))
    rng = random.Random(11)
    cases = [table1, table2] + [
        (k44, halves, sample_comb(rng, k44, family)) for family in FAMILIES * 2
    ]
    kinds = set()
    for instance, point, comb in cases:
        value = comb_value(point, comb)
        assert value == naive_comb_lhs(point, comb)
        assert in_normal_form(value)
        kinds.add(type(value))
    assert kinds == {int, Fraction}  # integral sums of halves come back as ints


def _hand_size(pat):
    """|H| as the pattern counts it: toothless vertices plus each tooth's
    hand part, 1 + s_i and r_i (i <= p) or 1 + r_i (i > p)."""
    return (
        pat.w
        + pat.y
        + sum(1 + si for si in pat.s)
        + sum(pat.r[: pat.p])
        + sum(1 + ri for ri in pat.r[pat.p :])
    )


def test_pattern_table2(table2):
    instance, _, comb = table2
    pat = classify(instance, comb).patterns[0]
    assert (pat.p, pat.q) == (1, 2)
    assert pat.s == (0,)
    assert pat.r == (1, 0, 0)
    assert (pat.w, pat.y) == (1, 0)
    assert _hand_size(pat) == len(comb.hand) == 5


def test_pattern_table1(table1):
    instance, _, comb = table1
    pat, pat2 = classify(instance, comb).patterns
    assert (pat.p, pat.q) == (2, 1)
    assert (pat.w, pat.y) == (0, 0)
    assert (pat2.p, pat2.q) == (2, 1)  # one tooth meets both classes


def test_pattern_single_intersections_zero_counts(k44):
    comb = Comb(
        frozenset(
            {k44.vertex("u0"), k44.vertex("v0"), k44.vertex("v1")}
        ),
        (
            _labels(k44, "u0", "v2"),
            _labels(k44, "v0", "u1"),
            _labels(k44, "v1", "u2"),
        ),
    )
    pat = classify(k44, comb).patterns[0]
    assert pat.s == (0,) * pat.p
    assert all(r == 0 for r in pat.r)


def test_classify_table2_condition_fails_both(table2):
    instance, _, comb = table2
    flags = classify(instance, comb)
    assert [pat.condition_holds() for pat in flags.patterns] == [False, False]
    assert flags.patterns[0].w == 1
    assert flags.patterns[0].condition_bound() == 0
    assert flags.builder_names() == ()


def test_classify_table1_nothing_applies(table1):
    instance, _, comb = table1
    assert classify(instance, comb).builder_names() == ()


def test_classify_single_all_toothed_subsumption(k44):
    comb = Comb(
        _labels(k44, "u0", "v0", "v1"),
        (
            _labels(k44, "u0", "v2"),
            _labels(k44, "v0", "u1"),
            _labels(k44, "v1", "u2"),
        ),
    )
    flags = classify(k44, comb).as_dict()
    assert flags["single_all_toothed"] and flags["single"]


def _pattern_pairs(pat):
    """Original tooth index -> (|H^1 n T|, |H^2 n T|) as the pattern sees it."""
    pairs = {}
    for pos, orig in enumerate(pat.tooth_order):
        if pos < pat.p:
            pairs[orig] = (1 + pat.s[pos], pat.r[pos])
        else:
            pairs[orig] = (0, 1 + pat.r[pos])
    return pairs


def test_swap_equivariance_and_hand_identity():
    rng = random.Random(31)
    for n in (4, 5):
        instance = BipartiteInstance.complete(n)
        for k in range(40):
            family = FAMILIES[k % len(FAMILIES)]
            comb = sample_comb(rng, instance, family)
            pat1, pat2 = classify(instance, comb).patterns
            assert (pat1.w, pat1.y) == (pat2.y, pat2.w)
            assert (pat1.h1, pat1.h2) == (pat2.h2, pat2.h1)
            assert pat1.h1 | pat1.h2 == comb.hand
            assert _hand_size(pat1) == len(comb.hand) == _hand_size(pat2)
            pairs1 = _pattern_pairs(pat1)
            pairs2 = _pattern_pairs(pat2)
            for orig in range(comb.t):
                h1, h2 = pairs1[orig]
                assert pairs2[orig] == (h2, h1)
            if classify(instance, comb).as_dict()["one_class_per_tooth"]:
                # With single-class teeth the counts and vector roles swap.
                assert (pat1.p, pat1.q) == (pat2.q, pat2.p)
                assert sorted(pat1.s) == sorted(pat2.r[pat2.p:])
                assert sorted(pat2.s) == sorted(pat1.r[pat1.p:])


def test_hypothesis_hierarchy_on_random_combs():
    rng = random.Random(57)
    for n in (4, 5, 6):
        instance = BipartiteInstance.complete(n)
        for k in range(60):
            family = FAMILIES[k % len(FAMILIES)]
            comb = sample_comb(rng, instance, family)
            flags = classify(instance, comb).as_dict()
            if flags["single_all_toothed"]:
                assert flags["single"]
                assert flags["sorted_minority"]
            if flags["single"]:
                assert flags["one_class_per_tooth"]
            if flags["sorted_minority"]:
                assert flags["counted_slack"]
            if flags["one_class_per_tooth"]:
                assert flags["counted_slack"]


def test_classify_hands_over_both_extracted_patterns():
    rng = random.Random(73)
    for n in (4, 5, 6):
        instance = BipartiteInstance.complete(n)
        for k in range(10 * len(FAMILIES)):
            comb = sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)])
            assert classify(instance, comb).patterns == (
                _pattern(comb, swap_classes=False),
                _pattern(comb, swap_classes=True),
            )


def _random_valid_comb(rng, instance):
    """A comb of t = 3 or 5 disjoint teeth of 2-4 vertices, each split at
    random between the hand and the outside, plus random toothless hand
    vertices: valid by construction, with no family's recipe behind it."""
    vertices = list(instance.vertices())
    rng.shuffle(vertices)
    while True:
        sizes = [rng.randint(2, 4) for _ in range(rng.choice((3, 5)))]
        if sum(sizes) <= len(vertices):
            break
    hand, teeth, start = set(), [], 0
    for size in sizes:
        tooth = vertices[start : start + size]
        start += size
        teeth.append(frozenset(tooth))
        hand.update(rng.sample(tooth, rng.randint(1, size - 1)))
    hand.update(v for v in vertices[start:] if rng.random() < 0.3)
    return Comb(frozenset(hand), tuple(teeth))


def _oracle_pool():
    rng = random.Random(91)
    for n in (3, 4, 5, 6, 8):
        instance = BipartiteInstance.complete(n)
        for k in range(30 * len(FAMILIES)):
            yield instance, sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)])
        for _ in range(60):
            yield instance, _random_valid_comb(rng, instance)


def test_flags_match_the_set_based_oracle():
    seen = set()
    for instance, comb in _oracle_pool():
        assert validate_comb(instance, comb) == []
        document = classify(instance, comb).as_dict()
        expected = set_based_flags(comb)
        assert {flag: document[flag] for flag in expected} == expected
        seen.add(tuple(expected.values()))
    assert len(seen) == 7  # every combination that the hierarchy allows


def test_toothless_condition_matches_the_fraction_formula():
    seen = set()
    for instance, comb in _oracle_pool():
        for pat in classify(instance, comb).patterns:
            bound = fraction_condition_bound(pat.y, pat.p, pat.q, sum(pat.r[pat.p:]))
            assert pat.condition_bound() == bound
            assert in_normal_form(pat.condition_bound())
            assert pat.condition_holds() == (pat.w <= bound)
            seen.add((pat.p >= pat.q, bound < 0, pat.condition_holds()))
    assert (True, True, False) in seen  # p >= q with a negative bound
    assert (False, False, True) in seen


def test_the_sampler_weight_cap_is_the_rational_bound_truncated():
    # `search._attempt` caps w at twice // 2, which must be int(bound) for the
    # sampler's draws (pinned by the golden files) to stay the same.
    for y, p, q, trailing_r in itertools.product(range(3), range(1, 4), range(1, 6), range(4)):
        bound = fraction_condition_bound(y, p, q, trailing_r)
        twice = twice_toothless_bound(y, p, q, trailing_r)
        assert twice == 2 * bound
        assert (twice >= 0) == (bound >= 0)
        if twice >= 0:
            assert twice // 2 == int(bound)


def test_combs_imports_nothing_from_certificates():
    import combcert.combs

    tree = ast.parse(Path(combcert.combs.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = {alias.name for alias in node.names}
            assert module not in (".certificates", "combcert.certificates")
            assert not (module in (".", "combcert") and "certificates" in names)
        elif isinstance(node, ast.Import):
            assert all(
                alias.name != "combcert.certificates" for alias in node.names
            )


def _broken_combs(rng, instance, comb):
    """Seeded invalid variants of a valid comb, one per rule, and one that
    breaks several rules at once (its messages must keep their order)."""
    hand, teeth = comb.hand, comb.teeth
    outside = VertexId(rng.choice((CLASS1, CLASS2)), max(instance.n1, instance.n2) + rng.randrange(3))
    grown = rng.randrange(len(teeth))
    return {
        "outside vertex": Comb(hand, teeth[:grown] + (teeth[grown] | {outside},) + teeth[grown + 1 :]),
        "outside hand vertex": Comb(hand | {outside}, teeth),
        "t even": Comb(hand, teeth[:2]),
        "t = 1": Comb(hand, teeth[:1]),
        "tooth misses the hand": Comb(hand - teeth[grown], teeth),
        "tooth inside the hand": Comb(hand | teeth[grown], teeth),
        "overlapping teeth": Comb(hand, (teeth[0] | teeth[1],) + teeth[1:]),
        "several": Comb(hand - teeth[0], (teeth[0] | teeth[-1], teeth[-1] | teeth[1])),
    }


def test_validate_comb_matches_the_oracle_on_valid_and_broken_combs():
    """`validate_comb` gives the problems of the check it replaced, in the
    same order, on every call: a comb keeps only its structural verdict."""
    rng = random.Random(2207)
    seen = set()
    for instance, comb in _oracle_pool():
        fresh = Comb(comb.hand, comb.teeth)
        assert validate_comb(instance, fresh) == oracles.validate_comb(instance, fresh) == []
        for kind, bad in _broken_combs(rng, instance, comb).items():
            expected = oracles.validate_comb(instance, bad)
            assert expected, kind
            assert validate_comb(instance, bad) == expected, kind
            assert validate_comb(instance, bad) == expected, kind  # the kept verdict
            seen.add(kind)
            seen.update(p.split(" ")[0] for p in expected)
    assert {"vertex", "t", "tooth", "teeth", "several", "t = 1"} <= seen


def test_a_comb_validated_on_two_instances_keeps_no_instance_answer():
    """One comb object checked against K_{10,10}, then K_{3,3}, then
    K_{10,10} again, and against a relabelled K_{10,10}: each answer is the
    oracle's for that instance, labels included."""
    big, small = BipartiteInstance.complete(10), BipartiteInstance.complete(3)
    relabelled = BipartiteInstance(
        tuple(f"a{i}" for i in range(10)), tuple(f"b{j}" for j in range(10)), big.edges
    )
    rng = random.Random(3310)
    combs = [sample_comb(rng, big, family) for family in FAMILIES]
    combs += [bad for comb in combs for bad in _broken_combs(rng, big, comb).values()]
    outside_small = 0
    for comb in combs:
        answers = []
        for instance in (big, small, big, relabelled):
            answers.append(validate_comb(instance, comb))
            assert answers[-1] == oracles.validate_comb(instance, comb)
        assert answers[0] == answers[2]
        outside_small += answers[0] == [] and answers[1] != []
        if any("disjoint" in p for p in answers[0]):
            assert answers[3] != answers[0]  # the overlap is told in each instance's labels
    assert outside_small >= len(FAMILIES)
