"""The cut and tour kernels and the boundary through which callers reach them."""

import random
from fractions import Fraction

import combcert
from combcert import (
    BipartiteInstance,
    ConstraintKind,
    Edge,
    FractionalPoint,
    _kernels,
    check_point,
    comb_inequality,
    facet_test,
    is_implied,
    tours,
)
from combcert.constraints import scan_inputs
from combcert.search import sample_comb
from oracles import edmonds_karp_cut, expected_tour_count


def test_oversized_weights_stay_exact():
    # Weights beyond int64 must still give exact answers.
    huge = 1 << 70
    k22 = BipartiteInstance.complete(2)
    u0, u1, v0, v1 = k22.vertices()
    weights = {Edge(u0, v0): huge, Edge(u1, v1): huge + Fraction(1, 3)}
    report = check_point(k22, FractionalPoint(k22, weights))
    secs = {
        row.provenance: value
        for row, value in report.violations
        if row.kind is ConstraintKind.SUBTOUR_ELIM
    }
    assert secs == {
        "sec{u0,u1,v0}": huge,
        "sec{u0,v0,v1}": huge,
        "sec{u0,u1,v1}": huge + Fraction(1, 3),
        "sec{u1,v0,v1}": huge + Fraction(1, 3),
    }


def test_tour_kernel_returns_a_list_of_every_tour():
    # Layer tracing counts len(result) as the tours enumerated.
    for n in (2, 3, 4, 5):
        position = [[a * n + b for b in range(n)] for a in range(n)]
        tours = _kernels.hamiltonian_cycles(n, position)
        assert type(tours) is list
        assert len(tours) == expected_tour_count(n)
        assert all(len(set(t)) == 2 * n for t in tours)


def test_callers_reach_kernels_through_module_attributes(monkeypatch):
    # Layer tracing wraps the kernels where they are defined, so the
    # callers must look them up there at call time.
    calls = []

    def recording(name):
        kernel = getattr(_kernels, name)

        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    for name in ("violated_sets", "most_violated_set", "hamiltonian_cycles"):
        monkeypatch.setattr(_kernels, name, recording(name))

    instance = BipartiteInstance.complete(3)
    row = comb_inequality(instance, sample_comb(random.Random(1), instance, "l1"))
    tours._tour_set.cache_clear()  # so that the first query enumerates
    facet_test(instance, row)
    assert calls == ["hamiltonian_cycles"]
    # An equal instance, built apart, reads the kept tour set.
    facet_test(BipartiteInstance.complete(3), row)
    assert calls == ["hamiltonian_cycles"]

    check_point(instance, FractionalPoint(instance, {e: 1 for e in instance.edges}))
    assert calls == ["hamiltonian_cycles", "violated_sets"]

    is_implied(instance, row)
    assert calls[2:] and set(calls[2:]) == {"most_violated_set"}


def test_min_cut_matches_edmonds_karp():
    # Weights above D push a vertex's degree past 2 and give it a source
    # arc; negative weights are clipped.  Each network is cut between
    # random disjoint sets of several vertices, at limits of 0, the cut
    # value and above it.
    rng = random.Random(24)
    seen = {"source arcs": 0, "refused": 0, "zero cut": 0}
    for _ in range(400):
        n = rng.randint(2, 9)
        denom = rng.randint(1, 4)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        masks = [1 << u | 1 << v for u, v in pairs]
        weights = [rng.randint(-denom, 3 * denom) for _ in pairs]
        network = _kernels._network(n, masks, weights, denom)
        seen["source arcs"] += bool(network[3])
        for _ in range(3):
            order = rng.sample(range(n), n)
            split = rng.randint(1, n - 1)
            end = rng.randint(split + 1, n)
            sources = sum(1 << v for v in order[:split])
            sinks = sum(1 << v for v in order[split:end])
            cut, _ = edmonds_karp_cut(network, sources, sinks, 1 << 20)
            for limit in (0, cut, cut + 1, cut + rng.randint(2, 9)):
                found = _kernels._min_cut(network, sources, sinks, limit)
                assert found == edmonds_karp_cut(network, sources, sinks, limit)
                seen["refused"] += found is None
                seen["zero cut"] += found is not None and found[0] == 0
    assert all(seen.values()), seen


def test_most_violated_set_keeps_the_last_zero_cut():
    # Two weight-1 4-cycles both have f = 0.  The flow that finds the
    # first one sets the best to 0; the flow (u3 in, u0..u2 out) then has
    # max flow 0, so it makes no augmentation, is not refused at the
    # limit, and its set replaces the first.
    instance = BipartiteInstance.complete(6)
    u = [instance.vertex(f"u{i}") for i in range(6)]
    v = [instance.vertex(f"v{i}") for i in range(6)]
    weights = {Edge(u[0], v[0]): 1}
    for i in (1, 3):
        weights.update({Edge(a, b): 1 for a in u[i : i + 2] for b in v[i : i + 2]})
    masks, scaled, denom = scan_inputs(instance, FractionalPoint(instance, weights))
    mask = _kernels.most_violated_set(instance.num_vertices, masks, scaled, denom)
    assert instance.vertices_in(mask) == {u[3], u[4], v[3], v[4]}


def test_kernel_backend_is_pure():
    assert combcert.kernel_backend == "pure"
