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
from combcert.search import sample_comb
from oracles import expected_tour_count


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


def test_kernel_backend_is_pure():
    assert combcert.kernel_backend == "pure"
