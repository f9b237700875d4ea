"""The enumeration kernels and the boundary through which callers reach them."""

import random

import combcert
from combcert import (
    BipartiteInstance,
    FractionalPoint,
    _kernels,
    check_point,
    comb_inequality,
    expected_tour_count,
    facet_test,
)
from combcert.search import sample_comb


def _random_scan_case(rng):
    nv = rng.randint(2, 11)
    edges = []
    for _ in range(rng.randint(0, min(24, nv * nv))):
        i, j = rng.sample(range(nv), 2)
        edges.append(((1 << i) | (1 << j), rng.randint(-4, 9)))
    lo = rng.randint(1, nv - 1)
    hi = rng.randint(lo, nv - 1)
    denom = rng.randint(1, 8)
    return nv, [m for m, _ in edges], [w for _, w in edges], denom, lo, hi


def test_oversized_weights_stay_exact():
    # Weights beyond int64 must still give exact answers.
    huge = 1 << 70
    nv = 4
    masks = [0b0011, 0b1100]
    out = _kernels.sec_violations(nv, masks, [huge, huge], 1, 2, 3)
    assert (0b0011, huge) in out


def test_scan_output_is_sorted():
    rng = random.Random(303)
    nv, masks, weights, denom, lo, hi = _random_scan_case(rng)
    out = _kernels.sec_violations(nv, masks, weights, denom, lo, hi)
    keys = [(bin(m).count("1"), m) for m, _ in out]
    assert keys == sorted(keys)


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

    for name in ("sec_violations", "hamiltonian_cycles"):
        monkeypatch.setattr(_kernels, name, recording(name))

    instance = BipartiteInstance.complete(3)
    row = comb_inequality(instance, sample_comb(random.Random(1), instance, "l1"))
    facet_test(instance, row)
    assert calls == ["hamiltonian_cycles"]

    check_point(instance, FractionalPoint(instance, {e: 1 for e in instance.edges}))
    assert calls == ["hamiltonian_cycles", "sec_violations"]


def test_kernel_backend_is_pure():
    assert combcert.kernel_backend == "pure"
