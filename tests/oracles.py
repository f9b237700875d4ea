"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive and shares no code path with the
implementation: subset scans use Python sets, ranks use Fraction-based
Gaussian elimination, and LP optima come from enumerating candidate
vertices of the constraint system.  `VertexId` and `Edge` are the frozen
dataclass identities that `combcert.graph`'s tuple types replaced, kept
unchanged as their reference.  `verify` is the certificate checker that
`combcert.certificates.verify` replaced, kept unchanged with the member
check it calls: it builds every member's row and sums in `Fraction`.
`scan_sec_coeffs`, `scan_comb_coeffs` and `scan_set_weight` are the
vertex-set rules that `BipartiteInstance.edges_within` replaced, and
`fraction_condition_bound` the toothless-vertex bound that
`combs.twice_toothless_bound` replaced, each kept unchanged.
`fraction_audit_duality` is the `Fraction` duality audit that the
integer-scaled `combcert.lp._audit_duality` replaced, kept unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

CLASS1 = 1
CLASS2 = 2


@dataclass(frozen=True, order=True)
class VertexId:
    cls: int
    index: int

    def __post_init__(self):
        if self.cls not in (CLASS1, CLASS2):
            raise ValueError(f"vertex class must be 1 or 2, got {self.cls}")
        if self.index < 0:
            raise ValueError(f"vertex index must be nonnegative, got {self.index}")


@dataclass(frozen=True, order=True)
class Edge:
    """Unordered bipartite edge; `u` is the class-1 endpoint after normalization."""

    u: VertexId
    v: VertexId

    def __post_init__(self):
        u, v = self.u, self.v
        if u.cls == CLASS2 and v.cls == CLASS1:
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)
        elif u.cls == v.cls:
            raise ValueError(f"edge endpoints must lie in opposite classes: {u}, {v}")

    def endpoints(self) -> tuple[VertexId, VertexId]:
        return (self.u, self.v)

    def touches(self, vertex: VertexId) -> bool:
        return self.u == vertex or self.v == vertex


def naive_sec_violations(instance, point, lo, hi):
    """(subset, value) for every violated subtour bound, via set arithmetic."""
    out = []
    weights = list(point.items())
    for size in range(lo, hi + 1):
        for combo in itertools.combinations(list(instance.vertices()), size):
            sset = set(combo)
            value = sum(
                (w for e, w in weights if e.u in sset and e.v in sset), Fraction(0)
            )
            if value > size - 1:
                out.append((frozenset(sset), value))
    return out


def subset_count(n, lo, hi):
    """Number of subsets of an n-set with sizes in [lo, hi], by enumeration."""
    return sum(1 for size in range(lo, hi + 1) for _ in itertools.combinations(range(n), size))


def naive_comb_lhs(point, comb):
    """x(H) + sum x(T_i) recomputed from per-edge coefficient counting."""
    total = Fraction(0)
    for e, w in point.items():
        coeff = 0
        if e.u in comb.hand and e.v in comb.hand:
            coeff += 1
        for tooth in comb.teeth:
            if e.u in tooth and e.v in tooth:
                coeff += 1
        total += coeff * w
    return total


def scan_sec_coeffs(instance, subset):
    """A subtour row's coefficients: every instance edge tested against the set."""
    vset = frozenset(subset)
    for v in vset:
        instance.require_vertex(v)
    return {e: 1 for e in instance.edges if e.u in vset and e.v in vset}


def scan_comb_coeffs(instance, comb):
    """A comb row's coefficients: every instance edge tested against every part."""
    coeffs: dict = {}
    for e in instance.edges:
        c = 0
        if e.u in comb.hand and e.v in comb.hand:
            c += 1
        for tooth in comb.teeth:
            if e.u in tooth and e.v in tooth:
                c += 1
        if c:
            coeffs[e] = c
    return coeffs


def scan_set_weight(point, vertices):
    """Total weight of the edges with both endpoints in `vertices`."""
    vset = frozenset(vertices)
    for v in vset:
        point.instance.require_vertex(v)
    total = Fraction(0)
    for e, w in point.items():
        if e.u in vset and e.v in vset:
            total += w
    return total


def fraction_condition_bound(y, p, q, trailing_r):
    """Right side of the toothless-vertex condition, kept as a rational."""
    return Fraction(y) + Fraction(q - (p + 1), 2) + trailing_r


def set_based_flags(comb):
    """The five hypothesis flags by set arithmetic on the comb.

    These are the flag computations `combs.classify` made before the
    classes became predicates over intersection patterns.  The counts p, q,
    w, y and sum_{i>p} r_i that two of them need are taken from the sets
    here as well, so nothing is shared with `combs._pattern`.
    """
    toothed = frozenset().union(*comb.teeth)
    single = all(len(comb.hand & tooth) == 1 for tooth in comb.teeth)
    all_toothed = comb.hand <= toothed
    one_class = all(
        len({v.cls for v in comb.hand & tooth}) == 1 for tooth in comb.teeth
    )
    minority, slack = [], []
    for cls_one in (1, 2):
        h1 = frozenset(v for v in comb.hand if v.cls == cls_one)
        h2 = comb.hand - h1
        p = sum(1 for tooth in comb.teeth if tooth & h1)
        q = len(comb.teeth) - p
        trailing_r = sum(len(tooth & h2) - 1 for tooth in comb.teeth if not tooth & h1)
        w, y = len(h1 - toothed), len(h2 - toothed)
        minority.append(p < q)
        slack.append(w <= y + Fraction(q - (p + 1), 2) + trailing_r)
    return {
        "single_all_toothed": single and all_toothed,
        "single": single,
        "sorted_minority": all_toothed and any(minority),
        "counted_slack": any(slack),
        "one_class_per_tooth": one_class,
    }


def is_hamiltonian_cycle(instance, tour):
    """Alternation, full coverage, adjacency, and closure, checked directly."""
    seq = tour.vertices
    if len(seq) != instance.num_vertices or len(set(seq)) != len(seq):
        return False
    for k, v in enumerate(seq):
        expected_cls = 1 if k % 2 == 0 else 2
        if v.cls != expected_cls:
            return False
    for k in range(len(seq)):
        a, b = seq[k], seq[(k + 1) % len(seq)]
        if not instance.has_edge(a, b):
            return False
    return True


def nested_generator_edge_tours(instance):
    """Every tour as a tuple of indices into ``sorted(instance.edges)``, by
    the nested-generator search and per-tour mapping that the single-frame
    `_kernels.hamiltonian_cycles` replaced, both kept unchanged as its
    reference: entry 2k of a tour is the edge a_k b_k and entry 2k + 1 the
    edge b_k a_{k+1} of the search's vertex sequence.
    """

    def hamiltonian_cycles(
        n: int, adj12: list[int], adj21: list[int]
    ) -> list[tuple[int, ...]]:
        """Canonical Hamiltonian cycles of a balanced bipartite graph.

        adj12[i] is the bitmask of class-2 neighbours of class-1 vertex i;
        adj21[j] likewise for class-2 vertex j.  Returns alternating index
        sequences (a0=0, b0, a1, b1, ..., b_{n-1}); each undirected cycle
        appears exactly once, in the direction with b0 < b_{n-1}.
        """
        if n < 2:
            return []
        seq = [0] * (2 * n)

        def extend(depth: int, used1: int, used2: int):
            # Even depth: place a class-2 vertex after seq[depth - 1] (class 1).
            if depth == 2 * n - 1:
                last_candidates = adj12[seq[depth - 1]] & ~used2 & adj21_back
                b = 0
                mask = last_candidates
                while mask:
                    low = mask & -mask
                    b = low.bit_length() - 1
                    if seq[1] < b:
                        seq[depth] = b
                        yield tuple(seq)
                    mask ^= low
                return
            if depth % 2 == 1:
                candidates = adj12[seq[depth - 1]] & ~used2
                mask = candidates
                while mask:
                    low = mask & -mask
                    b = low.bit_length() - 1
                    seq[depth] = b
                    yield from extend(depth + 1, used1, used2 | low)
                    mask ^= low
            else:
                candidates = adj21[seq[depth - 1]] & ~used1
                mask = candidates
                while mask:
                    low = mask & -mask
                    a = low.bit_length() - 1
                    seq[depth] = a
                    yield from extend(depth + 1, used1 | low, used2)
                    mask ^= low

        # Precompute which class-2 vertices can close the cycle back to vertex 0.
        adj21_back = 0
        for j in range(n):
            if adj21[j] & 1:
                adj21_back |= 1 << j
        return list(extend(1, 1, 0))

    if not instance.tours_possible:
        return []
    n = instance.n1
    edges = sorted(instance.edges)
    adj12 = [0] * n
    adj21 = [0] * n
    position = [[-1] * n for _ in range(n)]  # [a][b] -> index of edge a b
    for k, e in enumerate(edges):
        a, b = e.u.index, e.v.index
        adj12[a] |= 1 << b
        adj21[b] |= 1 << a
        position[a][b] = k
    out = []
    for seq in hamiltonian_cycles(n, adj12, adj21):
        rows = [position[a] for a in seq[0::2]]
        out.append(
            tuple(
                k
                for here, after, b in zip(rows, rows[1:] + rows[:1], seq[1::2])
                for k in (here[b], after[b])
            )
        )
    return out


def fraction_rank(rows):
    """Rank over the rationals by plain Gaussian elimination."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for i in range(pivot_row, len(matrix)):
            if matrix[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
        pr = matrix[pivot_row]
        inv = Fraction(1) / pr[col]
        matrix[pivot_row] = [v * inv for v in pr]
        for i in range(len(matrix)):
            if i != pivot_row and matrix[i][col] != 0:
                f = matrix[i][col]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def _solve_square(rows, rhs):
    n = len(rhs)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def vertex_enumeration_max(n_vars, constraints, objective):
    """Max of objective over {0 <= x <= 1, constraints}; None if infeasible.

    `constraints` are (coeff_vector, rhs, is_equality) triples.  Candidate
    vertices come from every choice of n_vars constraints (including box
    rows) solved as equalities; each candidate is kept only if it
    satisfies everything.
    """
    rows = list(constraints)
    for j in range(n_vars):
        unit = [Fraction(0)] * n_vars
        unit[j] = Fraction(1)
        rows.append((unit, Fraction(1), False))
        neg = [Fraction(0)] * n_vars
        neg[j] = Fraction(-1)
        rows.append((neg, Fraction(0), False))
    best = None
    for combo in itertools.combinations(range(len(rows)), n_vars):
        x = _solve_square([rows[i][0] for i in combo], [rows[i][1] for i in combo])
        if x is None:
            continue
        feasible = True
        for vec, rhs, is_eq in rows:
            value = sum((v * xi for v, xi in zip(vec, x)), Fraction(0))
            if (is_eq and value != rhs) or (not is_eq and value > rhs):
                feasible = False
                break
        if feasible:
            value = sum((c * xi for c, xi in zip(objective, x)), Fraction(0))
            if best is None or value > best:
                best = value
    return best


def tour_affine_rank(instance, tours):
    """Affine rank of the tours' unit points: `fraction_rank` of differences."""
    edges = sorted(instance.edges)
    rows = [[t.as_point(instance).weight(e) for e in edges] for t in tours]
    return fraction_rank([[a - b for a, b in zip(row, rows[0])] for row in rows[1:]])


def facet_report_oracle(instance, ineq, tours, polytope_dim):
    """The facet report, spelled as `FacetReport.as_dict`, from `value_on`
    at each tour's point and `tour_affine_rank` over the tight tours.

    `polytope_dim` is `tour_affine_rank` over all tours, passed in so that
    callers with many rows compute it once.
    """
    values = [ineq.value_on(t.as_point(instance)) for t in tours]
    if ineq.is_equality:
        valid = all(v == ineq.rhs for v in values)
    else:
        valid = all(v <= ineq.rhs for v in values)
    tight = [t for t, v in zip(tours, values) if v == ineq.rhs]
    if not valid or not tight:
        verdict = "not_valid" if not valid else "not_supporting"
        return {
            "polytope_dim": polytope_dim,
            "tight_tour_count": 0,
            "tight_face_dim": -1,
            "verdict": verdict,
        }
    tight_dim = tour_affine_rank(instance, tight)
    return {
        "polytope_dim": polytope_dim,
        "tight_tour_count": len(tight),
        "tight_face_dim": tight_dim,
        "verdict": "facet" if tight_dim == polytope_dim - 1 else "supporting_non_facet",
    }


def _validate_member(instance, idx, member):
    problems = []
    if member.kind == "degree":
        if member.vertex is None or not instance.contains(member.vertex):
            problems.append(f"member {idx}: degree member without a valid vertex")
            return problems
        incident = set(instance.incident(member.vertex))
        for e in sorted(member.support):
            if e not in instance.edges:
                problems.append(f"member {idx}: support edge {e} not in the instance")
            elif e not in incident:
                problems.append(
                    f"member {idx}: support edge {e} not incident to "
                    f"{instance.label(member.vertex)}"
                )
    elif member.kind == "sec":
        if not member.vertex_set:
            problems.append(f"member {idx}: empty vertex set")
        for v in sorted(member.vertex_set):
            if not instance.contains(v):
                problems.append(f"member {idx}: unknown vertex {v}")
    else:
        problems.append(f"member {idx}: unknown member kind {member.kind!r}")
    return problems


def verify(instance, certificate):
    """Recompute everything from scratch and check domination.

    Nothing builder-side is trusted: member rows are re-derived from their
    structural identity, the per-edge sums and aggregate rhs are recomputed,
    and the target comb row is rebuilt (and the comb validated) from the comb.
    """
    from combcert.certificates import CertificateReport, member_inequality
    from combcert.combs import comb_inequality

    target = comb_inequality(instance, certificate.comb)

    problems = []
    agg_coeffs = {}
    agg_rhs = Fraction(0)
    for idx, member in enumerate(certificate.members):
        member_problems = _validate_member(instance, idx, member)
        problems.extend(member_problems)
        if member_problems:
            continue
        row = member_inequality(instance, member)
        agg_rhs += row.rhs
        for e, c in row.coeffs.items():
            agg_coeffs[e] = agg_coeffs.get(e, Fraction(0)) + c

    surplus = {}
    for e in sorted(set(agg_coeffs) | set(target.coeffs)):
        surplus[e] = agg_coeffs.get(e, Fraction(0)) - target.coeffs.get(
            e, Fraction(0)
        )
    slack = target.rhs - agg_rhs

    for e, gap in surplus.items():
        if gap < 0:
            problems.append(
                f"edge {instance.edge_label(e)} under-covered: "
                f"aggregate {agg_coeffs.get(e, 0)} < target {target.coeffs[e]}"
            )
    if slack < 0:
        problems.append(f"aggregate rhs exceeds target rhs by {-slack}")

    dominates = not problems
    return CertificateReport(
        dominates=dominates,
        slack=slack,
        edge_surplus=surplus,
        problems=tuple(problems),
    )


def fraction_audit_duality(rows, variables, objective, optimum, dual) -> None:
    """Strong-duality audit from scratch; failure means a solver bug.

    Reads only the original rows, the dual and the objective.  Work is
    proportional to the nonzeros of the rows with a nonzero multiplier,
    plus one comparison per variable.
    """
    from combcert.errors import CombcertError

    if len(dual) != len(rows):
        raise CombcertError("dual vector length mismatch")
    combined = {}
    total = Fraction(0)
    for y, row in zip(dual, rows):
        if not y:
            continue
        if not row.is_equality and y < 0:
            raise CombcertError(f"negative dual multiplier on {row.provenance}")
        for e, c in row.coeffs.items():
            combined[e] = combined.get(e, 0) + y * c
        total += y * row.rhs
    for e in variables:
        if combined.get(e, 0) < Fraction(objective.get(e, 0)):
            raise CombcertError(f"dual infeasible at variable {e}")
    if total != optimum:
        raise CombcertError("dual objective does not match the optimum")
