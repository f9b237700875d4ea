"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately naive and shares no code path with the
implementation: subset scans use Python sets, ranks use Fraction-based
Gaussian elimination, and LP optima come from enumerating candidate
vertices of the constraint system.  `VertexId` and `Edge` are the frozen
dataclass identities that `combcert.graph`'s tuple types replaced, kept
unchanged as their reference.  `verify` is the certificate checker that
`combcert.certificates.verify` replaced, kept with the member check it
calls: it builds every member's row by `member_inequality`, a sec
member's edges by `scan_sec_coeffs` (not the package's `sec_constraint`),
and sums in `Fraction`.
`with_weight` is a point with one weight changed, the tests' one way to
perturb a point.
`scan_sec_coeffs`, `scan_comb_coeffs` and `scan_set_weight` are the
vertex-set rules that `BipartiteInstance.edges_within` replaced, and
`fraction_condition_bound` the toothless-vertex bound that
`combs.twice_toothless_bound` replaced, each kept unchanged.
`fraction_audit_duality` is the `Fraction` duality audit that the
integer-scaled `combcert.lp._audit_duality` replaced, kept unchanged.
`in_normal_form` is the package's one number form, checked by type
alone: the assertion every test of a value's form shares.
`validate_comb` is the comb check that `combcert.combs.validate_comb`
replaced, which asked the instance about every vertex and re-checked
every rule on every call; `aggregation_members` is the member recipe
that `combcert.certificates.aggregation_members` replaced, which built
each degree member's support as `Edge(vertex, u)` per partner u and
tested it against `instance.edges`.  Both are kept unchanged.
A tour is handled as the package keeps it, a tuple of indices into
`instance.sorted_edges`; `tour_point` is its unit point, and
`expected_tour_count` the closed-form count of the tours of K_{n,n}.
`edmonds_karp_cut` is a textbook max flow with an explicit source and
sink, the reference for `combcert._kernels._min_cut`.
`full_scan_primal` and `full_scan_pivot` are the `lp._Tableau._primal`
and `_pivot` bodies that the gathered-column pivot replaced, kept
unchanged: each pivot looks its column up in every row, once in the
ratio test and once in the elimination.  They are methods to patch onto
`ExpandedTableau`; `full_scan_pivot` ignores the gathered column that the
current callers pass.
`ExpandedTableau` is the `lp._Tableau` that stored every box row, kept
unchanged but for its name: every x_e <= 1 row is a dict that each pivot
eliminates in, the reference for the tableau that derives the box rows
the identity x_e + s_e = 1 fixes.  `check_box_pairs` asserts the identity
on every box pair of either tableau, and on `lp._Tableau` the bookkeeping
of its derived rows; `expanded_rows` reads either as the expanded rows.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from combcert.constraints import upper_bound
from combcert.errors import CombcertError
from combcert.lp import INFEASIBLE, OPTIMAL, _subtract
from combcert.rational import normal

CLASS1 = 1
CLASS2 = 2


def in_normal_form(value) -> bool:
    """An int (not a bool) when integral, else a Fraction with denominator > 1."""
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator > 1


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


def with_weight(point, edge, weight):
    """A copy of `point` with one weight changed, built by the constructor."""
    from combcert import FractionalPoint

    return FractionalPoint(point.instance, {**dict(point.items()), edge: weight})


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


def expected_tour_count(n):
    """n! (n-1)! / 2 undirected tours on the complete K_{n,n} (n >= 2)."""
    if n < 2:
        return 0
    return factorial(n) * factorial(n - 1) // 2


def tour_point(instance, tour):
    """The unit point of a tour given as indices into `instance.sorted_edges`."""
    from combcert.graph import FractionalPoint

    edges = instance.sorted_edges
    return FractionalPoint(instance, {edges[k]: 1 for k in tour})


def is_hamiltonian_cycle(instance, tour):
    """Whether the edge-index tour walks through every vertex once and
    closes, each step along an edge of the instance, checked directly."""
    edges = [instance.sorted_edges[k] for k in tour]
    if len(edges) != instance.num_vertices or len(set(edges)) != len(edges):
        return False
    if any(e not in instance.edges for e in edges):
        return False
    shared = set(edges[-1]) & set(edges[0])
    if len(shared) != 1:
        return False
    here = shared.pop()
    seen = []
    for e in edges:
        if here not in e:
            return False
        seen.append(here)
        here = e.v if here == e.u else e.u
    return here == seen[0] and len(set(seen)) == instance.num_vertices


def nested_generator_edge_tours(instance):
    """Every tour as a tuple of indices into ``sorted(instance.edges)``, by
    a nested-generator search over vertex sequences and a per-tour mapping
    to edges, independent of `_kernels.hamiltonian_cycles` and kept as its
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


def edmonds_karp_cut(network, sources, sinks, limit):
    """`_kernels._min_cut` by the textbook Edmonds-Karp on a capacity matrix.

    `network` is a `_kernels._network` tuple.  Its vertices 0..N-1 get an
    explicit source s = N and sink t = N + 1.  Each edge uv is an arc
    each way, each vertex keeps its arcs to t and from s, and a vertex in
    `sources` (`sinks`) joins s (t) by an arc of capacity `limit` + 1.
    A cut through such an arc exceeds `limit`, so no cut below `limit`
    uses one.  Returns None once the flow reaches `limit` after an
    augmentation, and otherwise (max flow, mask of the vertices reachable
    from s in the residual graph).
    """
    adjacent, to_sink, from_source, _ = network
    n = len(adjacent)
    s, t = n, n + 1
    residual = [[0] * (n + 2) for _ in range(n + 2)]
    for u, arcs in enumerate(adjacent):
        for v, capacity in arcs.items():
            residual[u][v] += capacity
    for v in range(n):
        residual[v][t] += to_sink[v] + (limit + 1 if sinks >> v & 1 else 0)
        residual[s][v] += from_source[v] + (limit + 1 if sources >> v & 1 else 0)
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in range(n + 2):
                if v not in parent and residual[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow, sum(1 << v for v in parent if v < n)
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
        if flow >= limit:
            return None


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


def tour_affine_rank(edges, tours):
    """Affine rank of the edge-index tours' unit points over `edges` (an
    instance's `sorted_edges`): `fraction_rank` of differences."""
    rows = [[int(k in tour) for k in range(len(edges))] for tour in map(set, tours)]
    return fraction_rank([[a - b for a, b in zip(row, rows[0])] for row in rows[1:]])


def facet_report_oracle(instance, ineq, tours, polytope_dim):
    """The facet report, spelled as `FacetReport.as_dict`, from `value_on`
    at each edge-index tour's point and `tour_affine_rank` over the tight
    tours.

    `polytope_dim` is `tour_affine_rank` over all tours, passed in so that
    callers with many rows compute it once.
    """
    values = [ineq.value_on(tour_point(instance, t)) for t in tours]
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
    tight_dim = tour_affine_rank(instance.sorted_edges, tight)
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


def member_inequality(instance, member):
    """A certificate member's row: a degree member's `support` with rhs 2,
    a sec member's `scan_sec_coeffs` with rhs |S| - 1."""
    from combcert.constraints import ConstraintKind, LinearInequality

    if member.kind == "degree":
        label = instance.label(member.vertex)
        return LinearInequality(
            {e: 1 for e in member.support}, 2, ConstraintKind.DEGREE_LE2, f"deg[{label}]"
        )
    vset = member.vertex_set
    provenance = "sec{" + ",".join(instance.labels_of(vset)) + "}"
    return LinearInequality(
        scan_sec_coeffs(instance, vset), len(vset) - 1, ConstraintKind.SUBTOUR_ELIM, provenance
    )


def verify(instance, certificate):
    """Recompute everything from scratch and check domination.

    Nothing builder-side is trusted: member rows are re-derived from their
    structural identity, the per-edge sums and aggregate rhs are recomputed,
    and the target comb row is rebuilt (and the comb validated) from the comb.
    """
    from combcert.certificates import CertificateReport
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


def validate_comb(instance, comb):
    """Structural rule violations, empty when the comb is well formed."""
    problems = []
    for v in comb.hand | comb.toothed():
        if not instance.contains(v):
            problems.append(f"vertex {v} is not in the instance")
    if problems:
        return problems
    t = comb.t
    if t < 3 or t % 2 == 0:
        problems.append(f"t must be odd and >= 3, got {t}")
    for i, tooth in enumerate(comb.teeth):
        if not (comb.hand & tooth):
            problems.append(f"tooth {i + 1} does not meet the hand")
        if not (tooth - comb.hand):
            problems.append(f"tooth {i + 1} has no vertex outside the hand")
    for i in range(t):
        for j in range(i + 1, t):
            shared = comb.teeth[i] & comb.teeth[j]
            if shared:
                labels = ",".join(instance.labels_of(shared))
                problems.append(f"teeth {i + 1} and {j + 1} are not disjoint ({labels})")
    return problems


def _degree_member(instance, vertex, partners):
    from combcert import graph
    from combcert.certificates import CertificateMember

    support = frozenset(
        graph.Edge(vertex, u)
        for u in partners
        if u.cls != vertex.cls and graph.Edge(vertex, u) in instance.edges
    )
    return CertificateMember(kind="degree", vertex=vertex, support=support)


def aggregation_members(instance, comb, pattern):
    """The member recipe for one orientation, plus its aggregate rhs."""
    from combcert.certificates import CertificateMember, member_rhs

    h1, h2 = pattern.h1, pattern.h2
    toothed = comb.toothed()
    members = []
    for pos, ti in enumerate(pattern.tooth_order):
        tooth = comb.teeth[ti]
        if pos < pattern.p:
            for a in sorted(tooth & h1):
                members.append(_degree_member(instance, a, tooth | (h2 - tooth)))
            for b in sorted(tooth & h2):
                members.append(_degree_member(instance, b, tooth))
            members.append(CertificateMember(kind="sec", vertex_set=tooth - comb.hand))
        else:
            members.append(CertificateMember(kind="sec", vertex_set=tooth))
    for a in sorted(h1 - toothed):
        members.append(_degree_member(instance, a, h2))
    agg_rhs = sum(member_rhs(m) for m in members)
    return tuple(members), agg_rhs


def full_scan_pivot(self, r, j, column=None):
    from fractions import Fraction

    from combcert.lp import _subtract
    from combcert.rational import normal

    row = self.rows[r]
    pivot = row[j]
    if pivot != 1:
        inverse = -1 if pivot == -1 else Fraction(1, pivot)
        row = self.rows[r] = {k: normal(v * inverse) for k, v in row.items()}
        self.rhs[r] = normal(self.rhs[r] * inverse)
    b = self.rhs[r]
    for i, other in enumerate(self.rows):
        factor = other.get(j)
        if factor and i != r:
            _subtract(other, factor, row)
            self.rhs[i] = normal(self.rhs[i] - factor * b)
    factor = self.cbar.get(j)
    if factor:
        _subtract(self.cbar, factor, row)
    self.basis[r] = j


def full_scan_primal(self):
    """Primal simplex, Bland's rule, from a primal feasible basis."""
    from combcert.errors import CombcertError
    from combcert.lp import OPTIMAL

    while True:
        enter = min(
            (j for j, v in self.cbar.items() if v > 0 and j not in self.artificial),
            default=-1,
        )
        if enter < 0:
            return OPTIMAL
        leave = -1
        for i, row in enumerate(self.rows):
            a = row.get(enter, 0)
            if a > 0:
                if leave >= 0:
                    # rhs_i / a against rhs_leave / a_leave, both a > 0
                    diff = self.rhs[i] * self.rows[leave][enter] - self.rhs[leave] * a
                    if diff > 0 or (diff == 0 and self.basis[i] > self.basis[leave]):
                        continue
                leave = i
        if leave < 0:  # the box rows bound every column: a solver bug
            raise CombcertError(f"column {enter} is unbounded in a bounded tableau")
        self._pivot(leave, enter)


class ExpandedTableau:
    """Sparse exact simplex tableau over an instance's edges, x_e <= 1 included.

    Built from the given rows, each checked to name only instance edges,
    followed by one x_e <= 1 box row per edge (`instance.sorted_edges`),
    so every variable is bounded and no objective is unbounded.  `source`
    holds the `LinearInequality` of each row: the given rows, the box rows
    (at the positions `boxes`), then each cut `add_row` appends.  Phase 1
    reads no objective, so the constructor runs it once and keeps its
    outcome in `feasible`.  `copy` makes a tableau in the same state that
    shares nothing it changes, so one prepared tableau serves any number
    of objectives.

    Each row, and the reduced-cost row `cbar`, is a {column: value} dict
    of its nonzeros.  Every value is in the package's one form
    (`rational.normal`), the form `LinearInequality` stores its
    coefficients and rhs in, so a row's values enter the tableau as they
    are; pivots divide through `Fraction` only, so no float ever appears.
    Columns are the structurals 0..n-1 (the problem's
    variables), then one slack per inequality row, then one artificial per
    row that starts without an identity column (an equality, or a row
    negated for its negative rhs).  Artificials form a set and never enter
    the basis, so a slack appended later is eligible like any other.

    `run` prices out an objective and runs phase 2 by Bland's rule.  A
    pivot reads its entering column once (`_column`); the ratio test and
    the elimination read only the rows that hold it.
    `add_row` appends a <= row with a fresh slack column, reduces it
    against the current basis and restores primal feasibility by the dual
    simplex (Lemke, 1954) under Bland's rule: the leaving row is the
    negative-rhs row with the smallest basic column; the entering column
    attains the minimum ratio cbar_j / a_j over a_j < 0, ties to the
    smaller column.  The reduced costs never turn positive, so the result
    is optimal.

    The dual of row i is read off its identity column (its slack, or its
    artificial): y_i = -sign_i * cbar[column].  That covers the box rows
    as well, which are ordinary rows here.  A redundant row's artificial
    is basic, so it never enters `cbar`, and the row reads 0.
    `rows_and_duals` reads every row with its multiplier.
    """

    def __init__(self, instance: BipartiteInstance, rows: Iterable[LinearInequality]):
        given = list(rows)
        for row in given:
            for e in row.coeffs:
                if e not in instance.edges:
                    raise ValueError(f"row {row.provenance} names edge {e} outside the instance")
        self.variables = instance.sorted_edges
        self.column = {e: j for j, e in enumerate(self.variables)}
        self.source = given + [upper_bound(instance, e) for e in self.variables]
        self.boxes = slice(len(given), len(self.source))
        self.rows: list[dict] = []
        self.rhs: list = []
        self.basis: list[int] = []
        self.unit: list[tuple[int, int]] = []  # per row of `source`: (column, sign)
        self.artificial: set[int] = set()
        self.cbar: dict = {}
        col = len(self.variables)
        slacks = []
        for row in self.source:
            if row.is_equality:
                slacks.append(None)
            else:
                slacks.append(col)
                col += 1
        for row, slack in zip(self.source, slacks):
            sign = -1 if row.rhs < 0 else 1
            entries = {self.column[e]: c for e, c in row.coeffs.items()}
            if sign < 0:
                entries = {j: -v for j, v in entries.items()}
            unit = slack
            if slack is not None:
                entries[slack] = sign  # +1 slack, -1 surplus
            if slack is None or sign < 0:
                unit = col
                entries[col] = 1
                self.artificial.add(col)
                col += 1
            self.rows.append(entries)
            self.rhs.append(sign * row.rhs)
            self.basis.append(unit)
            self.unit.append((unit, sign))
        self.next_column = col
        # Phase 1: drive the artificials to 0 and out of the basis.
        self.feasible = True
        if self.artificial:
            self._price_out({col: -1 for col in self.artificial})
            self._primal()
            self.feasible = not any(
                self.rhs[i] for i, col in enumerate(self.basis) if col in self.artificial
            )
            if self.feasible:
                self._expel_artificials()

    def copy(self) -> ExpandedTableau:
        """A tableau in this state that shares nothing either one changes."""
        tableau = ExpandedTableau.__new__(ExpandedTableau)
        tableau.variables, tableau.column = self.variables, self.column
        tableau.artificial, tableau.boxes = self.artificial, self.boxes
        tableau.source = list(self.source)
        tableau.rows = [dict(row) for row in self.rows]
        tableau.rhs = list(self.rhs)
        tableau.basis = list(self.basis)
        tableau.unit = list(self.unit)
        tableau.cbar = dict(self.cbar)
        tableau.next_column = self.next_column
        tableau.feasible = self.feasible
        return tableau

    def run(self, objective: Mapping[Edge, int | Fraction]) -> str:
        """Phase 2 for `objective`, or INFEASIBLE if phase 1 found no point."""
        if not self.feasible:
            return INFEASIBLE
        self._price_out({self.column[e]: normal(c) for e, c in objective.items() if c})
        return self._primal()

    def add_row(self, row: LinearInequality) -> str:
        """Append a <= row to an optimal tableau and re-optimize."""
        entries = {self.column[e]: c for e, c in row.coeffs.items()}
        rhs = row.rhs
        for i, col in enumerate(self.basis):
            factor = entries.get(col)
            if factor:
                _subtract(entries, factor, self.rows[i])
                rhs = normal(rhs - factor * self.rhs[i])
        slack = self.next_column
        self.next_column += 1
        entries[slack] = 1
        self.rows.append(entries)
        self.rhs.append(rhs)
        self.basis.append(slack)
        self.unit.append((slack, 1))
        self.source.append(row)
        return self._dual()

    def _price_out(self, costs: dict) -> None:
        self.cbar = dict(costs)
        for i, col in enumerate(self.basis):
            cost = costs.get(col)
            if cost:
                _subtract(self.cbar, cost, self.rows[i])

    def _column(self, j: int) -> list[tuple[int, int | Fraction]]:
        """(row index, entry) of every row that holds column j, in row order."""
        return [(i, row[j]) for i, row in enumerate(self.rows) if j in row]

    def _pivot(self, r: int, j: int, column: list[tuple[int, int | Fraction]]) -> None:
        """Pivot on (r, j), eliminating j from the rows of `column`, which is
        `_column(j)` read before the pivot, and from `cbar`."""
        row = self.rows[r]
        pivot = row[j]
        if pivot != 1:
            inverse = -1 if pivot == -1 else Fraction(1, pivot)
            row = self.rows[r] = {k: normal(v * inverse) for k, v in row.items()}
            self.rhs[r] = normal(self.rhs[r] * inverse)
        rows, rhs, b = self.rows, self.rhs, self.rhs[r]
        for i, factor in column:
            if i != r:
                _subtract(rows[i], factor, row)
                if b:  # a degenerate pivot leaves every rhs as it is
                    rhs[i] = normal(rhs[i] - factor * b)
        factor = self.cbar.get(j)
        if factor:
            _subtract(self.cbar, factor, row)
        self.basis[r] = j

    def _primal(self) -> str:
        """Primal simplex, Bland's rule, from a primal feasible basis."""
        rhs, basis = self.rhs, self.basis
        while True:
            enter = min(
                (j for j, v in self.cbar.items() if v > 0 and j not in self.artificial),
                default=-1,
            )
            if enter < 0:
                return OPTIMAL
            column = self._column(enter)
            leave = -1
            for i, a in column:
                if a > 0:
                    if leave >= 0:
                        # rhs_i / a against rhs_leave / a_leave, both a > 0
                        diff = rhs[i] * a_leave - rhs[leave] * a
                        if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                            continue
                    leave, a_leave = i, a
            if leave < 0:  # the box rows bound every column: a solver bug
                raise CombcertError(f"column {enter} is unbounded in a bounded tableau")
            self._pivot(leave, enter, column)

    def _dual(self) -> str:
        """Dual simplex, Bland's rule, from a dual feasible basis."""
        while True:
            leave = -1
            for i, b in enumerate(self.rhs):
                if b < 0 and (leave < 0 or self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return OPTIMAL
            row = self.rows[leave]
            enter = -1
            for j, a in row.items():
                if a < 0 and j not in self.artificial:
                    if enter >= 0:
                        # cbar_j / a against cbar_enter / a_enter, both a < 0
                        diff = self.cbar.get(j, 0) * row[enter] - self.cbar.get(enter, 0) * a
                        if diff > 0 or (diff == 0 and j > enter):
                            continue
                    enter = j
            if enter < 0:
                return INFEASIBLE
            self._pivot(leave, enter, self._column(enter))

    def _expel_artificials(self) -> None:
        # Any artificial still basic sits at value 0; pivot it out on its
        # row's least non-artificial column.  A row with none is redundant
        # and stays, its artificial basic at 0.
        for i, col in enumerate(self.basis):
            if col in self.artificial:
                enter = min((j for j in self.rows[i] if j not in self.artificial), default=-1)
                if enter >= 0:
                    self._pivot(i, enter, self._column(enter))

    def primal_values(self) -> dict[Edge, int | Fraction]:
        """The nonzero variables of the current basic solution, as stored."""
        n = len(self.variables)
        return {
            self.variables[col]: self.rhs[i]
            for i, col in enumerate(self.basis)
            if col < n and self.rhs[i]
        }

    def rows_and_duals(self) -> tuple[tuple[LinearInequality, ...], tuple[int | Fraction, ...]]:
        """Every row and its multiplier as stored: given rows, cuts, box rows."""
        # cbar[col] = c_col - z_col and c_col = 0, so z_col = -cbar[col].
        # `cbar` holds nonzeros only; an absent column reads 0.
        cbar, boxes = self.cbar, self.boxes
        duals = [-sign * cbar[col] if col in cbar else 0 for col, sign in self.unit]
        source = self.source
        return (
            (*source[: boxes.start], *source[boxes.stop :], *source[boxes]),
            (*duals[: boxes.start], *duals[boxes.stop :], *duals[boxes]),
        )


def expanded_rows(tableau):
    """Every row as the expanded tableau holds it: an `lp._Tableau`'s
    derived rows are rebuilt by `_row`."""
    if isinstance(tableau, ExpandedTableau):
        return tableau.rows
    return [tableau._row(i) for i in range(len(tableau.rhs))]


def check_box_pairs(tableau) -> None:
    """Asserts x_e + s_e = 1's identity on every box pair: one member is
    basic and its row is {x_e: 1, s_e: 1} with rhs 1, or both are and
    their rows negate each other off their basic columns, with rhs summing
    to 1.  On `lp._Tableau` it also asserts that the derived-row
    bookkeeping matches the basis."""
    rows, rhs, basis = expanded_rows(tableau), tableau.rhs, tableau.basis
    at = {col: i for i, col in enumerate(basis)}
    partner = {}
    for x, (s, _) in enumerate(tableau.unit[tableau.boxes]):
        partner[x], partner[s] = s, x
        basic = [at[col] for col in (x, s) if col in at]
        assert basic, f"neither column {x} nor its slack {s} is basic"
        if len(basic) == 1:
            (i,) = basic
            assert (rows[i], rhs[i]) == ({x: 1, s: 1}, 1)
        else:
            i, k = basic
            assert {c: -v for c, v in rows[i].items() if c != x} == {
                c: v for c, v in rows[k].items() if c != s
            }
            assert rhs[i] + rhs[k] == 1
    if isinstance(tableau, ExpandedTableau):
        return
    assert tableau.pos == {col: i for col, i in at.items() if col in partner}
    derived = set(range(len(basis))) - set(tableau.rows)
    assert set(tableau.rows) <= set(range(len(basis)))
    mirrored = {}  # stored row -> derived row, of each pair with both basic
    for i, col in enumerate(basis):
        if col not in partner:
            assert i not in derived
        elif partner[col] in at:  # a mirrored pair: exactly one row derived
            k = at[partner[col]]
            assert (i in derived) != (k in derived)
            if k in derived:
                mirrored[i] = k
        else:  # trivial
            assert i in derived
    assert tableau.mirror == mirrored
