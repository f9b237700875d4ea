"""Aggregation certificates: sums of degree/subtour rows dominating a comb row.

A certificate is a multiset of valid relaxation rows, each with implicit
coefficient 1, such that (a) summed coefficients cover the comb row's
coefficient on every edge and (b) the summed right-hand sides do not
exceed the comb row's right-hand side.  Any point with nonnegative
weights satisfying every member then satisfies the comb row, so a
verified certificate proves the comb row is implied by the relaxation.

Members come in two shapes:

  degree   a vertex's degree row restricted to an explicit edge subset
           (valid because weights are nonnegative), right-hand side 2
  sec      x(S) <= |S| - 1, identified by its vertex set alone (its edges
           come from the instance); size-2 sets reduce to the x <= 1 bound
           and singletons degenerate to 0 <= 0, both still valid rows of
           the relaxation

One member recipe, parameterized by a class orientation, serves every
hypothesis class.  For a tooth listed before position p (it meets H^1):

  * each vertex a in H^1 n T_i contributes its degree row restricted to
    a -> T_i and a -> H^2 \\ T_i;
  * each vertex b in H^2 n T_i contributes its degree row restricted to
    b -> T_i only (hand edges leaving the tooth are deliberately dropped;
    the H^1 side already covers them);
  * the set T_i \\ H contributes its subtour row.

A tooth listed after position p contributes the subtour row of the whole
tooth.  Each toothless H^1 vertex contributes its degree row restricted
to the hand.  Edges inside H^1 n T_i x H^2 n T_i end up covered twice,
matching their coefficient 2 in the comb row.

The classes differ only in the hypothesis that admits a comb and in
which orientations they accept; `combs.CLASSES` is the one table of
both, kept next to the intersection patterns it reads.  One rule builds
every certificate: among the orientations that pass the class's filter,
take the one with the least aggregate rhs, ties to orientation 1.  Three
filters cover the five classes:

  L1, L3   `IntersectionPattern.minority`: w == y == 0 and p < q (no
           toothless vertex, minority first; for L1, t odd makes
           exactly one orientation qualify)
  T1       the toothless-vertex condition (`condition_holds`)
  L2, T2   the aggregate rhs is at most the comb row's rhs

For the last two a counting argument guarantees that one orientation
passes: both slacks are integers and their sum equals
sum(s_i) + sum_{i>p} r_i - 1 >= -1, so they cannot both be negative.
For single-intersection combs (L2) the sum is exactly -1, so exactly one
orientation passes.
Builders refuse (raise) rather than fall back when hypotheses fail.

A builder validates the comb and reads the patterns and admitted
classes it keeps (`Comb.patterns`, `Comb.admitted`).  `certify` is the
one pick of a class, for `certify --builder auto` and `run_search`: the
first in `CLASSES` order that admits the comb, built through its
`BUILDERS` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from .combs import (
    CLASSES,
    Comb,
    IntersectionPattern,
    classify,
    comb_inequality,
    comb_rhs,
    require_valid,
)
from .errors import CertificateInvariantError, HypothesisNotMetError
from .graph import CLASS1, CLASS2, BipartiteInstance, Edge, VertexId


@dataclass(frozen=True)
class CertificateMember:
    """One valid row of the relaxation, identified structurally.

    kind "degree": `vertex` plus the explicit `support` (a subset of its
    incident edges).  kind "sec": its `vertex_set` alone; `support` is for
    degree members only, and the row's edges are the instance edges
    inside the set, as `verify` derives them.
    """

    kind: str
    vertex: VertexId | None = None
    vertex_set: frozenset[VertexId] = frozenset()
    support: frozenset[Edge] = frozenset()


@dataclass(frozen=True)
class Certificate:
    builder: str
    comb: Comb
    members: tuple[CertificateMember, ...]
    orientation: int


@dataclass(frozen=True)
class CertificateReport:
    dominates: bool
    slack: int
    edge_surplus: Mapping[Edge, int]
    problems: tuple[str, ...]


def _degree_member(
    instance: BipartiteInstance, vertex: VertexId, partners: frozenset[VertexId]
) -> CertificateMember:
    """The degree row of `vertex` restricted to its edges to `partners`,
    read off the vertex's incidence list, so no edge is built."""
    other_end = 1 if vertex.cls == CLASS1 else 0
    support = frozenset(e for e in instance.incident(vertex) if e[other_end] in partners)
    return CertificateMember(kind="degree", vertex=vertex, support=support)


def member_rhs(member: CertificateMember) -> int:
    if member.kind == "degree":
        return 2
    return len(member.vertex_set) - 1


def aggregation_members(
    instance: BipartiteInstance, comb: Comb, pattern: IntersectionPattern
) -> tuple[tuple[CertificateMember, ...], int]:
    """The member recipe for one orientation, plus its aggregate rhs."""
    h1, h2 = pattern.h1, pattern.h2
    toothed = comb.toothed()
    members: list[CertificateMember] = []
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


def _build(name: str, instance: BipartiteInstance, comb: Comb) -> Certificate:
    """The certificate of class `name`, by the one rule of the module docstring.

    Pattern filters run before any member is built, and only the classes
    that filter by domination compute the comb row's rhs.
    """
    cls = CLASSES[name]
    require_valid(instance, comb)
    if name not in comb.admitted:
        raise HypothesisNotMetError(f"{name} needs a {cls.flag} comb")
    target = None if cls.fits else comb_rhs(comb)
    best = None
    for pat in comb.patterns:
        if cls.fits and not cls.fits(pat):
            continue
        members, agg = aggregation_members(instance, comb, pat)
        if (target is None or agg <= target) and (best is None or agg < best[1]):
            best = (members, agg, pat.orientation)
    if best is None:
        raise CertificateInvariantError(f"{name}: no orientation passes its filter")
    return Certificate(name, comb, best[0], best[2])


# One builder per class, each called as builder(instance, comb).
BUILDERS: dict[str, Callable[[BipartiteInstance, Comb], Certificate]] = {
    name: partial(_build, name) for name in CLASSES
}
build_l1, build_l2, build_l3, build_t1, build_t2 = BUILDERS.values()


def certify(instance: BipartiteInstance, comb: Comb) -> Certificate | None:
    """The certificate of the first class in `CLASSES` order that admits the
    comb, built by its `BUILDERS` entry; None when no class does."""
    names = classify(instance, comb).builder_names()
    return BUILDERS[names[0]](instance, comb) if names else None


def _validate_member(
    instance: BipartiteInstance, idx: int, member: CertificateMember
) -> list[str]:
    """A member's problems: one subset test passes a sound member, and the
    per-item loop runs only to report what is wrong."""
    problems = []
    if member.kind == "degree":
        if member.vertex is None or not instance.contains(member.vertex):
            problems.append(f"member {idx}: degree member without a valid vertex")
            return problems
        incident = set(instance.incident(member.vertex))
        if incident.issuperset(member.support):
            return problems
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
        elif instance.contains_all(member.vertex_set):
            return problems
        for v in sorted(member.vertex_set):
            if not instance.contains(v):
                problems.append(f"member {idx}: unknown vertex {v}")
    else:
        problems.append(f"member {idx}: unknown member kind {member.kind!r}")
    return problems


def _sec_edges(instance: BipartiteInstance, vertex_set) -> list[Edge]:
    """The instance edges inside a set: its class-1 x class-2 pairs."""
    ones = [v for v in vertex_set if v.cls == CLASS1]
    twos = [v for v in vertex_set if v.cls == CLASS2]
    edges = instance.edges
    return [e for a in ones for b in twos if (e := Edge(a, b)) in edges]


def verify(instance: BipartiteInstance, certificate: Certificate) -> CertificateReport:
    """Recompute everything from scratch and check domination.

    Nothing builder-side is trusted.  Each member's edges and rhs are
    re-derived from its structural identity: a degree member covers its
    `support` with rhs 2, a sec member the instance edges inside its set
    with rhs |S| - 1.  The per-edge sums and the aggregate rhs are
    recomputed in ints, and the target comb row is rebuilt (and the comb
    validated) from the comb.  The report keeps the slack and surplus
    values as it computes them, ints, since a comb row is integral.
    """
    target = comb_inequality(instance, certificate.comb)

    problems: list[str] = []
    agg_coeffs: dict[Edge, int] = {}
    agg_rhs = 0
    for idx, member in enumerate(certificate.members):
        member_problems = _validate_member(instance, idx, member)
        problems.extend(member_problems)
        if member_problems:
            continue
        if member.kind == "degree":
            agg_rhs += 2
            edges = member.support
        else:
            agg_rhs += len(member.vertex_set) - 1
            edges = _sec_edges(instance, member.vertex_set)
        for e in edges:
            agg_coeffs[e] = agg_coeffs.get(e, 0) + 1

    target_coeffs = target.coeffs
    surplus = {
        e: agg_coeffs.get(e, 0) - target_coeffs.get(e, 0)
        for e in sorted(agg_coeffs.keys() | target_coeffs.keys())
    }
    slack = target.rhs - agg_rhs

    for e, gap in surplus.items():
        if gap < 0:
            problems.append(
                f"edge {instance.edge_label(e)} under-covered: "
                f"aggregate {agg_coeffs.get(e, 0)} < target {target_coeffs[e]}"
            )
    if slack < 0:
        problems.append(f"aggregate rhs exceeds target rhs by {-slack}")

    return CertificateReport(
        dominates=not problems,
        slack=slack,
        edge_surplus=surplus,
        problems=tuple(problems),
    )
