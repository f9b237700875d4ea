"""Comb structures, the comb inequality, and hypothesis classification.

A comb is a hand H plus an odd number t >= 3 of pairwise-disjoint teeth,
each tooth meeting the hand and also reaching outside it.  Its inequality

    x(H) + sum_i x(T_i)  <=  |H| + sum_i |T_i| - (3t+1)/2

is valid for every tour.  Over a bipartite instance the interesting data
is how the teeth meet the two sides of the hand, H^1 and H^2.  With the
teeth reordered so that those meeting H^1 come first:

    i <= p:  |H^1 n T_i| = 1 + s_i,   |H^2 n T_i| = r_i
    i >  p:  |H^1 n T_i| = 0,         |H^2 n T_i| = 1 + r_i

and w / y count the hand vertices of class 1 / class 2 lying in no tooth.
Everything here is computed for both assignments of "class 1" because the
statements being classified are orientation-dependent.

Hypothesis flags (`certificates.CLASSES` maps each certificate class,
L1 ... T2, to its flag):

  single_all_toothed   every |H n T_i| = 1 and no toothless hand vertex
  single               every |H n T_i| = 1
  sorted_minority      no toothless vertex and p < q in some orientation
  counted_slack        w <= y + (q - (p+1))/2 + sum_{i>p} r_i  (some orientation)
  one_class_per_tooth  every tooth meets the hand inside a single class

The fourth condition is compared as an exact rational.  The first implies
all others; the last implies the fourth by a parity argument (mechanized
in `certificates.parity_audit`).

`classify` is the one place that analyses a comb: it validates it once,
extracts both orientations' `IntersectionPattern`s, and hands them on in
`CombClass.patterns`, which the certificate builders iterate.
`extract_pattern` is the validating form of the same extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import ConstraintKind, LinearInequality
from .errors import InvalidCombError
from .graph import CLASS1, CLASS2, BipartiteInstance, FractionalPoint, VertexId
from .rational import format_rational


@dataclass(frozen=True)
class Comb:
    hand: frozenset[VertexId]
    teeth: tuple[frozenset[VertexId], ...]

    def __post_init__(self):
        object.__setattr__(self, "hand", frozenset(self.hand))
        object.__setattr__(self, "teeth", tuple(frozenset(t) for t in self.teeth))

    @property
    def t(self) -> int:
        return len(self.teeth)

    def toothed(self) -> frozenset[VertexId]:
        out: set[VertexId] = set()
        for tooth in self.teeth:
            out |= tooth
        return frozenset(out)


def validate_comb(instance: BipartiteInstance, comb: Comb) -> list[str]:
    """Structural rule violations, empty when the comb is well formed."""
    problems: list[str] = []
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


def require_valid(instance: BipartiteInstance, comb: Comb) -> None:
    problems = validate_comb(instance, comb)
    if problems:
        raise InvalidCombError(tuple(problems))


def comb_inequality(instance: BipartiteInstance, comb: Comb) -> LinearInequality:
    """The comb row over the instance's existing edges.

    Edge coefficient = [both endpoints in the hand] + [both in one tooth],
    so coefficient 2 happens exactly for edges inside some H n T_i.  The
    right-hand side |H| + sum|T_i| - (3t+1)/2 is integral because t is odd.
    """
    require_valid(instance, comb)
    coeffs: dict = {}
    for e in instance.edges:
        c = 0
        if e.u in comb.hand and e.v in comb.hand:
            c += 1
        for tooth in comb.teeth:
            if e.u in tooth and e.v in tooth:
                c += 1
        if c:
            coeffs[e] = Fraction(c)
    hand_labels = ",".join(instance.labels_of(comb.hand))
    return LinearInequality(
        coeffs, comb_rhs(comb), ConstraintKind.COMB, f"comb{{{hand_labels}}}"
    )


def comb_rhs(comb: Comb) -> Fraction:
    """The comb row's right-hand side |H| + sum|T_i| - (3t+1)/2.

    The comb is taken as valid (t odd), so the value is integral; callers
    that need only the rhs of a classified comb skip building the row.
    """
    return Fraction(
        len(comb.hand) + sum(len(t) for t in comb.teeth) - (3 * comb.t + 1) // 2
    )


@dataclass(frozen=True)
class IntersectionPattern:
    """Tooth/hand intersection counts for one orientation of the classes.

    `orientation` is 1 when H^1 means the instance's class 1, 2 when the
    classes are swapped.  `tooth_order` maps sorted position -> original
    tooth index (teeth meeting H^1 first, stable within each group).
    `h1` and `h2` are the hand's two sides H^1 and H^2 in this orientation.
    """

    orientation: int
    tooth_order: tuple[int, ...]
    p: int
    q: int
    s: tuple[int, ...]
    r: tuple[int, ...]
    w: int
    y: int
    h1: frozenset[VertexId]
    h2: frozenset[VertexId]

    @property
    def t(self) -> int:
        return self.p + self.q

    def hand_size(self) -> int:
        return (
            self.w
            + self.y
            + sum(1 + si for si in self.s)
            + sum(self.r[: self.p])
            + sum(1 + ri for ri in self.r[self.p:])
        )

    def trailing_r_sum(self) -> int:
        return sum(self.r[self.p:])

    def condition_bound(self) -> Fraction:
        """Right side of the toothless-vertex condition, kept as a rational."""
        return (
            Fraction(self.y)
            + Fraction(self.q - (self.p + 1), 2)
            + self.trailing_r_sum()
        )

    def condition_holds(self) -> bool:
        return Fraction(self.w) <= self.condition_bound()


def extract_pattern(
    instance: BipartiteInstance, comb: Comb, swap_classes: bool = False
) -> IntersectionPattern:
    """Counts (p, q, s_i, r_i, w, y) with the canonical tooth reordering."""
    require_valid(instance, comb)
    return _pattern(comb, swap_classes)


def _pattern(comb: Comb, swap_classes: bool) -> IntersectionPattern:
    """`extract_pattern` on a comb already validated."""
    cls_one = CLASS2 if swap_classes else CLASS1
    h1 = frozenset(v for v in comb.hand if v.cls == cls_one)
    h2 = comb.hand - h1

    meets = [i for i, tooth in enumerate(comb.teeth) if tooth & h1]
    misses = [i for i, tooth in enumerate(comb.teeth) if not tooth & h1]
    p = len(meets)
    s = tuple(len(comb.teeth[i] & h1) - 1 for i in meets)
    r = tuple(len(comb.teeth[i] & h2) for i in meets) + tuple(
        len(comb.teeth[i] & h2) - 1 for i in misses
    )
    toothed = comb.toothed()
    return IntersectionPattern(
        orientation=2 if swap_classes else 1,
        tooth_order=tuple(meets + misses),
        p=p,
        q=comb.t - p,
        s=s,
        r=r,
        w=len(h1 - toothed),
        y=len(h2 - toothed),
        h1=h1,
        h2=h2,
    )


@dataclass(frozen=True)
class ConditionValue:
    """One orientation's toothless-vertex condition, evaluated exactly."""

    orientation: int
    w: int
    bound: Fraction
    holds: bool

    def as_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "w": self.w,
            "bound": format_rational(self.bound),
            "holds": self.holds,
        }


@dataclass(frozen=True)
class CombClass:
    """Which hypothesis classes a comb falls into (see module docstring).

    `patterns` holds the comb's two intersection patterns, orientation 1
    then 2: the flags are read from them, and the builders reuse them.
    """

    single_all_toothed: bool
    single: bool
    sorted_minority: bool
    counted_slack: bool
    one_class_per_tooth: bool
    conditions: tuple[ConditionValue, ConditionValue]
    notes: tuple[str, ...]
    patterns: tuple[IntersectionPattern, IntersectionPattern]

    def builder_names(self) -> tuple[str, ...]:
        """The certificate classes whose flag is set, in table order."""
        from .certificates import CLASSES  # the table sits with its builder

        return tuple(name for name, c in CLASSES.items() if getattr(self, c.flag))

    def as_dict(self) -> dict:
        from .certificates import CLASSES

        return {
            **{c.flag: getattr(self, c.flag) for c in CLASSES.values()},
            "builders": list(self.builder_names()),
            "conditions": [c.as_dict() for c in self.conditions],
            "notes": list(self.notes),
        }


def classify(instance: BipartiteInstance, comb: Comb) -> CombClass:
    """Validate the comb once, extract both patterns, and read the flags."""
    require_valid(instance, comb)
    pat1 = _pattern(comb, swap_classes=False)
    pat2 = _pattern(comb, swap_classes=True)

    single = all(len(comb.hand & tooth) == 1 for tooth in comb.teeth)
    all_toothed = comb.hand <= comb.toothed()
    one_class = all(
        len({v.cls for v in comb.hand & tooth}) == 1 for tooth in comb.teeth
    )
    sorted_minority = all_toothed and (pat1.p < pat1.q or pat2.p < pat2.q)
    conditions = tuple(
        ConditionValue(pat.orientation, pat.w, pat.condition_bound(), pat.condition_holds())
        for pat in (pat1, pat2)
    )
    counted_slack = any(c.holds for c in conditions)

    notes = []
    if single and not all_toothed:
        notes.append("hand has toothless vertices; single-intersection form only")
    if not counted_slack:
        notes.append("toothless-vertex condition fails in both orientations")
    return CombClass(
        single_all_toothed=single and all_toothed,
        single=single,
        sorted_minority=sorted_minority,
        counted_slack=counted_slack,
        one_class_per_tooth=one_class,
        conditions=conditions,
        notes=tuple(notes),
        patterns=(pat1, pat2),
    )


def comb_value(
    point: FractionalPoint, comb: Comb
) -> Fraction:
    """x(H) + sum_i x(T_i) at the point (left side of the comb row)."""
    from .graph import set_weight

    total = set_weight(point, comb.hand)
    for tooth in comb.teeth:
        total += set_weight(point, tooth)
    return total

