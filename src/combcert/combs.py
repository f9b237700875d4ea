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

`CLASSES` is the one table of the certified classes: for each, its
report flag, the predicate on the two patterns (orientation 1, then 2)
that admits a comb, and the orientation filter of `certificates._build`.
Admission reads orientation 1 unless it says "some orientation":

  L1  single_all_toothed   L2, and w = y = 0
  L2  single               every s_i and r_i is 0: every |H n T_i| = 1
  L3  sorted_minority      w = y = 0 and p < q in some orientation
  T1  counted_slack        w <= y + (q - (p+1))/2 + sum_{i>p} r_i in some
                           orientation, compared doubled in ints
                           (`twice_toothless_bound`)
  T2  one_class_per_tooth  r_i = 0 for every i <= p: each tooth meets the
                           hand inside a single class

L1 implies all others; T2 implies T1 by a parity argument (see
`certificates`).

What depends on the comb alone is worked out once per comb, on first
use, and kept on it:
  * its structural verdict (`Comb._shape`): the vertices it names, and
    its rule violations (t odd and >= 3, each tooth meeting and leaving
    the hand, teeth pairwise disjoint);
  * its two `IntersectionPattern`s (`Comb.patterns`);
  * the classes that admit it (`Comb.admitted`), so a comb is admitted
    once however many steps ask.
What depends on the instance is checked on every call: `validate_comb`
tests the comb's vertices against the instance's with one subset test,
and only a failing comb has its messages put into words, labels read
from the instance.  Every entry point (`classify`, `comb_inequality` and
the certificate builders) still validates.  `classify` validates the
comb and hands it over in a `CombClass`, which reads every flag,
condition and note off what the comb keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .constraints import ConstraintKind, LinearInequality
from .errors import InvalidCombError
from .graph import CLASS1, CLASS2, BipartiteInstance, FractionalPoint, VertexId, set_weight
from .rational import format_rational, normal


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

    @cached_property
    def patterns(self) -> tuple[IntersectionPattern, IntersectionPattern]:
        """Both orientations' patterns, extracted on first use; read them
        only once the comb is validated (`classify`)."""
        return (_pattern(self, swap_classes=False), _pattern(self, swap_classes=True))

    @cached_property
    def admitted(self) -> tuple[str, ...]:
        """The certificate classes that admit the comb, in `CLASSES` order,
        decided on first use; read them only once the comb is validated."""
        return tuple(name for name, c in CLASSES.items() if c.admits(self.patterns))

    @cached_property
    def _shape(self) -> tuple[frozenset[VertexId], tuple]:
        """The instance-free structural verdict, worked out on first use:
        every vertex the comb names, and its rule violations in
        `validate_comb`'s order.  A violation is a message, or for two
        overlapping teeth (i, j, shared), whose labels the instance gives."""
        hand, teeth, t = self.hand, self.teeth, self.t
        problems: list = []
        if t < 3 or t % 2 == 0:
            problems.append(f"t must be odd and >= 3, got {t}")
        for i, tooth in enumerate(teeth):
            if not (hand & tooth):
                problems.append(f"tooth {i + 1} does not meet the hand")
            if not (tooth - hand):
                problems.append(f"tooth {i + 1} has no vertex outside the hand")
        for i in range(t):
            for j in range(i + 1, t):
                shared = teeth[i] & teeth[j]
                if shared:
                    problems.append((i, j, shared))
        return hand | self.toothed(), tuple(problems)

    def toothed(self) -> frozenset[VertexId]:
        out: set[VertexId] = set()
        for tooth in self.teeth:
            out |= tooth
        return frozenset(out)


def validate_comb(instance: BipartiteInstance, comb: Comb) -> list[str]:
    """Structural rule violations, empty when the comb is well formed.

    A vertex outside the instance is reported alone; otherwise the comb's
    kept verdict (`Comb._shape`) is put into words."""
    vertices, problems = comb._shape
    if not instance.contains_all(vertices):
        return [f"vertex {v} is not in the instance" for v in vertices if not instance.contains(v)]
    messages = []
    for problem in problems:
        if not isinstance(problem, str):
            i, j, shared = problem
            labels = ",".join(instance.labels_of(shared))
            problem = f"teeth {i + 1} and {j + 1} are not disjoint ({labels})"
        messages.append(problem)
    return messages


def require_valid(instance: BipartiteInstance, comb: Comb) -> None:
    problems = validate_comb(instance, comb)
    if problems:
        raise InvalidCombError(tuple(problems))


def comb_inequality(instance: BipartiteInstance, comb: Comb) -> LinearInequality:
    """The comb row over the instance's existing edges.

    Edge coefficient = [both endpoints in the hand] + [both in one tooth],
    so coefficient 2 happens exactly for edges inside some H n T_i; the row
    counts `BipartiteInstance.edges_within` of the hand and each tooth.  The
    right-hand side |H| + sum|T_i| - (3t+1)/2 is integral because t is odd.
    The row's provenance is the plain "comb": nothing reads a label of it.
    """
    require_valid(instance, comb)
    coeffs: dict = {}
    for part in (comb.hand, *comb.teeth):
        for e in instance.edges_within(part):
            coeffs[e] = coeffs.get(e, 0) + 1
    return LinearInequality(coeffs, comb_rhs(comb), ConstraintKind.COMB, "comb")


def comb_rhs(comb: Comb) -> int:
    """The comb row's right-hand side |H| + sum|T_i| - (3t+1)/2, an int.

    The comb is taken as valid (t odd), so the value is integral; callers
    that need only the rhs of a classified comb skip building the row.
    """
    return len(comb.hand) + sum(len(t) for t in comb.teeth) - (3 * comb.t + 1) // 2


def twice_toothless_bound(y: int, p: int, q: int, trailing_r: int) -> int:
    """Twice the toothless-vertex bound y + (q - (p+1))/2 + sum_{i>p} r_i, an
    int.  It can be negative when p >= q."""
    return 2 * y + q - (p + 1) + 2 * trailing_r


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

    def trailing_r_sum(self) -> int:
        return sum(self.r[self.p:])

    def condition_bound(self) -> int | Fraction:
        """Right side of the toothless-vertex condition, kept exact."""
        twice = twice_toothless_bound(self.y, self.p, self.q, self.trailing_r_sum())
        return normal(Fraction(twice, 2))

    def condition_holds(self) -> bool:
        """w <= `condition_bound`, compared doubled, in ints."""
        return 2 * self.w <= twice_toothless_bound(
            self.y, self.p, self.q, self.trailing_r_sum()
        )

    def minority(self) -> bool:
        """No toothless hand vertex, and fewer teeth meet H^1 than miss it."""
        return self.w == 0 and self.y == 0 and self.p < self.q


def _pattern(comb: Comb, swap_classes: bool) -> IntersectionPattern:
    """One orientation of `Comb.patterns`: the counts (p, q, s_i, r_i, w, y)
    with the canonical tooth reordering."""
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


class HypothesisClass(NamedTuple):
    """A certified class: its report flag, the predicate on the two patterns
    that admits a comb, and its orientation filter (None: it must dominate)."""

    flag: str
    admits: Callable[[tuple[IntersectionPattern, IntersectionPattern]], bool]
    fits: Callable[[IntersectionPattern], bool] | None


def _single(pats) -> bool:
    return not any(pats[0].s + pats[0].r)


def _some(fits: Callable[[IntersectionPattern], bool]):
    """Admission when some orientation passes `fits`."""
    return lambda pats: any(fits(pat) for pat in pats)


_minority, _counted = IntersectionPattern.minority, IntersectionPattern.condition_holds

CLASSES: dict[str, HypothesisClass] = {
    "L1": HypothesisClass(
        "single_all_toothed", lambda ps: _single(ps) and ps[0].w == ps[0].y == 0, _minority
    ),
    "L2": HypothesisClass("single", _single, None),
    "L3": HypothesisClass("sorted_minority", _some(_minority), _minority),
    "T1": HypothesisClass("counted_slack", _some(_counted), _counted),
    "T2": HypothesisClass(
        "one_class_per_tooth", lambda ps: not any(ps[0].r[: ps[0].p]), None
    ),
}


@dataclass(frozen=True)
class CombClass:
    """A validated comb, read through what it keeps: its two intersection
    patterns, orientation 1 then 2, and the classes that admit it."""

    comb: Comb

    @property
    def patterns(self) -> tuple[IntersectionPattern, IntersectionPattern]:
        return self.comb.patterns

    def builder_names(self) -> tuple[str, ...]:
        """The certificate classes that admit the comb, in table order."""
        return self.comb.admitted

    def as_dict(self) -> dict:
        admitted = self.comb.admitted
        flags = {c.flag: name in admitted for name, c in CLASSES.items()}
        pat1 = self.patterns[0]
        notes = []
        if flags["single"] and (pat1.w or pat1.y):
            notes.append("hand has toothless vertices; single-intersection form only")
        if not flags["counted_slack"]:
            notes.append("toothless-vertex condition fails in both orientations")
        return {
            **flags,
            "builders": list(admitted),
            "conditions": [
                {
                    "orientation": pat.orientation,
                    "w": pat.w,
                    "bound": format_rational(pat.condition_bound()),
                    "holds": pat.condition_holds(),
                }
                for pat in self.patterns
            ],
            "notes": notes,
        }


def classify(instance: BipartiteInstance, comb: Comb) -> CombClass:
    """Validate the comb and hand it over for reading."""
    require_valid(instance, comb)
    return CombClass(comb)


def comb_value(point: FractionalPoint, comb: Comb) -> int | Fraction:
    """x(H) + sum_i x(T_i) at the point (left side of the comb row)."""
    return normal(sum(set_weight(point, part) for part in (comb.hand, *comb.teeth)))

