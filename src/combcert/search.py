"""Randomized comb generation and search experiments.

Generators produce combs on a complete balanced instance, one per
hypothesis family (see `combs.CLASSES`), by drawing the hand parts and
tooth interiors from disjoint vertex pools.  The "wild" family places no
pattern restriction and is the one that can wander outside every proved
class; the search command sends those to the LP oracle hunting for
violation witnesses, while classified combs are certified and verified.

Everything is driven by a seeded `random.Random`, so runs are
bit-reproducible for a fixed config.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .certificates import BUILDERS, certify, verify
from .combs import Comb, comb_inequality, twice_toothless_bound, validate_comb
from .constraints import check_enumeration_cap
from .errors import CombcertError
from .graph import CLASS1, CLASS2, BipartiteInstance, VertexId
from .jsonio import dump_comb
from .lp import is_implied
from .rational import format_rational

# One family per certificate class, plus "wild" (no pattern restriction).
FAMILIES = tuple(name.lower() for name in BUILDERS) + ("wild",)
# "random" flips a fair coin per attempt for which real class plays class
# one in the recipes; "fixed" never flips.
ORIENTATION_POLICIES = ("random", "fixed")
_ATTEMPTS = 200
# Least and greatest tooth size a sampled comb aims for; the run config
# records it, so a findings file states the sizes it was drawn with.
TOOTH_SIZE_RANGE = (2, 4)


class _Pools:
    """Disjoint draws from the two vertex classes of an instance."""

    def __init__(self, instance: BipartiteInstance, rng: random.Random, flip: bool):
        order1 = list(instance.class_vertices(CLASS1))
        order2 = list(instance.class_vertices(CLASS2))
        rng.shuffle(order1)
        rng.shuffle(order2)
        # `flip` decides which real class plays "class one" in the recipes.
        self._pool = {1: order2 if flip else order1, 2: order1 if flip else order2}

    def take(self, side: int) -> VertexId | None:
        pool = self._pool[side]
        return pool.pop() if pool else None

    def take_any(self, rng: random.Random) -> VertexId | None:
        sides = [s for s in (1, 2) if self._pool[s]]
        if not sides:
            return None
        return self.take(rng.choice(sides))

    def available(self, side: int) -> int:
        return len(self._pool[side])


def _draw(pools, side, count) -> list[VertexId] | None:
    out = []
    for _ in range(count):
        v = pools.take(side)
        if v is None:
            return None
        out.append(v)
    return out


def _finish_teeth(pools, rng, teeth: list[list[VertexId]], max_size: int) -> bool:
    """Give every tooth one outside vertex, then grow teeth while room lasts.

    The mandatory vertex comes first for all teeth so that tight instances
    still admit minimal combs; growth is optional and budget-limited.
    """
    for tooth in teeth:
        v = pools.take_any(rng)
        if v is None:
            return False
        tooth.append(v)
    for tooth in teeth:
        while len(tooth) < max_size and rng.random() < 0.35:
            v = pools.take_any(rng)
            if v is None:
                return True
            tooth.append(v)
    return True


def _check_policy(policy: str) -> None:
    if policy not in ORIENTATION_POLICIES:
        raise ValueError(
            f"orientation policy must be one of {ORIENTATION_POLICIES}, got {policy!r}"
        )


def sample_comb(
    rng: random.Random,
    instance: BipartiteInstance,
    family: str,
    orientation_policy: str = "random",
) -> Comb:
    """A random comb of the requested family, its teeth sized within
    `TOOTH_SIZE_RANGE`; raises after `_ATTEMPTS` misses.  An unknown family
    or orientation policy raises `ValueError` before any draw."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    _check_policy(orientation_policy)
    for _ in range(_ATTEMPTS):
        flip = orientation_policy == "random" and rng.random() < 0.5
        comb = _attempt(rng, instance, family, flip)
        if comb is None:
            continue
        if validate_comb(instance, comb):
            continue
        if family != "wild" and family.upper() not in comb.admitted:
            continue
        return comb
    raise CombcertError(
        f"could not sample a {family!r} comb on {instance.n1}x{instance.n2} "
        f"after {_ATTEMPTS} attempts"
    )


def _feasible_teeth(instance, lo) -> list[int]:
    total = instance.n1 + instance.n2
    counts = [t for t in (3, 5) if t * max(2, lo) <= total]
    return counts or [3]


def _attempt(rng, instance, family, flip) -> Comb | None:
    lo, hi = TOOTH_SIZE_RANGE
    pools = _Pools(instance, rng, flip)
    t = rng.choice(_feasible_teeth(instance, lo))
    hand: list[VertexId] = []
    teeth: list[list[VertexId]] = []

    if family in ("l1", "l2"):
        for _ in range(t):
            h = pools.take(rng.choice((1, 2)))
            if h is None:
                return None
            hand.append(h)
            teeth.append([h])
        if not _finish_teeth(pools, rng, teeth, hi):
            return None
        if family == "l2":
            for _ in range(rng.randint(1, 2)):
                v = pools.take_any(rng)
                if v is not None:
                    hand.append(v)
    elif family in ("l3", "t1", "t2"):
        p = rng.randint(1, (t - 1) // 2)  # p < q keeps the counting easy
        trailing_r = 0
        for i in range(t):
            if i < p:
                s_i = rng.randint(0, 1) if pools.available(1) > t else 0
                part1 = _draw(pools, 1, 1 + s_i)
                if part1 is None:
                    return None
                part2 = []
                if family != "t2" and pools.available(2) > t:
                    part2 = _draw(pools, 2, rng.randint(0, 1))
                    if part2 is None:
                        return None
                members = part1 + part2
            else:
                r_i = rng.randint(0, 1) if pools.available(2) > t else 0
                members = _draw(pools, 2, 1 + r_i)
                if members is None:
                    return None
                trailing_r += r_i
            hand.extend(members)
            teeth.append(list(members))
        if not _finish_teeth(pools, rng, teeth, hi):
            return None
        if family in ("t1", "t2"):
            y = rng.randint(0, 2)
            drawn_y = [v for v in (pools.take(2) for _ in range(y)) if v is not None]
            hand.extend(drawn_y)
            twice_bound = twice_toothless_bound(len(drawn_y), p, t - p, trailing_r)
            if family == "t2":
                w_cap = 2  # no counting condition; the parity argument covers it
            else:
                w_cap = twice_bound // 2 if twice_bound >= 0 else -1
            if w_cap >= 0:
                w = rng.randint(0, min(w_cap, 2))
                hand.extend(
                    v for v in (pools.take(1) for _ in range(w)) if v is not None
                )
    else:  # wild: unconstrained intersections, Table-1-like patterns included
        for _ in range(t):
            k1 = rng.randint(0, 1)
            k2 = rng.randint(0 if k1 else 1, 1)
            part = (_draw(pools, 1, k1) or []) + (_draw(pools, 2, k2) or [])
            if not part:
                return None
            hand.extend(part)
            teeth.append(list(part))
        if not _finish_teeth(pools, rng, teeth, hi):
            return None
        for _ in range(rng.randint(0, 1)):
            v = pools.take_any(rng)
            if v is not None:
                hand.append(v)

    return Comb(frozenset(hand), tuple(frozenset(tooth) for tooth in teeth))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    size: int = 4
    comb_count: int = 60
    families: tuple[str, ...] = FAMILIES
    orientation_policy: str = "random"

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "size": self.size,
            "comb_count": self.comb_count,
            "tooth_size_range": list(TOOTH_SIZE_RANGE),
            "families": list(self.families),
            "orientation_policy": self.orientation_policy,
        }


@lru_cache(maxsize=4)
def _complete(size: int) -> BipartiteInstance:
    """K_{size,size}, shared by the runs of the last four sizes used.

    An instance is immutable, so sharing it changes no result; it keeps
    its sorted edges and incidence table from run to run.
    """
    return BipartiteInstance.complete(size)


def run_search(config: ExperimentConfig) -> dict:
    """Generate combs; certify the classified ones, LP-hunt the rest.

    A wild comb may need the LP, which enumerates subtour rows up to the
    vertex cap, so a run that samples wild combs on K_{n,n} with 2n over
    the cap is refused before any comb is drawn.  So is a config with no
    family, an unknown one, or an unknown orientation policy
    (`ValueError`).
    """
    if not config.families or not set(config.families) <= set(FAMILIES):
        raise ValueError(
            f"families must be a nonempty tuple of {FAMILIES}, got {config.families!r}"
        )
    _check_policy(config.orientation_policy)
    instance = _complete(config.size)
    if "wild" in config.families[: config.comb_count]:
        check_enumeration_cap(instance)
    rng = random.Random(config.seed)
    findings = {
        "config": config.as_dict(),
        "certified": [],
        "violated": [],
        "implied_without_certificate": [],
        "failures": [],
    }
    for k in range(config.comb_count):
        family = config.families[k % len(config.families)]
        comb = sample_comb(rng, instance, family, config.orientation_policy)
        entry = {"index": k, "family": family, "comb": dump_comb(comb, instance)}
        cert = certify(instance, comb)
        if cert is not None:
            report = verify(instance, cert)
            entry["builder"] = cert.builder
            entry["dominates"] = report.dominates
            if report.dominates:
                findings["certified"].append(entry)
            else:
                entry["problems"] = list(report.problems)
                findings["failures"].append(entry)
        else:
            target = comb_inequality(instance, comb)
            result = is_implied(instance, target)
            entry["optimum"] = format_rational(result.optimum)
            entry["rhs"] = format_rational(result.target_rhs)
            if result.status == "violated":
                entry["margin"] = format_rational(result.optimum - result.target_rhs)
                findings["violated"].append(entry)
            else:
                findings["implied_without_certificate"].append(entry)
    return findings
