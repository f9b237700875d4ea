"""`is_implied` against its recorded outcomes, lazy and direct.

`lp_golden.json` holds one digest per (instance, mode, lazy or direct).
The instances are K_{n,n} for n in `LAZY_SIZES` (lazy only) and
`DIRECT_SIZES` (both), each with a pool of `POOL` seeded `sample_comb`
combs over the search families in turn, plus the two bundled table
instances with their own comb.  A query's outcome is the name of the
exception it raised, or its status, optimum, witness weights (by edge
index pair), nonzero dual multipliers in order with their rows'
provenance, rounds and rows used; a digest is the sha256 of its pool's
outcomes in order.  So a digest pins every exact number of a verdict and
the order in which the dual lists its rows.

The file was recorded from the lazy and direct drivers that the single
`lp.solve` replaced.  Regenerate it (only after a deliberate change to
sampling or to the LP) with

    PYTHONPATH=src python tests/test_lp_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from combcert import BipartiteInstance, CombcertError, comb_inequality, is_implied, load_table
from combcert.search import FAMILIES, sample_comb

GOLDEN = Path(__file__).with_name("lp_golden.json")
LAZY_SIZES = (3, 4, 5, 6, 7, 8)
DIRECT_SIZES = (3, 4)
MODES = ("le", "eq")
POOL = 12
DRIVERS = (("lazy", True), ("direct", False))


def _outcome(instance, target, mode, lazy) -> str:
    try:
        result = is_implied(instance, target, mode=mode, lazy=lazy)
    except CombcertError as exc:
        return type(exc).__name__
    parts = [result.status, str(result.optimum), str(result.rounds), str(result.rows_used)]
    if result.witness is not None:
        parts += [f"{e.u.index},{e.v.index}={w}" for e, w in result.witness.items()]
    if result.dual_rows is not None:
        parts += [f"{row.provenance}*{y}" for row, y in result.dual_rows]
    return " ".join(parts)


def _pools():
    """(name, instance, comb rows, drivers) for every instance of the file."""
    for n in sorted(set(LAZY_SIZES) | set(DIRECT_SIZES)):
        instance = BipartiteInstance.complete(n)
        rng = random.Random(f"lp/{n}")
        combs = [sample_comb(rng, instance, FAMILIES[k % len(FAMILIES)]) for k in range(POOL)]
        targets = [comb_inequality(instance, c) for c in combs]
        yield f"K{n}", instance, targets, DRIVERS if n in DIRECT_SIZES else DRIVERS[:1]
    for name, (instance, _, comb) in (("table1", load_table(1)), ("table2", load_table(2))):
        yield name, instance, [comb_inequality(instance, comb)], DRIVERS


def lp_digests() -> dict[str, str]:
    digests = {}
    for name, instance, targets, drivers in _pools():
        for driver, lazy in drivers:
            for mode in MODES:
                outcomes = "\n".join(_outcome(instance, t, mode, lazy) for t in targets)
                digest = hashlib.sha256(outcomes.encode()).hexdigest()
                digests[f"{name}/{mode}/{driver}"] = digest
    return digests


def test_is_implied_reproduces_recorded_outcomes():
    assert lp_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(lp_digests(), indent=1, sort_keys=True) + "\n")
