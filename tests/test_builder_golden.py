"""Every certificate builder against its recorded outcomes.

`builder_golden.json` holds one digest per (size, family, builder).  The
pool is `POOL` seeded `sample_comb` combs of each search family on
K_{n,n} for n in `SIZES`.  A comb's outcome under a builder is the name of
the exception it refused with, or the certificate's orientation plus the
sha256 of its `dump_certificate` document serialized with sorted keys; a
digest is the sha256 of its pool's outcomes in order.  So a digest pins
the builder tag, the orientation, every member in order, and which combs
are refused and how.

The file was recorded from the five separate per-class builder functions
that the table-driven builder replaced.  Regenerate it (only after a
deliberate change to sampling or to certificates) with

    PYTHONPATH=src python tests/test_builder_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from combcert import BipartiteInstance, CombcertError
from combcert.certificates import BUILDERS
from combcert.jsonio import dump_certificate
from combcert.search import FAMILIES, sample_comb

GOLDEN = Path(__file__).with_name("builder_golden.json")
SIZES = (3, 4, 5, 6, 10)
POOL = 24


def _outcome(builder, instance, comb) -> str:
    try:
        cert = builder(instance, comb)
    except CombcertError as exc:
        return type(exc).__name__
    document = json.dumps(dump_certificate(cert, instance), sort_keys=True)
    return f"{cert.orientation}:{hashlib.sha256(document.encode()).hexdigest()}"


def builder_digests() -> dict[str, str]:
    digests = {}
    for n in SIZES:
        instance = BipartiteInstance.complete(n)
        for family in FAMILIES:
            rng = random.Random(f"{n}/{family}")
            combs = [sample_comb(rng, instance, family) for _ in range(POOL)]
            for name, builder in BUILDERS.items():
                outcomes = "\n".join(_outcome(builder, instance, c) for c in combs)
                digest = hashlib.sha256(outcomes.encode()).hexdigest()
                digests[f"K{n}/{family}/{name}"] = digest
    return digests


def test_builders_reproduce_recorded_outcomes():
    assert builder_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(builder_digests(), indent=1, sort_keys=True) + "\n")
