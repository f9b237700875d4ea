#!/usr/bin/env python3
"""Write golden.json: the exact verdict of every pool query at the default seed.

Run from the root of a checkout after a change that is meant to alter
verdicts (none is expected):

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys

import run as bench


def golden_verdicts(spec: bench.Workload, seed: int) -> list:
    pkg, instance, queries = bench.setup(spec, seed)
    fn = bench.verdict_function(spec, pkg, instance)
    return [bench.summary(spec.kind, fn(q)) for q in queries]


def main() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    document = {"seed": bench.DEFAULT_SEED, "workloads": {}}
    for name, spec in bench.WORKLOADS.items():
        document["workloads"][name] = {
            "size": spec.size,
            "pool": spec.pool,
            "verdicts": golden_verdicts(spec, bench.DEFAULT_SEED),
        }
        print(f"{name}: {spec.pool} verdicts", file=sys.stderr)
    with open(bench.GOLDEN_PATH, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
