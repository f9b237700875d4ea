#!/usr/bin/env python3
"""Smoke self-test of the benchmark on tiny instances (a few seconds).

    python3 perfbench/selftest.py      # from the root of a checkout

For every workload, at sizes small enough to run in a fraction of a
second, it checks that the result line has its four keys and
exactly the metric names BENCHMARK.json declares in both modes, that the
run took calibration passes to scale its times by, that the traced run
sees the layers the workload exercises, and that the
correctness gate fails a run whose golden verdict is deliberately wrong.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run as bench
from make_golden import golden_verdicts

TINY_SIZES = {"lazy-k8": 4, "direct-k4": 4, "facet-k5": 4, "search-k10": 6}
# A per-layer count that must be nonzero where the workload's layers run.
EXERCISED = {
    "lazy-k8": ("kernels.subsets_scanned", "lp.rounds", "lp.dual_support"),
    "direct-k4": ("constraints.sec_rows", "lp.solves", "lp.rows_used"),
    "facet-k5": ("kernels.tours_enumerated", "tours.echelon_rows"),
    "search-k10": ("combs.classify_calls", "certificates.members", "certificates.dominates_ratio"),
}
SEED, SECONDS = 1, 0.2


def main() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open(os.path.join(bench.HERE, os.pardir, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    names = {
        False: {m["name"] for m in declared["end_to_end"]},
        True: {m["name"] for m in declared["per_layer"]},
    }
    for name, spec in bench.WORKLOADS.items():
        tiny = dataclasses.replace(spec, size=TINY_SIZES[name], pool=4)
        golden = golden_verdicts(tiny, SEED)
        for trace in (False, True):
            report, result = bench.run(tiny, SEED, SECONDS, trace, golden)
            assert report["calibration"]["passes"] >= 2, report["calibration"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            emitted = set(result["metrics"])
            assert emitted == names[trace], f"{name}: {sorted(emitted ^ names[trace])}"
            if trace:
                idle = [m for m in EXERCISED[name] if not result["metrics"][m]["value"]]
                assert not idle, f"{name}: traced run saw no {idle}"

        wrong = [["deliberately wrong"] + golden[0][1:]] + golden[1:]
        _, result = bench.run(tiny, SEED, SECONDS, False, wrong)
        assert not result["correct"] and result["failed"] >= 1, result
        print(f"ok {name}")


if __name__ == "__main__":
    main()
