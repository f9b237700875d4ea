#!/usr/bin/env python3
"""Compare two sets of saved benchmark runs, metric by metric.

    python3 perfbench/run.py --workload lazy-k8 --seed 1 >> base.txt
    ...
    python3 perfbench/compare.py base.txt change.txt

Each file holds the standard output of one or more runs.  Runs are grouped
by workload and trace mode, and each side's median of every metric is
printed with the relative change.  Runs made with different kernel
backends measure different code, and runs scaled to different reference
CPUs (`clock.REFERENCE_S`) are in different units: the script refuses
(exit 2) instead of reporting them side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path: str) -> list[dict]:
    reports = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("{"):
                document = json.loads(line)
                if "provenance" in document:
                    reports.append(document)
    if not reports:
        raise SystemExit(f"{path}: no benchmark report found")
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    sides = [load(args.base), load(args.change)]

    backends = {r["provenance"]["kernel_backend"] for side in sides for r in side}
    if len(backends) > 1:
        print(f"refusing to compare runs of different kernel backends: {sorted(backends)}", file=sys.stderr)
        return 2
    references = {r.get("calibration", {}).get("reference_s") for side in sides for r in side}
    if len(references) > 1:
        print(f"refusing to compare runs scaled to different reference CPUs: {references}", file=sys.stderr)
        return 2

    for workload, trace in sorted({(r["workload"], r["trace"]) for side in sides for r in side}):
        runs = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)] for side in sides]
        if not all(runs):
            print(f"{workload} trace {trace}: runs on one side only")
            continue
        failed = sum(r["failed"] for side in runs for r in side)
        print(f"{workload} trace {trace}: {len(runs[0])} vs {len(runs[1])} runs, {failed} failed queries")
        for name, first in runs[0][0]["metrics"].items():
            base, change = (statistics.median(r["metrics"][name]["value"] for r in side) for side in runs)
            delta = f"{(change - base) / base:+.1%}" if base else "n/a"
            print(f"  {name:30s} {base:14.6g} {change:14.6g} {first['unit']:8s} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
