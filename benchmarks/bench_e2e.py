#!/usr/bin/env python3
"""Record the end-to-end benchmark of a checkout in `BENCH_e2e.json`.

A thin wrapper over `perfbench/run.py`: for every workload that
`BENCHMARK.json` declares and every seed S in `SEEDS`, it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0
    python3 perfbench/run.py --workload W --seed S --seconds T --trace 1

each in its own process, from the root of the checkout that holds this
script, where T is `BENCHMARK.json`'s `run_seconds`.  The file it writes
holds the commit (and whether the package source differs from it), the
Python version, the kernel backend and the package's source digest as
`run.py` reports them, and per workload:

  end_to_end   the median over seeds of each end-to-end metric (--trace 0)
  per_layer    the median over seeds of each per-layer metric (--trace 1),
               times in reference seconds per query, counts per query
  runs         every run's seed, trace flag, correctness, attempted and
               failed queries

When the source differs from the commit, as when a change is measured
before it is committed, `commit` names the commit it was made on, and
only `source_sha256` identifies the source measured.

It exits 1 when a run fails or reports a failed query, after writing the
file, and 2 when `run.py` does not produce its result line.

Usage: python3 benchmarks/bench_e2e.py [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (0, 1, 2)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One `run.py` process; returns its (report, result) lines."""
    command = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        print(f"bench_e2e: {' '.join(command)} exited {done.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(lines[-2]), json.loads(lines[-1])


def medians(results: list[dict]) -> dict:
    names = results[0]["metrics"]
    return {
        name: {
            "value": statistics.median(r["metrics"][name]["value"] for r in results),
            "unit": names[name]["unit"],
        }
        for name in names
    }


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=os.path.join(ROOT, "BENCH_e2e.json"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]

    document = {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "source_differs_from_commit": bool(git("status", "--porcelain", "--", "src")),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    failed = False
    for workload in workloads:
        entry = {"runs": []}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = []
            for seed in SEEDS:
                report, result = run_once(workload, seed, seconds, trace)
                provenance = report["provenance"]
                for field in ("python", "kernel_backend", "source_sha256"):
                    document.setdefault(field, provenance[field])
                results.append(result)
                entry["runs"].append(
                    {"seed": seed, "trace": trace}
                    | {k: result[k] for k in ("correct", "attempted", "failed")}
                )
                failed |= not result["correct"] or result["failed"] > 0
                print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}", flush=True)
            entry[key] = medians(results)
        document["workloads"][workload] = entry

    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
