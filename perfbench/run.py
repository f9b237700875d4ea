#!/usr/bin/env python3
"""End-to-end benchmark of combcert verdicts, with a traced per-layer split.

Run from the root of a combcert checkout; the package is imported from
`src/` as it is, with whatever kernel backend it selects:

    python3 perfbench/run.py --workload lazy-k8 --seed 0 --seconds 30 --trace 0

One process runs one workload, single-threaded, as a closed loop: one
client sends the next verdict request (a *query*) when the previous one
returns, cycling through a query pool made from `--seed`, until
`--seconds` have passed.  Queries call the same public functions as the
CLI, in-process.  Every result is checked after the timed loop (see
`check`); a query that raised or failed the check counts as failed.

The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`.  The line before it is a
report with provenance (kernel backend, Python, commit, source digest,
nproc, seed), `failed_ratio`, exact counts, the correctness problems
found and the same figures in plain wall time, which `compare.py` reads.

End-to-end metrics (`--trace 0`).  Times are in seconds of a reference
CPU: each query's (and set-up's) wall time is scaled by the speed of the
host around it, measured by the calibration passes of `clock.py`, because
the raw wall time of a run on a shared host moves by up to half with what
other tenants run.
  verdicts_per_s   queries that passed the check, per second of query time
  verdict_p50_s    median query time
  verdict_tail_s   a high percentile of query time, fixed per workload
                   (`Workload.tail`) so that a 30-second run at the usual
                   host speed has at least 10 slower queries.  A fixed
                   percentile keeps a faster or slower host from changing
                   which one is reported; the report gives the number of
                   slower queries
  setup_s          median of 11 set-ups, each importing combcert, building
                   the instance and making the query pool
  peak_rss_mib     peak resident memory of the process, before the check

Per-layer metrics (`--trace 1`) come from `spans.py`.  Every query then
runs twice, traced and untraced, so that `trace.overhead_s` is measured
on the same queries.  `other_s` is traced time outside the reported
layers; on facet-k5 it is mostly the per-tour `FractionalPoint` that
`facet_test` builds.  These times are scaled to the reference CPU by the
run's median calibration pass; the report keeps them in wall time.

Workloads (why each was chosen):
  lazy-k8     lazy `is_implied` on "wild" combs over K_{8,8}: the subset
              scan of separation is about 60% of a query, 1-3 rounds.
              (K_{9,9} scans 4x the subsets, so a run held too few
              queries for its figures to repeat across seeds.)
  direct-k4   `is_implied(lazy=False)` on K_{4,4} (242 rows), all six
              families: one large tableau, no subset scan.  (On K_{5,5}
              a query takes ten times as long and its cost varies with
              the comb, so a run held too few queries to repeat.)
  facet-k5    `facet_test` on K_{5,5} (1,440 tours), all six families,
              no `polytope_dim` (as the CLI calls it): the only tour work.
  search-k10  `run_search` on K_{10,10}, one comb of each certified family
              a query: certificate build and verify, no LP and no tours.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

from clock import REFERENCE_S, Clock

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 11
SEARCH_FAMILIES = ("l1", "l2", "l3", "t1", "t2")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lazy" | "direct" | "facet" | "search"
    size: int  # n of the complete K_{n,n}
    pool: int  # distinct queries made from the seed, cycled in order
    tail: int  # percentile of verdict_tail_s (see the module docstring)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lazy-k8", "lazy", 8, 256, 90),
        Workload("direct-k4", "direct", 4, 384, 90),
        Workload("facet-k5", "facet", 5, 128, 85),
        Workload("search-k10", "search", 10, 256, 90),
    )
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_package():
    """Import combcert afresh, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "combcert" or m.startswith("combcert.")]:
        del sys.modules[name]
    importlib.import_module("combcert.search")  # the package does not import it
    return sys.modules["combcert"]


def make_queries(spec: Workload, pkg, instance, seed: int) -> list:
    rng = random.Random(seed)
    if spec.kind == "search":
        return [rng.randrange(1 << 31) for _ in range(spec.pool)]
    families = ("wild",) if spec.kind == "lazy" else pkg.search.FAMILIES
    return [
        pkg.search.sample_comb(rng, instance, families[i % len(families)])
        for i in range(spec.pool)
    ]


def setup(spec: Workload, seed: int):
    pkg = _import_package()
    instance = pkg.BipartiteInstance.complete(spec.size)
    return pkg, instance, make_queries(spec, pkg, instance, seed)


def verdict_function(spec: Workload, pkg, instance):
    """One query.  Looks up package attributes per call, so tracing sees it."""
    if spec.kind in ("lazy", "direct"):
        lazy = spec.kind == "lazy"
        return lambda comb: pkg.lp.is_implied(
            instance, pkg.combs.comb_inequality(instance, comb), lazy=lazy
        )
    if spec.kind == "facet":
        return lambda comb: pkg.tours.facet_test(
            instance, pkg.combs.comb_inequality(instance, comb)
        )
    return lambda seed: pkg.search.run_search(
        pkg.search.ExperimentConfig(
            seed=seed,
            size=spec.size,
            comb_count=len(SEARCH_FAMILIES),
            families=SEARCH_FAMILIES,
        )
    )


def summary(kind: str, result):
    """The exact verdict of one query, as stored in the golden file."""
    if kind in ("lazy", "direct"):
        return [result.status, str(result.optimum)]
    if kind == "facet":
        return [
            result.verdict.value,
            result.polytope_dim,
            result.tight_tour_count,
            result.tight_face_dim,
        ]
    return [
        [entry["builder"] for entry in result["certified"]],
        len(result["failures"]),
        len(result["violated"]),
        len(result["implied_without_certificate"]),
    ]


def _cross_check(spec: Workload, pkg, instance, query, result) -> list[str]:
    """Checks by an independent method; they hold on every seed."""
    problems = []
    if spec.kind in ("lazy", "direct"):
        target = pkg.combs.comb_inequality(instance, query)
        if result.status == "violated":
            witness = result.witness
            if not pkg.check_point(instance, witness).feasible:
                problems.append("violated witness fails check_point")
            if not pkg.comb_value(witness, query) > target.rhs:
                problems.append("violated witness does not exceed the comb rhs")
        elif result.status != "implied" or result.optimum > target.rhs:
            problems.append(f"status {result.status} with optimum {result.optimum}")
        if spec.kind == "direct":
            lazy = pkg.lp.is_implied(instance, target, lazy=True)
            if (lazy.status, lazy.optimum) != (result.status, result.optimum):
                problems.append(
                    f"direct {result.status} {result.optimum} != lazy {lazy.status} {lazy.optimum}"
                )
    elif spec.kind == "facet":
        builders = pkg.classify(instance, query).builder_names()
        if result.verdict.value == "facet" and builders:
            problems.append(f"facet verdict for a comb certified by {builders}")
    else:
        if result["failures"]:
            problems.append(f"{len(result['failures'])} search failures")
        if len(result["certified"]) != len(SEARCH_FAMILIES):
            problems.append(f"{len(result['certified'])} of {len(SEARCH_FAMILIES)} combs certified")
    return problems


def check(spec, pkg, instance, queries, entries, golden) -> tuple[int, list[str]]:
    """Gate every (pool index, outcome) entry; returns (failed, problems).

    The first run of a query left its full result and gets the full check;
    a repeat left its summary, which must equal the first run's.  `golden`
    (one summary per pool index) is checked when given.
    """
    first: dict[int, list] = {}
    failed, problems = 0, []
    for index, outcome in entries:
        found = []
        if isinstance(outcome, Exception):
            found.append(f"raised {type(outcome).__name__}: {outcome}")
        elif index in first:
            if outcome != first[index]:
                found.append(f"verdict {outcome} differs from the first run {first[index]}")
        else:
            first[index] = verdict = summary(spec.kind, outcome)
            found += _cross_check(spec, pkg, instance, queries[index], outcome)
            if golden is not None and golden[index] != verdict:
                found.append(f"verdict {verdict} != golden {golden[index]}")
        if found:
            failed += 1
            problems += [f"query {index}: {p}" for p in found]
    return failed, problems


def measure(fn, queries, seconds, kind, clock, tracer=None):
    """Closed loop over the pool until `seconds` have passed.

    Returns the (start, end) of every untraced query run, the wall times
    of the traced runs, and one (pool index, outcome) entry per query run.
    The outcome is the result on a query's first run and its summary on
    repeats, so memory does not grow with the number of queries a run
    completes.  With a tracer every query runs untraced and traced,
    alternating which goes first.  `clock` takes its calibration passes
    between queries.
    """
    query_spans, traced_times = [], []
    entries, seen = [], set()
    clock.sample()
    deadline = perf_counter() + seconds
    step = 0
    while True:
        index = step % len(queries)
        for traced in (False,) if tracer is None else (step % 2 == 1, step % 2 == 0):
            if traced:
                tracer.install()
            t0 = perf_counter()
            try:
                outcome = fn(queries[index])
            except Exception as exc:  # a raising query is a failed query
                outcome = exc
            t1 = perf_counter()
            if traced:
                tracer.uninstall()
                traced_times.append(t1 - t0)
            else:
                query_spans.append((t0, t1))
            if not isinstance(outcome, Exception):
                if index in seen:
                    outcome = summary(kind, outcome)
                seen.add(index)
            entries.append((index, outcome))
        step += 1
        clock.sample_if_due(t1)
        if t1 >= deadline:
            clock.sample()
            return query_spans, traced_times, entries


def load_golden(spec: Workload):
    with open(GOLDEN_PATH) as handle:
        document = json.load(handle)
    entry = document["workloads"][spec.name]
    if document["seed"] != DEFAULT_SEED or (entry["size"], entry["pool"]) != (spec.size, spec.pool):
        raise BenchmarkError(f"golden file does not match workload {spec.name}; regenerate it")
    return entry["verdicts"]


def provenance(pkg, seed: int) -> dict:
    root = os.getcwd()
    digest = hashlib.sha256()
    package_dir = os.path.dirname(pkg.__file__)
    for folder, dirs, files in sorted(os.walk(package_dir)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, package_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "kernel_backend": pkg.kernel_backend,
        "COMBCERT_PURE": os.environ.get("COMBCERT_PURE"),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run(spec: Workload, seed: int, seconds: float, trace: bool, golden) -> tuple[dict, dict]:
    """Set up, measure, check.  Returns (report, result line)."""
    clock = Clock()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        clock.sample()
        start = perf_counter()
        pkg, instance, queries = setup(spec, seed)
        setup_spans.append((start, perf_counter()))
        clock.sample()
        clock.sample()
    if not pkg.reproduce_tables("corrected").ok:
        raise BenchmarkError('reproduce_tables("corrected") is not ok')
    fn = verdict_function(spec, pkg, instance)
    report = {
        "workload": spec.name,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(pkg, seed),
    }

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    start = perf_counter()
    query_spans, traced, entries = measure(fn, queries, seconds, spec.kind, clock, tracer)
    elapsed = perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = check(spec, pkg, instance, queries, entries, golden)
    attempted = len(entries)
    walls = [end - start for start, end in query_spans]
    setup_walls = [end - start for start, end in setup_spans]
    if trace:
        # Layer times are scaled by the run's median calibration pass.
        scale = REFERENCE_S / clock.median_pass_s()
        layers = tracer.layer_metrics(len(traced), sum(traced), sum(walls))
        metrics = {
            name: {"value": v * scale if u == "s/query" else v, "unit": u}
            for name, (v, u) in layers.items()
        }
        report.update(
            queries_traced=len(traced),
            counts=dict(sorted(tracer.counts.items())),
            self_s=dict(sorted(tracer.self_s.items())),
            traced_wall_s=sum(traced),
            untraced_wall_s=sum(walls),
        )
    else:
        times = sorted(clock.scaled(start, end) for start, end in query_spans)
        tail_rank = math.ceil(len(times) * spec.tail / 100)
        setup_times = [clock.scaled(start, end) for start, end in setup_spans]
        metrics = {
            "verdicts_per_s": {"value": (attempted - failed) / sum(times), "unit": "1/s"},
            "verdict_p50_s": {"value": statistics.median(times), "unit": "s"},
            "verdict_tail_s": {"value": times[tail_rank - 1], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        report["tail"] = {
            "percentile": spec.tail,
            "samples": len(times),
            "samples_beyond": len(times) - tail_rank,
        }
        # The same figures in plain wall time, which the host's speed moves.
        ranked = sorted(walls)
        report["wall"] = {
            "verdicts_per_s": (attempted - failed) / elapsed,
            "verdict_p50_s": statistics.median(ranked),
            "verdict_tail_s": ranked[tail_rank - 1],
            "setup_s": statistics.median(setup_walls),
        }
        report["timed_s"] = elapsed
    report["calibration"] = {
        "reference_s": REFERENCE_S,
        "median_pass_s": clock.median_pass_s(),
        "passes": len(clock.passes),
    }
    report.update(
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        golden_checked=golden is not None,
        problems=problems[:20],
        setup_runs_s=setup_walls,
        metrics=metrics,
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(source, "combcert", "__init__.py")):
        print("perfbench: no src/combcert here; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    spec = WORKLOADS[args.workload]
    try:
        golden = load_golden(spec) if args.seed == DEFAULT_SEED else None
        report, result = run(spec, args.seed, args.seconds, bool(args.trace), golden)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
