"""Per-layer tracing of combcert from outside the package.

`Tracer.install()` replaces module attributes at layer boundaries with
timing wrappers; `uninstall()` puts the originals back.  Each wrapped call
is a span: its self time is its duration minus the time of the spans it
called, so the self times of all spans plus the time spent outside any
span add up to the traced wall time.  Counts are taken at the same
boundaries, from the call's arguments and result.

A function is patched under every name a loaded `combcert` module binds it
to (and inside module-level dicts such as `certificates.BUILDERS`), so a
call is traced however the caller imported it.  A boundary that no longer
exists in the package is skipped and its metrics read 0.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


def _count_scan(counts, call, result):
    n, lo, hi = call["num_vertices"], call["lo"], call["hi"]
    counts["kernels.scan_calls"] += 1
    counts["kernels.subsets_scanned"] += sum(comb(n, k) for k in range(lo, hi + 1))


def _count_tours(counts, call, result):
    counts["kernels.tours_enumerated"] += len(result)


def _count_solve(counts, call, result):
    counts["lp.solves"] += 1
    if result.dual is not None:
        counts["lp.dual_support"] += sum(1 for y in result.dual if y)


def _count_separation(counts, call, result):
    counts["lp.separations"] += 1
    counts["lp.separation_hits"] += result is not None


def _count_implication(counts, call, result):
    counts["lp.rounds"] += result.rounds
    counts["lp.rows_used"] += result.rows_used


def _count_sec_rows(counts, call, result):
    counts["constraints.sec_rows"] += len(result)


def _count_facet(counts, call, result):
    counts["tours.tight_tours"] += result.tight_tour_count


def _count_classify(counts, call, result):
    counts["combs.classify_calls"] += 1


def _count_build(counts, call, result):
    counts["certificates.members"] += len(result.members)


def _count_verify(counts, call, result):
    counts["certificates.verifies"] += 1
    counts["certificates.dominating"] += bool(result.dominates)


# (span name, defining module, attribute, count hook, materialize result).
# The entry points `is_implied` and `facet_test` are spans for their counts
# only: no `<layer>_s` metric reports them, so their self time lands in
# `other_s`.  Generators are materialized inside their span.
SPANS = (
    ("kernels.scan", "combcert._kernels", "sec_violations", _count_scan, False),
    ("kernels.tour_enum", "combcert._kernels", "hamiltonian_cycles", _count_tours, False),
    ("lp.simplex", "combcert.lp", "solve", _count_solve, False),
    ("lp.audit", "combcert.lp", "_audit_duality", None, False),
    ("lp.separate", "combcert.lp", "_most_violated_sec", _count_separation, False),
    ("lp.is_implied", "combcert.lp", "is_implied", _count_implication, False),
    ("constraints.sec_rows", "combcert.constraints", "gen_secs", _count_sec_rows, True),
    ("tours.enumerate", "combcert.tours", "enumerate_tours", None, True),
    ("tours.eval", "combcert.constraints", "evaluate", None, False),
    ("tours.rank", "combcert.tours", "_affine_rank", None, False),
    ("tours.facet_test", "combcert.tours", "facet_test", _count_facet, False),
    ("combs.classify", "combcert.combs", "classify", _count_classify, False),
    ("certificates.build", "combcert.certificates", "build_l1", _count_build, False),
    ("certificates.build", "combcert.certificates", "build_l2", _count_build, False),
    ("certificates.build", "combcert.certificates", "build_l3", _count_build, False),
    ("certificates.build", "combcert.certificates", "build_t1", _count_build, False),
    ("certificates.build", "combcert.certificates", "build_t2", _count_build, False),
    ("certificates.verify", "combcert.certificates", "verify", _count_verify, False),
    ("search.sample", "combcert.search", "sample_comb", None, False),
)

# Call counters without a span: (counter, module, class, method).
COUNTERS = (("tours.echelon_rows", "combcert.tours", "_IntEchelon", "add"),)

# Reported per-layer metrics.  Times and counts are per traced query; the
# two ratios are over all attempts in the run.
LAYER_TIMES = (
    "kernels.scan_s",
    "kernels.tour_enum_s",
    "lp.simplex_s",
    "lp.audit_s",
    "lp.separate_s",
    "constraints.sec_rows_s",
    "tours.enumerate_s",
    "tours.eval_s",
    "tours.rank_s",
    "combs.classify_s",
    "certificates.build_s",
    "certificates.verify_s",
    "search.sample_s",
)
LAYER_COUNTS = (
    "kernels.scan_calls",
    "kernels.subsets_scanned",
    "kernels.tours_enumerated",
    "lp.solves",
    "lp.rounds",
    "lp.rows_used",
    "lp.dual_support",
    "constraints.sec_rows",
    "tours.echelon_rows",
    "tours.tight_tours",
    "combs.classify_calls",
    "certificates.members",
)
LAYER_RATIOS = {
    "lp.separation_hit_ratio": ("lp.separation_hits", "lp.separations"),
    "certificates.dominates_ratio": ("certificates.dominating", "certificates.verifies"),
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [0.0]  # time of finished child spans, per open span
        self._patches: list[tuple[object, object, object, object]] = []
        for name, module, attr, hook, materialize in SPANS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            wrapper = self._span(name, original, hook, materialize)
            self._patches += [(c, k, original, wrapper) for c, k in _bindings(original)]
        for name, module, cls, method in COUNTERS:
            owner = getattr(sys.modules.get(module), cls, None)
            original = getattr(owner, method, None)
            if original is not None:
                wrapper = self._counter(name, original)
                self._patches.append((owner, method, original, wrapper))

    def _span(self, name, fn, hook, materialize):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        signature = inspect.signature(fn)

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - stack.pop()
                stack[-1] += duration
            if hook is not None:
                hook(counts, signature.bind(*args, **kwargs).arguments, result)
            return iter(result) if materialize else result

        return span

    def _counter(self, name, fn):
        counts = self.counts

        def counter(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counter

    def install(self) -> None:
        for container, key, _, wrapper in self._patches:
            _assign(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original, _ in self._patches:
            _assign(container, key, original)

    def layer_metrics(self, queries: int, traced_wall_s: float, plain_wall_s: float) -> dict:
        """Every per-layer metric, per traced query, with its unit."""
        out = {}
        for name in LAYER_TIMES:
            out[name] = (self.self_s[name[: -len("_s")]] / queries, "s/query")
        for name in LAYER_COUNTS:
            out[name] = (self.counts[name] / queries, "1/query")
        for name, (hits, attempts) in LAYER_RATIOS.items():
            base = self.counts[attempts]
            out[name] = (self.counts[hits] / base if base else 0.0, "ratio")
        layers = sum(self.self_s[name[: -len("_s")]] for name in LAYER_TIMES)
        out["other_s"] = ((traced_wall_s - layers) / queries, "s/query")
        out["trace.wall_s"] = (traced_wall_s / queries, "s/query")
        out["trace.overhead_s"] = ((traced_wall_s - plain_wall_s) / queries, "s/query")
        return out


def _bindings(fn):
    """Every (container, key) in a loaded combcert module that holds `fn`."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "combcert" and not name.startswith("combcert."):
            continue
        for key, value in vars(module).items():
            if value is fn:
                found.append((module, key))
            elif isinstance(value, dict):
                found += [(value, k) for k, v in value.items() if v is fn]
    return found


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)
