"""The benchmark scripts reach into names of the package; a rename there
fails here, not at the next benchmark run.

`benchmarks/bench_kernels.py` is run at its defaults in a subprocess:
running it resolves every name it reads and runs its own asserts, and
each of its four measurements must print its lines.  Its lazy LP
measurement, which patches the tableau's pivot, simplex loops and copy,
also runs in process at a small size, and must restore what it patched.
A walk of `perfbench/run.py` resolves every chain rooted at `pkg`, the
package as that script imports it (such as `pkg.lp.is_implied`), and a
walk of `perfbench/spans.py` resolves every target its `SPANS` and
`COUNTERS` tables patch (such as `lp.solve` or
`tours._IntEchelon.add`); both scripts are only read.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"
PERFBENCH = ROOT / "perfbench" / "run.py"
SPANS = ROOT / "perfbench" / "spans.py"
# Span targets the package no longer has; their layers read 0 until the
# benchmark's tables are re-pointed (ROADMAP item 1).
STALE_SPAN_TARGETS = {"_kernels.sec_violations", "tours.enumerate_tours", "constraints.evaluate"}


def _dotted(node):
    """An attribute chain's names, root first; None unless its root is a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def _resolves(obj, names) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_bench_kernels_runs_every_measurement():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), path]))}
    done = subprocess.run(
        [sys.executable, str(SCRIPT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "seed: 7"
    # check_point on three points, the tour search on K_{5,5} and K_{6,6},
    # warm lazy solve on K_{30,30}, facet_test on K_{6,6}
    heads = [line.split(" n=")[0].strip() for line in lines[1:]]
    assert heads == ["verify-point"] * 3 + ["tour search"] * 2 + ["lazy LP", "facet test"]


def test_bench_lazy_past_the_cap_runs_small_and_restores_what_it_patches(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    lp = bench.lp
    patched = (lp._Tableau._pivot, lp._Tableau._primal, lp._Tableau._dual, lp._Tableau.copy)
    patched += (lp._subtract, lp._audit_duality)
    bench.bench_lazy_past_the_cap(7, n=4, combs=2, repeat=1)
    after = (lp._Tableau._pivot, lp._Tableau._primal, lp._Tableau._dual, lp._Tableau.copy)
    assert after + (lp._subtract, lp._audit_duality) == patched
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("lazy LP      n= 8 (2 combs, ")
    words = line.split()
    pivots = float(words[words.index("pivots/query") - 1])
    eliminations = float(words[words.index("row") - 1])
    copied = words[words.index("copies") + 1 : words.index("copies") + 4]
    assert pivots > 0 and eliminations > 0
    assert copied == ["8", "of", "24"]  # the degree rows; every box row is derived


def test_perfbench_package_names_resolve():
    tree = ast.parse(PERFBENCH.read_text(), filename=str(PERFBENCH))
    pkg = importlib.import_module("combcert")
    importlib.import_module("combcert.search")  # run.py imports it too
    chains = {
        ".".join(chain)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (chain := _dotted(node)) and chain[0] == "pkg"
    }
    # Every chain also yields its prefixes (`pkg.lp` of `pkg.lp.is_implied`).
    leaves = {c for c in chains if not any(d.startswith(c + ".") for d in chains)}
    assert {"pkg.lp.is_implied", "pkg.search.ExperimentConfig", "pkg.kernel_backend"} <= leaves
    assert len(leaves) >= 14
    missing = [c for c in sorted(chains) if not _resolves(pkg, c.split(".")[1:])]
    assert missing == []


def _table(tree, name):
    """The literal tuples of a module-level `name = (...)` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return [[getattr(e, "value", None) for e in row.elts] for row in node.value.elts]
    raise AssertionError(f"{name} not found")


def test_perfbench_span_targets_resolve():
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    targets = [[module, attr] for _, module, attr, *_ in _table(tree, "SPANS")]
    targets += [[module, cls, method] for _, module, cls, method in _table(tree, "COUNTERS")]
    assert len(targets) >= 20
    unresolved = set()
    for module, *names in targets:
        assert module.startswith("combcert.")
        if not _resolves(importlib.import_module(module), names):
            unresolved.add(".".join([module.removeprefix("combcert."), *names]))
    assert unresolved <= STALE_SPAN_TARGETS
