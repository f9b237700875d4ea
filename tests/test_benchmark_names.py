"""The benchmark scripts reach into names of the package; a rename there
fails here, not at the next benchmark run.

An AST walk of `benchmarks/bench_kernels.py` resolves every dotted name
rooted at one of the modules `lp`, `tours`, `_kernels` and `certificates`
(such as `tours._tour_set.cache_clear`), and every name it imports from
`combcert`.  A walk of `perfbench/run.py` resolves every chain rooted at
`pkg`, the package as that script imports it (such as `pkg.lp.is_implied`).
Both scripts are only read.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "bench_kernels.py"
PERFBENCH = ROOT / "perfbench" / "run.py"
MODULES = ("lp", "tours", "_kernels", "certificates")


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


def test_bench_kernels_names_resolve():
    tree = ast.parse(SCRIPT.read_text(), filename=str(SCRIPT))
    modules = {name: importlib.import_module(f"combcert.{name}") for name in MODULES}
    checked, missing = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("combcert"):
            owner = importlib.import_module(node.module)
            pairs = [(owner, node.module, [alias.name]) for alias in node.names]
        elif isinstance(node, ast.Attribute) and (chain := _dotted(node)):
            if chain[0] not in modules:
                continue
            pairs = [(modules[chain[0]], chain[0], chain[1:])]
        else:
            continue
        for owner, root, names in pairs:
            name = ".".join([root, *names])
            checked.add(name)
            if not _resolves(owner, names):
                missing.add(name)
    assert {"tours._tour_set.cache_clear", "lp._audit_duality"} <= checked
    assert {"_kernels.hamiltonian_cycles", "combcert.certificates.BUILDERS"} <= checked
    assert sorted(missing) == []


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
