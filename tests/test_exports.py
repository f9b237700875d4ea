"""The package exports only what the program, its benchmarks or README use.

A public name in `combcert/__init__.py` passes when some code outside the
tests reaches it: a name, attribute or import in a `src/combcert` module
other than `__init__.py` (a definition alone does not count, and neither
does a docstring), a name, attribute, import or string in a script under
`benchmarks/` or `perfbench/` (which look some names up by string), or a
word of README.  A name that only the tests read fails here; it belongs
in `tests/oracles.py` or nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "combcert"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _references(path: Path, strings: bool) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_export_is_used_outside_the_tests():
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references(path, strings=False)
    for folder in ("benchmarks", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            used |= _references(path, strings=True)
    exports = _exports()
    assert {"facet_test", "kernel_backend"} <= set(exports)
    assert [name for name in exports if name not in used] == []
