"""The package computes in exact rationals: no source file uses `float`.

An AST walk of every module of `combcert` finds each use of the builtin
name `float`: a call, a conversion passed as a function, or a type test.
"""

import ast
from pathlib import Path

import combcert


def test_no_float_in_the_package():
    package = Path(combcert.__file__).parent
    uses = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [
            f"{path.relative_to(package)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "float"
        ]
    assert uses == []
