"""Every top-level function and class in the package is used by the package.

A definition that only tests call is a second implementation the program
never runs, and a test of it certifies nothing the program does. The scan
reads src/ifr/*.py with ast: a top-level def or class counts as used when
some Name, Attribute or import alias in the package refers to it. Names
that perfbench/ calls are exempt, since the benchmark calls them directly.
"""

import ast
from pathlib import Path

from test_benchmark_names import benchmark_names

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ifr"


def test_every_top_level_definition_is_used_by_the_package():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 100  # the scan found the package
    exempt = benchmark_names()
    unused = [f"{module}.{name}" for module, name in defined
              if name not in used and (module, name) not in exempt]
    assert not unused, f"only tests call these package definitions: {unused}"
