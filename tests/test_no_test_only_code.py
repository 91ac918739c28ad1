"""Every top-level function, class and constant in the package is used by the package.

A definition that only tests call is a second implementation the program
never runs, and a test of it certifies nothing the program does; a constant
nothing reads is bookkeeping left behind. The scan reads src/ifr/*.py with
ast: a top-level def, class or assigned name counts as used when some Name
load, Attribute or import alias in the package refers to it. Dunder names
such as `__version__` are exempt, since Python and packaging tools read
them, and so are names that perfbench/ calls, since the benchmark calls
them directly.
"""

import ast
from pathlib import Path

from test_benchmark_names import benchmark_names

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ifr"


def test_every_top_level_definition_is_used_by_the_package():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.stem, name.id) for target in targets
                            for name in ast.walk(target) if isinstance(name, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 100  # the scan found the package
    exempt = benchmark_names()
    unused = [f"{module}.{name}" for module, name in defined
              if name not in used and (module, name) not in exempt
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"only tests call these package definitions: {unused}"
