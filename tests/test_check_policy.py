"""Each array is checked once, where it enters a layer, and the ops check nothing.

`ops.check_maps` and `ops.check_finite` sum an array to find a non-finite
entry. A check inside an op re-sums, on every call, an array that the layer
calling it made itself or checked on entry. The scan reads src/ifr/*.py with
ast, as tests/test_no_test_only_code.py does, and lists the top-level
function or method that calls either check: only the layer entry points may,
and in `ops` only `check_maps`, which is the finiteness check plus an axis
count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ifr"
CHECKS = {"check_maps", "check_finite"}
ENTRY_POINTS = {
    "blocks._check_operands",
    "blocks.mask_predictor_forward",
    "ops.check_maps",
}


def _callers(scope: str, body) -> set[str]:
    """Names (scope.function, or scope.Class.method) of the definitions in body that
    call a check anywhere inside them."""
    found = set()
    for node in body:
        if isinstance(node, ast.ClassDef):
            found |= _callers(f"{scope}.{node.name}", node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) in CHECKS:
                    found.add(f"{scope}.{node.name}")
    return found


def test_only_layer_entry_points_check_their_operands():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers |= _callers(path.stem, tree.body)
    assert callers == ENTRY_POINTS
