"""Every package name the benchmark calls must still resolve.

perfbench/ calls the package as ifr.<module>.<name> and rebinds a few
training names through workloads._capture. The tier-1 suite does not run
perfbench/, so deleting or renaming one of those names would break the
benchmark with this suite still green; this test reads perfbench/*.py as
text and catches it.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_REFERENCE = re.compile(r"\bifr\.([a-z_]+)\.([A-Za-z_]\w*)")
# _capture(training, "bce_mask_loss", ...): the module variable is named after the module
_CAPTURE = re.compile(r'_capture\(\s*([a-z_]+),\s*"(\w+)"')


def benchmark_names() -> set[tuple[str, str]]:
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        names.update(_REFERENCE.findall(text))
        names.update(_CAPTURE.findall(text))
    return names


def test_every_name_the_benchmark_calls_resolves():
    names = benchmark_names()
    # the scan finds both kinds of reference
    assert {("blocks", "double_residual_forward"), ("training", "ifr_forward")} <= names
    missing = []
    for module, name in sorted(names):
        try:
            found = hasattr(importlib.import_module(f"ifr.{module}"), name)
        except ImportError:
            found = False
        if not found:
            missing.append(f"ifr.{module}.{name}")
    assert not missing, f"perfbench/ calls names the package lacks: {missing}"
