"""The benchmark's span tracer must find, wrap and restore every name it rebinds.

perfbench/spans.py rebinds functions by name on the package's modules. A
change that deletes or moves one of those names breaks the benchmark; this
test catches it without running a workload.
"""

import importlib.util
from pathlib import Path

import ifr
import ifr.checkpoint
import ifr.cli
import ifr.gradcheck

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

MODULES = ("ops", "blocks", "solver", "implicit", "training", "diagnostics",
           "gradcheck", "checkpoint", "data", "cli")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_site_and_restores_every_binding():
    spans = load_spans()
    before = {name: dict(vars(getattr(ifr, name))) for name in MODULES}
    sites = {(site, attr) for _, attr, _, site_list in spans._SIMPLE_SITES for site in site_list}
    tracer = spans.Tracer(ifr)
    tracer.install()
    try:
        for site, attr in sites:
            assert getattr(getattr(ifr, site), attr) is not before[site][attr], (site, attr)
    finally:
        tracer.uninstall()
    for name in MODULES:
        after = vars(getattr(ifr, name))
        assert after.keys() == before[name].keys(), name
        changed = [k for k, v in before[name].items() if after[k] is not v]
        assert changed == [], (name, changed)
