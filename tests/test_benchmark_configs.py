"""The benchmark's workloads must still build every config they set.

perfbench/workloads.py builds HeadConfig, SolverConfig, TrainConfig and
DatasetSpec records with keyword fields (the caps, double_residual,
noise_sigma, ...). A change that deletes one of those fields breaks the
benchmark; this test catches it without training anything.
"""

import importlib.util
import json
import sys
from pathlib import Path

import ifr

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_workloads(monkeypatch):
    # workloads.py imports its sibling modules (checks, hostspeed, reference) by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_builds_its_configs(monkeypatch):
    workloads = load_workloads(monkeypatch)
    built = workloads.build(ifr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert sorted(built) == sorted(w["name"] for w in declared)
    for name, workload in built.items():
        if isinstance(workload, workloads.AnalyzeWorkload):
            assert isinstance(workload.head(), ifr.blocks.HeadConfig)
            continue
        for strategy, depth in workload.cells:
            head = workload.head(strategy, depth)
            assert (head.strategy, head.depth_or_budget) == (strategy, depth), name
        assert isinstance(workload.solver_cfg, ifr.solver.SolverConfig)
        assert isinstance(workload.train_cfg, ifr.training.TrainConfig)
        ifr.data.DatasetSpec(seed=workloads.TRAIN_DATA_SEED, count=workloads.TRAIN_COUNT,
                             channels=8, **workload.data_overrides)
