"""The benchmark's rounds must run on the program without a failed operation.

Each workload of perfbench/workloads.py runs at a reduced size the way
perfbench/run.py runs it traced: set-up, one round, one more round under the
span tracer, then the workload's checks. A program change that breaks an
operation, a round's own checks or the tracer's bindings (for example a map
of a shape that perfbench/reference.py or the tracer's FLOP count cannot
take) fails here. At six training iterations the train workloads' quality
checks (loss decrease, beating the constant predictor) are not expected to
pass, so only that their checks run is asserted.
"""

import json
from pathlib import Path

import pytest

import ifr
import ifr.checkpoint
import ifr.cli
import ifr.gradcheck

from test_benchmark_configs import load_workloads
from test_tracer_bindings import load_spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]

SMALL = dict(TRAIN_ITERS=6, LOG_EVERY=3, TRAIN_COUNT=40, EVAL_COUNT=24, DIAGNOSE_STEPS=60)

# F-evaluations the tracer counts in one traced reduced-size analyze round: a
# rewrite of the block's forward or VJP must keep them visible to its spans.
# A Jacobian apply serves every spectral-radius probe at once, so diagnose makes
# 60 per radius: 4 probe steps of the unroll and the end point, 300 in all.
# grad-check's one adjoint solve runs its 15 steps; its zero start needs no VJP.
ANALYZE_SPAN_COUNTS = {
    "blocks.block_apply": 1762,
    "blocks.block_vjp.input_only": 15,
    "diagnostics.jacobian_apply": 300,
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_rounds_run_untraced_and_traced(monkeypatch, tmp_path, name):
    workloads = load_workloads(monkeypatch)
    for attr, value in SMALL.items():
        monkeypatch.setattr(workloads, attr, value)
    spans = load_spans()
    workload = workloads.build(ifr)[name]
    # as in a traced run: no host-speed probes interrupt the calls
    workload.clock = workloads.hostspeed.HostClock(probing=False)
    workload.setup(5, tmp_path)
    rounds = [workload.run_round()]
    tracer = spans.Tracer(ifr)
    tracer.install()
    try:
        rounds.append(workload.run_round())
    finally:
        tracer.uninstall()
    failures = workload.check()
    for rnd in rounds:
        assert rnd.attempted > 0
        assert (rnd.failed, rnd.causes) == (0, [])
        assert rnd.failures == []
    assert tracer.spans
    if name == "analyze":
        assert failures == []
        names = [span[0] for span in tracer.spans]
        assert {span: names.count(span) for span in ANALYZE_SPAN_COUNTS} == ANALYZE_SPAN_COUNTS
