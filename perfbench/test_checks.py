"""Tests of the benchmark itself: every correctness check passes on a real
output of the program and fails on a perturbed one (negative controls), and
the host clock takes its probes out of the time it reports.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import signal
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import ifr  # noqa: E402
import ifr.checkpoint  # noqa: E402
import ifr.cli  # noqa: E402
import ifr.gradcheck  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HEAD = dict(channels=8, predictor_classes=1, shortcut_mode="conv1x1", weight_norm=True,
            gn2_scale_init=0.1, shortcut_gain_init=0.2)


@pytest.fixture(scope="module")
def samples():
    return ifr.data.generate(ifr.data.DatasetSpec(seed=3, count=10, channels=8))


def _train(strategy, depth, samples, iters=4):
    head = ifr.blocks.HeadConfig(strategy=strategy, depth_or_budget=depth, **HEAD)
    cfg = ifr.training.TrainConfig(total_iters=iters, decay_points=(), warmup_iters=0,
                                   batch_size=2, seed=0)
    state, rows = ifr.training.train(head, cfg, samples, log_every=2)
    return head, state, rows


@pytest.fixture(scope="module")
def explicit_cell(samples):
    return _train("explicit-independent", 2, samples)


# --- the reference itself


def test_reference_block_matches_program_block():
    p = ifr.gradcheck.contractive_block(seed=5)
    x = ifr.rng.CounterRng(1).normal((8, 14, 14))
    h = ifr.rng.CounterRng(2).normal((8, 14, 14))
    ours = reference.block_map(p, x)(h)
    theirs = ifr.blocks.double_residual_forward(p, h, x)
    assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)


def test_reference_logits_match_program(explicit_cell, samples):
    head, state, _ = explicit_cell
    x = samples[0].feature
    h = ifr.blocks.stacked_head_forward(state.params.stages, x)
    theirs = ifr.blocks.mask_predictor_forward(state.params.predictor, h)
    ours = reference.finite_head_logits(state.params, head.strategy, head.depth_or_budget, x)
    assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)


# --- evaluation checks


def _captured_eval(state, samples):
    losses = []
    with workloads._capture(ifr.training, "bce_mask_loss", losses):
        metrics = ifr.training.evaluate(state, samples)
    return metrics, [a[0] for a, _ in losses], [a[1] for a, _ in losses]


def test_eval_check_passes_and_fails_on_shifted_logits(explicit_cell, samples):
    _, state, _ = explicit_cell
    metrics, logits, masks = _captured_eval(state, samples)
    assert checks.eval_matches_reference(metrics.mean_iou, metrics.mean_loss, logits, masks) == []
    shifted = [z + 0.5 for z in logits]
    found = checks.eval_matches_reference(metrics.mean_iou, metrics.mean_loss, shifted, masks)
    assert any("IoU" in f for f in found) and any("BCE" in f for f in found)


def test_constant_predictor_check(samples):
    masks = [s.mask for s in samples]
    assert checks.beats_constant_predictor(1.0, masks) == []
    assert checks.beats_constant_predictor(reference.constant_predictor_iou(masks), masks)


def test_loss_window_check():
    assert checks.loss_decreases([{"loss": 0.6}, {"loss": 0.4}, {"loss": 0.2}]) == []
    assert checks.loss_decreases([{"loss": 0.2}, {"loss": 0.4}, {"loss": 0.6}])
    assert checks.loss_decreases([{"loss": 0.2}])


# --- solver checks


def test_solve_checks_pass_on_a_converged_solve_and_fail_on_perturbed_roots():
    p = ifr.gradcheck.contractive_block(seed=5)
    x = ifr.rng.CounterRng(1).normal((8, 14, 14))
    cfg = ifr.solver.SolverConfig(max_iters=40, rel_tol=1e-8)
    rec = ifr.implicit.ifr_forward(p, x, cfg)
    root = rec.equilibrium
    assert rec.forward_result.converged
    assert checks.solve_is_sound(p, x, root, True, cfg.rel_tol) == []
    off = root + 1e-3
    assert any("converged" in f for f in checks.solve_is_sound(p, x, off, True, cfg.rel_tol))
    far = root + 10.0
    assert any("h0 = 0" in f for f in checks.solve_is_sound(p, x, far, False, cfg.rel_tol))


# --- gradient check


def test_gradient_check_passes_and_fails_on_scaled_gradient(explicit_cell, samples):
    head, state, _ = explicit_cell
    sample = samples[0]
    _, grads, _, _ = ifr.training.sample_loss_and_grads(state.params, head, state.solver_cfg,
                                                        sample)
    leaves = dict(state.params.leaf_items())
    grad_leaves = dict(grads.leaf_items())

    def loss():
        z = reference.finite_head_logits(state.params, head.strategy, head.depth_or_budget,
                                         sample.feature)
        return reference.bce(z, sample.mask)

    coords = [("stage0.w1.direction", 5), ("stage1.gn2.scale", 3),
              ("predictor.deconv.direction", 7), ("stage1.shortcut.gain", 2)]
    assert checks.gradients_match_differences(loss, leaves, grad_leaves, coords) == []
    scaled = {k: v * 1.01 for k, v in grad_leaves.items()}
    assert checks.gradients_match_differences(loss, leaves, scaled, coords)
    before = {k: v.copy() for k, v in leaves.items()}
    checks.gradients_match_differences(loss, leaves, grad_leaves, coords)
    assert all(np.array_equal(before[k], leaves[k]) for k in leaves)


# --- analysis-command checks


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ifr.cli.main(argv)
    return code, out.getvalue()


def test_grad_check_check_passes_and_fails_on_broken_vjp():
    code, text = _cli(["grad-check", "--trials", "1", "--seed", "0"])
    assert checks.grad_check_passes(code, *checks.parse_grad_check(text)) == []
    assert 0.0 < checks.grad_check_headroom(*checks.parse_grad_check(text)) <= 1.0
    code, text = _cli(["grad-check", "--trials", "1", "--seed", "0", "--break-vjp"])
    assert len(checks.grad_check_passes(code, *checks.parse_grad_check(text))) == 3
    assert checks.grad_check_passes(0, 2e-4, 1e-9)
    assert checks.grad_check_passes(0, 1e-9, 2e-3)
    with pytest.raises(ValueError):
        checks.parse_grad_check("OK\n")


def test_diagnose_checks_pass_and_fail_on_perturbed_outputs(tmp_path, samples):
    head = ifr.blocks.HeadConfig(strategy="implicit-broyden", depth_or_budget=15, **HEAD)
    cfg = ifr.training.TrainConfig(total_iters=0, decay_points=(), warmup_iters=0, seed=4)
    state, _ = ifr.training.train(head, cfg, samples)
    ifr.checkpoint.save_checkpoint(tmp_path / "init.ifr", head, state.params)
    code, _ = _cli(["--output-dir", str(tmp_path), "diagnose", "--checkpoint", "init.ifr",
                    "--steps", "60", "--inputs", "1", "--seed", "4", "--out", "d.csv"])
    assert code == 0
    rows = checks.diagnose_rows((tmp_path / "d.csv").read_text())
    gaps = [v for _, m, _, v in rows if m == "implicit_gap"]
    assert checks.implicit_gaps_small(gaps) == []
    assert checks.implicit_gaps_small([g + 1e-5 for g in gaps])
    assert checks.implicit_gaps_small([float("nan")])
    assert checks.implicit_gaps_small([])

    (end,) = [v for _, m, _, v in rows if m == "spectral_radius_at_end"]
    x = ifr.rng.CounterRng(4).split(0).normal((8, 14, 14))
    apply = reference.block_map(state.params.stages[0], x)
    h = np.zeros_like(x)
    for _ in range(60):
        h = apply(h)
    jac = reference.dense_jacobian(apply, h)
    assert checks.spectral_radius_matches(end, jac) == []
    assert checks.spectral_radius_matches(end + 0.02, jac)


def test_checkpoint_round_trip_detects_a_changed_leaf(tmp_path, monkeypatch, explicit_cell):
    head, state, _ = explicit_cell
    w = workloads.build(ifr)["train-implicit-converged"]
    w.workdir = tmp_path
    w.checkpoint_round_trip(head, state)
    load = ifr.checkpoint.load_checkpoint

    def altered(path):
        cfg, params = load(path)
        params.predictor.proj.bias += 1e-12
        return cfg, params

    monkeypatch.setattr(ifr.checkpoint, "load_checkpoint", altered)
    with pytest.raises(ValueError, match="predictor.proj.bias"):
        w.checkpoint_round_trip(head, state)
    monkeypatch.setattr(ifr.checkpoint, "load_checkpoint",
                        lambda path: (dataclasses.replace(load(path)[0], depth_or_budget=3),
                                      load(path)[1]))
    with pytest.raises(ValueError, match="depth_or_budget"):
        w.checkpoint_round_trip(head, state)


# --- tracing


def test_tracer_restores_every_binding_and_self_times_add_up(samples):
    before = {(site, attr): getattr(getattr(ifr, site), attr)
              for _, attr, _, sites in spans._SIMPLE_SITES for site in sites}
    tracer = spans.Tracer(ifr)
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ifr.training.OffEquilibriumWarning)
            _train("implicit-broyden", 3, samples, iters=2)
    finally:
        tracer.uninstall()
    assert all(getattr(getattr(ifr, m), a) is f for (m, a), f in before.items())
    (root,) = [s for s in tracer.spans if s[1] == -1]
    total = spans.subtree_self_sum(tracer.spans, spans.self_times(tracer.spans), "training.train")
    assert total == pytest.approx((root[3] - root[2]) * 1e-9, rel=1e-12)
    metrics = spans.layer_metrics([], tracer.spans, 1.0, 1.0, 1.0, spans.span_cost_ns(1000))
    assert metrics["training.sample_loss_and_grads.calls"] == 4
    assert metrics["implicit.ifr_forward.calls"] > 0
    assert 1 <= metrics["solver.forward.fevals_per_solve"] <= 4


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in spans.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in spans.PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.build(ifr))


# --- host clock


def test_host_clock_takes_its_probes_out_and_restores_the_alarm():
    """A call of known length comes back without the probes inside it, and
    with probing off it is plain wall time."""
    previous = signal.getsignal(signal.SIGALRM)
    handlers_inside = []

    def busy(seconds):
        handlers_inside.append(signal.getsignal(signal.SIGALRM))
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    _, seconds, host_s = hostspeed.HostClock().call(busy, 1.2)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert handlers_inside[0] is not previous
    # busy() spins on the wall clock, so the probes inside cut its own time
    assert 0.9 < seconds < 1.2 - 0.5 * hostspeed.NOMINAL_PROBE_S
    assert host_s > 0.0
    _, seconds, host_s = hostspeed.HostClock(probing=False).call(busy, 0.2)
    assert seconds == host_s >= 0.2
