"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Strategy cells are trained once per session (see conftest.CellGrid) and
shared across criteria. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines as they complete.
"""

import numpy as np
import pytest

from ifr import data, training
from ifr.blocks import (
    EXPLICIT,
    IMPLICIT,
    UNROLLED,
    HeadConfig,
    block_apply_factory,
    count_parameters,
)
from ifr.diagnostics import estimate_spectral_radius, implicit_gap, spectral_radius
from ifr.gradcheck import run_grad_check
from ifr.implicit import ifr_forward
from ifr.rng import CounterRng
from ifr.solver import SolverConfig, fixed_point_iterate

from conftest import GRID_DATA, GRID_SOLVER, grid_head, grid_train_cfg

import test_ops


def _report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def coco_head(strategy: str, depth: int, multiplier: float = 1.0) -> HeadConfig:
    return HeadConfig(
        strategy=strategy, depth_or_budget=depth, channels=256,
        channel_multiplier=multiplier, predictor_classes=80,
        shortcut_mode="identity", weight_norm=False,
    )


def test_criterion_1_parameter_counts():
    implicit_count = count_parameters(coco_head(IMPLICIT, 15))
    explicit_count = count_parameters(coco_head(EXPLICIT, 4))
    rounded = {
        "implicit": round(implicit_count / 1e6, 1),
        "explicit": round(explicit_count / 1e6, 1),
    }
    sweep = {
        m: round(count_parameters(coco_head(IMPLICIT, 15, m)) / 1e6, 1)
        for m in (1 / 8, 1 / 4, 1 / 2, 1.0, 2.0)
    }
    ratio = implicit_count / explicit_count
    ok = (
        rounded["implicit"] == 1.5
        and rounded["explicit"] == 5.0
        and list(sweep.values()) == [0.4, 0.6, 0.9, 1.5, 2.6]
        and ratio < 0.30
    )
    _report(
        1, ok,
        f"P(M) implicit {rounded['implicit']} / explicit {rounded['explicit']}, "
        f"multiplier sweep {list(sweep.values())}, ratio {ratio:.4f} < 0.30",
    )


def test_criterion_2_gradient_correctness():
    result = run_grad_check(trials=20, channels=8, spatial=6, budget=15, seed=0)
    ok = result.fd_rel_error <= 1e-4 and result.unroll_rel_error <= 1e-3
    _report(
        2, ok,
        f"20 contractive blocks: max rel err vs finite differences "
        f"{result.fd_rel_error:.2e} (<=1e-4), vs 200-step unroll backprop "
        f"{result.unroll_rel_error:.2e} (<=1e-3)",
    )


def test_criterion_3_fixed_point_fidelity(trained_implicit, grid_dataset):
    block = trained_implicit.state.params.stages[0]
    cfg = SolverConfig(max_iters=15, rel_tol=1e-12)
    holdout = grid_dataset[-10:]
    gaps = [
        implicit_gap(block, s.feature, cfg, fixed_point_iterate(
            block_apply_factory(block, s.feature), np.zeros_like(s.feature), 10_000)[0])[0]
        for s in holdout
    ]
    ok = max(gaps) <= 1e-6
    _report(
        3, ok,
        f"Broyden root (budget 15) vs 10k-step unroll on the trained block: "
        f"max-abs gap {max(gaps):.2e} <= 1e-6 over {len(gaps)} inputs",
    )


def test_criterion_4_spectral_radius(trained_implicit):
    # estimator validated against a dense eigenvalue oracle first
    rng = CounterRng(4242)
    worst_est_err = 0.0
    for t in range(3):
        a = rng.split(t).normal((16, 16)) / 4.0
        oracle = float(max(np.abs(np.linalg.eigvals(a))))
        est = estimate_spectral_radius(
            lambda v: v @ a.T, (16,), probes=4, power_iters=400, seed=t
        )
        worst_est_err = max(worst_est_err, abs(est - oracle))
    block = trained_implicit.state.params.stages[0]
    cfg = SolverConfig(max_iters=30, rel_tol=1e-10)
    input_rng = CounterRng(777)
    radii = []
    for i in range(10):
        x = input_rng.split(i).normal((GRID_DATA.channels, 14, 14))
        rec = ifr_forward(block, x, cfg)
        radii.append(
            spectral_radius(block, x, rec.equilibrium, probes=3, power_iters=60, seed=i)
        )
    ok = max(radii) < 1.0 and worst_est_err <= 1e-2
    _report(
        4, ok,
        f"estimator error vs eigen oracle {worst_est_err:.2e} <= 1e-2; "
        f"radius at trained equilibrium max {max(radii):.3f} < 1 over 10 inputs",
    )


def test_criterion_5_depth_trend(cell_grid):
    iou0 = cell_grid.cell(EXPLICIT, 0).final_iou
    iou2 = cell_grid.cell(EXPLICIT, 2).final_iou
    iou4 = cell_grid.cell(EXPLICIT, 4).final_iou
    shared4 = cell_grid.cell(UNROLLED, 4).final_iou
    ok = iou0 < iou2 and iou4 >= iou2 - 0.01 and abs(shared4 - iou4) <= 0.02
    _report(
        5, ok,
        f"IoU M=0 {iou0:.4f} < M=2 {iou2:.4f}, M=4 {iou4:.4f} >= M=2 - 0.01; "
        f"|shared N=4 {shared4:.4f} - independent M=4| = {abs(shared4 - iou4):.4f} <= 0.02",
    )


def test_criterion_6_implicit_parity_and_ratio(cell_grid):
    implicit_iou = cell_grid.cell(IMPLICIT, 15).final_iou
    unrolled_iou = cell_grid.cell(UNROLLED, 4).final_iou
    ratio = count_parameters(coco_head(IMPLICIT, 15)) / count_parameters(coco_head(EXPLICIT, 4))
    ok = abs(implicit_iou - unrolled_iou) <= 0.02 and ratio < 0.30
    _report(
        6, ok,
        f"|implicit {implicit_iou:.4f} - unrolled {unrolled_iou:.4f}| = "
        f"{abs(implicit_iou - unrolled_iou):.4f} <= 0.02; param ratio {ratio:.4f} < 0.30",
    )


def test_criterion_7_solver_budget_trend(cell_grid):
    ious = {b: cell_grid.cell(IMPLICIT, b).final_iou for b in (3, 5, 10, 15, 20)}
    nondecreasing = ious[3] <= ious[5] <= ious[10] <= ious[15]
    flat = abs(ious[20] - ious[15]) <= 0.01
    strict = ious[3] < ious[10]  # module-level budget property
    ok = nondecreasing and flat and strict
    _report(
        7, ok,
        "IoU by budget " + ", ".join(f"{b}: {ious[b]:.4f}" for b in (3, 5, 10, 15, 20))
        + f"; non-decreasing to 15 {nondecreasing}, flat 15-20 {flat}, 3 < 10 {strict}",
    )


def test_criterion_8_double_residual_trend(cell_grid):
    on = cell_grid.cell(IMPLICIT, 15, double_residual=True).final_iou
    off = cell_grid.cell(IMPLICIT, 15, double_residual=False).final_iou
    ok = on >= off - 0.01
    _report(
        8, ok,
        f"double residual on {on:.4f} >= off {off:.4f} - 0.01",
    )


def test_criterion_9_infrastructure_properties(tmp_path, grid_dataset):
    # VJP consistency across the primitive suite at 1e-5
    vjp_ok = True
    try:
        for seed in (0, 1, 2):
            test_ops.test_vjp_consistency_suite(seed)
    except AssertionError:
        vjp_ok = False

    # container round trip is bit-exact
    tensors = {"a": CounterRng(1).normal((3, 4, 5)), "b": CounterRng(2).normal((7,))}
    data.save_container(tmp_path / "c.ifr", tensors)
    loaded = data.load_container(tmp_path / "c.ifr")
    container_ok = all(np.array_equal(loaded[k], tensors[k]) for k in tensors)

    # fixed-seed training runs are bit-deterministic
    cfg = grid_train_cfg(total_iters=12, decay_points=(), warmup_iters=4)
    head = grid_head(IMPLICIT, 8)
    s1, m1 = training.train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=6)
    s2, m2 = training.train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=6)
    determinism_ok = s1.loss_history == s2.loss_history and m1 == m2
    for (n1, a1), (n2, a2) in zip(s1.params.leaf_items(), s2.params.leaf_items()):
        determinism_ok = determinism_ok and n1 == n2 and np.array_equal(a1, a2)

    ok = vjp_ok and container_ok and determinism_ok
    _report(
        9, ok,
        f"VJP suite {vjp_ok}, container round-trip bit-exact {container_ok}, "
        f"fixed-seed bit-determinism {determinism_ok}",
    )
