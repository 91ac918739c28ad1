"""Loss, schedule, SGD, evaluation arithmetic, and training-loop contracts."""

import collections
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from ifr import blocks, data, implicit, ops, solver, training
from ifr.blocks import EXPLICIT, IMPLICIT, UNROLLED, HeadConfig
from ifr.gradcheck import guarded_max_rel_error
from ifr.ops import Grads, ShapeError, finite_difference_grad
from ifr.training import (
    OffEquilibriumWarning,
    TrainConfig,
    TrainingAbortedError,
    apply_sgd,
    bce_mask_loss,
    evaluate,
    init_train_state,
    lr_at,
    sgd_step,
    train,
)

from conftest import GRID_SOLVER, grid_head, grid_train_cfg, rand


# ---------------------------------------------------------------------------
# loss


def test_bce_zero_logits_is_log_two():
    logits = np.zeros((1, 4, 4))
    target = np.zeros((1, 4, 4))
    target[0, :2] = 1.0
    loss, _ = bce_mask_loss(logits, target)
    assert abs(loss - math.log(2.0)) < 1e-12


def test_bce_saturated_positive_pixel():
    logits = np.full((1, 1, 1), 50.0)
    target = np.ones((1, 1, 1))
    loss, _ = bce_mask_loss(logits, target)
    assert loss < 1e-20


def test_bce_gradient_matches_finite_differences():
    logits = rand(1, (1, 5, 5))
    target = (rand(2, (1, 5, 5)) > 0).astype(np.float64)
    _, grad = bce_mask_loss(logits, target)
    fd = finite_difference_grad(lambda t: bce_mask_loss(t, target)[0], logits, 1e-6)
    assert np.abs(grad - fd).max() < 1e-8


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_bce_gradient_is_the_two_branch_sigmoid_bytes():
    """One e^-|z| serves the loss and both sigmoid branches, with the same loss and gradient
    bytes as a sigmoid that exponentiates each branch's logits apart, NaN (of either sign)
    included."""
    logits = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, np.nan, -np.nan,
                       3.5, -2.25, 40.0, -40.0, 709.9, -745.2, np.inf, -np.inf]).reshape(1, 4, 4)
    target = (np.arange(16) % 2).astype(np.float64).reshape(1, 4, 4)
    for z, t in ((logits, target), (rand(3, (2, 1, 5, 5)) * 30, (rand(4, (2, 1, 5, 5)) > 0) * 1.0)):
        n = np.prod(z.shape[-3:])
        with np.errstate(invalid="ignore"):  # an infinite logit times a 0 target
            loss, grad = bce_mask_loss(z, t)
            per_pixel = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
            expected = (_two_branch_sigmoid(z) - t) / n
        assert np.float64(loss).tobytes() == np.float64(per_pixel.sum() / n).tobytes()
        assert grad.tobytes() == expected.tobytes()


def broken(sample, case):
    """A copy of sample that breaks the dataset rule as case says."""
    feature, mask = sample.feature.copy(), sample.mask.copy()
    if case == "half-mask":
        mask[0, 3, 4] = 0.5
    elif case == "nan-feature":
        feature[2, 1, 0] = np.nan
    elif case == "mask-shape":
        mask = mask[:, :, :-1]
    else:
        mask = np.concatenate([mask, mask])
    return data.Sample(feature, mask)


@pytest.mark.parametrize("case,message", [
    ("half-mask", "dataset mask entries must be exactly 0 or 1"),
    ("nan-feature", "dataset features contain non-finite values"),
    ("mask-shape", "dataset mask shape (1, 28, 27) is not (classes, 2H, 2W) "
                   "for feature shape (8, 14, 14)"),
    ("classes", "dataset mask classes 2 != head.predictor_classes 1"),
], ids=["half-mask", "nan-feature", "mask-shape", "classes"])
def test_train_and_evaluate_reject_a_dataset_that_breaks_the_rule(
        grid_dataset, monkeypatch, case, message):
    samples = [broken(grid_dataset[0], case)] + grid_dataset[1:10]
    monkeypatch.setattr(training, "sgd_step", lambda *a: pytest.fail("a step ran"))
    head = grid_head(EXPLICIT, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        train(head, grid_train_cfg(total_iters=2, decay_points=(), warmup_iters=0), samples)
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate(init_train_state(head, grid_train_cfg(), GRID_SOLVER), samples)


def test_a_bad_holdout_mask_stops_train_before_its_first_step(grid_dataset, monkeypatch):
    samples = grid_dataset[:9] + [broken(grid_dataset[9], "half-mask")]
    monkeypatch.setattr(training, "sgd_step", lambda *a: pytest.fail("a step ran"))
    cfg = grid_train_cfg(total_iters=4, decay_points=(), warmup_iters=0)
    with pytest.raises(ValueError, match="dataset mask entries must be exactly 0 or 1"):
        train(grid_head(EXPLICIT, 1), cfg, samples, GRID_SOLVER, log_every=2)


# ---------------------------------------------------------------------------
# schedule


def schedule_cfg():
    return TrainConfig(
        base_lr=0.02, total_iters=1000, decay_points=(600, 800), warmup_iters=100, seed=0
    )


def test_lr_at_warmup_boundary_is_base():
    cfg = schedule_cfg()
    assert lr_at(cfg, cfg.warmup_iters) == cfg.base_lr


def test_lr_at_first_decay_point():
    cfg = schedule_cfg()
    assert abs(lr_at(cfg, 600) - 0.1 * cfg.base_lr) < 1e-15
    assert abs(lr_at(cfg, 800) - 0.01 * cfg.base_lr) < 1e-15


def test_lr_at_zero_is_warmup_floor():
    cfg = schedule_cfg()
    assert abs(lr_at(cfg, 0) - 0.1 * cfg.base_lr) < 1e-15


def test_lr_at_rejects_out_of_range():
    with pytest.raises(ValueError):
        lr_at(schedule_cfg(), 1000)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(decay_points=(800, 600), total_iters=1000)
    with pytest.raises(ValueError):
        TrainConfig(decay_points=(600, 800), total_iters=700)
    with pytest.raises(ValueError):
        TrainConfig(decay_points=(50,), warmup_iters=100, total_iters=1000)


# ---------------------------------------------------------------------------
# sgd


def test_sgd_zero_gradient_is_noop():
    params = [("w", np.array([1.0, 2.0]))]
    grads = [("w", np.zeros(2))]
    buffers = {}
    apply_sgd(params, grads, buffers, momentum_coef=0.9, lr=0.1)
    assert np.array_equal(params[0][1], [1.0, 2.0])


def test_sgd_single_step_no_momentum():
    params = [("w", np.array([1.0]))]
    apply_sgd(params, [("w", np.array([1.0]))], {}, momentum_coef=0.0, lr=0.1)
    assert abs(params[0][1][0] - 0.9) < 1e-15


def test_sgd_two_steps_with_momentum_closed_form():
    params = [("w", np.array([1.0]))]
    buffers = {}
    for _ in range(2):
        apply_sgd(params, [("w", np.array([1.0]))], buffers, momentum_coef=0.9, lr=0.1)
    # buf: 1 then 1.9; decrease 0.1 + 0.19 = 0.29
    assert abs(params[0][1][0] - 0.71) < 1e-15


@pytest.mark.parametrize("n_params,n_grads", [(2, 1), (1, 2)])
def test_sgd_rejects_gradient_leaves_that_do_not_pair_with_parameters(n_params, n_grads):
    names = ["a", "b"]
    params = [(name, np.array([1.0])) for name in names[:n_params]]
    grads = [(name, np.array([1.0])) for name in names[:n_grads]]
    with pytest.raises(ShapeError):
        apply_sgd(params, grads, {}, momentum_coef=0.9, lr=0.1)
    assert all(arr[0] == 1.0 for _, arr in params)


@pytest.mark.parametrize("weight_norm", [False, True])
@pytest.mark.parametrize("shortcut_mode", ["identity", "conv1x1"])
@pytest.mark.parametrize("strategy,depth", [(EXPLICIT, 0), (EXPLICIT, 2), (UNROLLED, 2), (IMPLICIT, 4)])
def test_grads_have_the_names_order_and_shapes_of_the_params(
    grid_dataset, strategy, depth, shortcut_mode, weight_norm
):
    head = dataclasses.replace(
        grid_head(strategy, depth), shortcut_mode=shortcut_mode, weight_norm=weight_norm
    )
    state = init_train_state(head, grid_train_cfg(), GRID_SOLVER)
    batch = training._stack(grid_dataset[:2])
    _, grads, _, _ = training.sample_loss_and_grads(state.params, head, state.solver_cfg, batch)
    assert isinstance(grads, Grads)
    layout = [(name, arr.shape) for name, arr in state.params.leaf_items()]
    assert [(name, arr.shape) for name, arr in grads.leaf_items()] == layout


@pytest.mark.parametrize("strategy,depth", [(EXPLICIT, 2), (UNROLLED, 2), (IMPLICIT, 4)])
def test_loss_and_grads_upsample_once(grid_dataset, monkeypatch, strategy, depth):
    state = init_train_state(grid_head(strategy, depth), grid_train_cfg(), GRID_SOLVER)
    calls = []
    original = ops.deconv2x2

    def counting(x, p):
        calls.append(x.shape)
        return original(x, p)

    monkeypatch.setattr(ops, "deconv2x2", counting)
    training.sample_loss_and_grads(
        state.params, state.head_cfg, state.solver_cfg, training._stack(grid_dataset[:2])
    )
    assert len(calls) == 1


def test_sgd_step_floors_every_direction_leaf():
    state = init_train_state(grid_head(EXPLICIT, 2), grid_train_cfg(), GRID_SOLVER)
    directions = [arr for name, arr in state.params.leaf_items() if name.endswith("direction")]
    assert len(directions) == 2 * 3 + 2  # w1, w2, shortcut per stage; deconv and proj
    for arr in directions:
        arr[...] = 0.0
    grads = Grads((name, np.zeros_like(arr)) for name, arr in state.params.leaf_items())
    sgd_step(state, grads, 0.1)
    for arr in directions:
        assert np.all(np.linalg.norm(arr.reshape(arr.shape[0], -1), axis=1) > 0.0)


def test_sgd_step_skips_nonfinite_gradients(grid_dataset):
    state = init_train_state(grid_head(IMPLICIT, 15), grid_train_cfg(), GRID_SOLVER)
    before = {name: arr.copy() for name, arr in state.params.leaf_items()}
    _, grads, _, _ = training.sample_loss_and_grads(
        state.params, state.head_cfg, state.solver_cfg, grid_dataset[0]
    )
    grads["predictor.proj.bias"][0] = np.nan
    sgd_step(state, grads, 0.1)
    assert state.skipped_steps == 1
    for name, arr in state.params.leaf_items():
        assert np.array_equal(arr, before[name])


# ---------------------------------------------------------------------------
# evaluation arithmetic


def test_evaluate_iou_arithmetic(grid_dataset):
    # exact-match and iou values are easier to check through a tiny head:
    # craft samples whose mask the predictor reproduces via saturation is
    # overkill, so check the arithmetic directly instead
    pred = np.zeros((1, 4, 4), dtype=bool)
    truth = np.zeros((1, 4, 4), dtype=bool)
    pred[0, :2, :2] = True
    truth[0, :2, :2] = True
    inter = np.sum(pred & truth)
    union = np.sum(pred | truth)
    assert inter / union == 1.0
    # half-overlap rectangles: two 2x4 rectangles sharing a 2x2 corner
    pred[:] = False
    truth[:] = False
    pred[0, :2, :] = True
    truth[0, :, :2] = True
    assert np.sum(pred & truth) / np.sum(pred | truth) == pytest.approx(1 / 3)


def test_evaluate_on_trained_stub(grid_dataset):
    state = init_train_state(grid_head(EXPLICIT, 0), grid_train_cfg(), GRID_SOLVER)
    metrics = evaluate(state, grid_dataset[:8])
    assert 0.0 <= metrics.mean_iou <= 1.0
    assert metrics.mean_loss > 0.0


def test_evaluate_rejects_empty_dataset(grid_dataset):
    state = init_train_state(grid_head(EXPLICIT, 0), grid_train_cfg(), GRID_SOLVER)
    with pytest.raises(ValueError):
        evaluate(state, [])


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_iterations_returns_initial_state(grid_dataset):
    cfg = grid_train_cfg(total_iters=0, decay_points=(), warmup_iters=0)
    state, metrics = train(grid_head(IMPLICIT, 15), cfg, grid_dataset, solver_cfg=GRID_SOLVER)
    assert metrics == []
    assert state.iteration == 0
    reference = init_train_state(grid_head(IMPLICIT, 15), cfg, GRID_SOLVER)
    for (n1, a1), (n2, a2) in zip(state.params.leaf_items(), reference.params.leaf_items()):
        assert n1 == n2 and np.array_equal(a1, a2)


def test_train_fixed_seed_is_bit_deterministic(grid_dataset):
    cfg = grid_train_cfg(total_iters=12, decay_points=(), warmup_iters=4)
    head = grid_head(IMPLICIT, 15)
    s1, m1 = train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=6)
    s2, m2 = train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=6)
    assert s1.loss_history == s2.loss_history
    assert m1 == m2


def test_train_loss_decreases(grid_dataset):
    cfg = grid_train_cfg(total_iters=60, decay_points=(), warmup_iters=10)
    _, metrics = train(grid_head(EXPLICIT, 1), cfg, grid_dataset, solver_cfg=GRID_SOLVER)
    assert metrics[-1]["loss"] < metrics[0]["loss"] or metrics[-1]["loss"] < 0.6


def test_train_metrics_schema(grid_dataset):
    cfg = grid_train_cfg(total_iters=10, decay_points=(), warmup_iters=2)
    _, metrics = train(grid_head(IMPLICIT, 5), cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=5)
    assert [m["iter"] for m in metrics] == [5, 10]
    for m in metrics:
        assert set(m) == {"iter", "lr", "loss", "held_out_iou", "solver_converged_frac"}


def test_train_aborts_on_persistent_divergence(grid_dataset, monkeypatch):
    # a divergence factor below any achievable residual ratio flags every
    # solve as diverged, which must trip the training abort
    monkeypatch.setattr(solver, "DIVERGENCE_FACTOR", 1e-12)
    bad_solver = solver.SolverConfig(max_iters=5, rel_tol=1e-6)
    cfg = grid_train_cfg(total_iters=10, decay_points=(), warmup_iters=2)
    with pytest.raises(TrainingAbortedError):
        train(grid_head(IMPLICIT, 5), cfg, grid_dataset[:40], solver_cfg=bad_solver, log_every=5)


def test_train_aborts_when_forward_solves_go_non_finite(grid_dataset, monkeypatch):
    # a block map that overflows off its start point: every forward solve
    # ends non-finite at step 1 and returns h0 = 0, so training runs on
    # until the window's count trips the abort
    monkeypatch.setattr(implicit, "block_apply_factory",
                        lambda p, x: lambda h: np.where(h == 0.0, 1.0, np.inf))
    statuses = []
    real = training.sample_loss_and_grads

    def recording(*args):
        out = real(*args)
        statuses.extend(s.status for s in out[2])
        return out

    monkeypatch.setattr(training, "sample_loss_and_grads", recording)
    cfg = grid_train_cfg(total_iters=10, decay_points=(), warmup_iters=2)
    with pytest.raises(TrainingAbortedError, match="^40/40 forward solves diverged or went "
                       "non-finite in the window ending at iteration 5$"):
        train(grid_head(IMPLICIT, 5), cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER,
              log_every=5)
    assert statuses == [solver.SolveStatus.NON_FINITE] * 40


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train(grid_head(IMPLICIT, 5), grid_train_cfg(total_iters=1, decay_points=()), [])


def test_train_warns_when_implicit_head_is_off_equilibrium(grid_dataset):
    cfg = grid_train_cfg(total_iters=4, decay_points=(), warmup_iters=2)
    head = grid_head(IMPLICIT, 1)
    with pytest.warns(OffEquilibriumWarning, match="forward converged fraction 0.000, "
                      "adjoint converged fraction 0.000"):
        s1, m1 = train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s2, m2 = train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=2)
    assert m1 == m2
    assert s1.loss_history == s2.loss_history


def test_train_converged_implicit_head_does_not_warn(grid_dataset):
    cfg = grid_train_cfg(total_iters=4, decay_points=(), warmup_iters=2)
    loose = solver.SolverConfig(max_iters=15, rel_tol=1e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", OffEquilibriumWarning)
        _, metrics = train(grid_head(IMPLICIT, 15), cfg, grid_dataset[:40], solver_cfg=loose,
                           log_every=2)
    assert all(m["solver_converged_frac"] == 1.0 for m in metrics)


# ---------------------------------------------------------------------------
# batched passes


@pytest.mark.parametrize("strategy,depth", [(EXPLICIT, 2), (UNROLLED, 3), (IMPLICIT, 15)])
def test_batched_grads_are_the_sum_of_single_sample_grads(grid_dataset, strategy, depth):
    state = init_train_state(grid_head(strategy, depth), grid_train_cfg(), GRID_SOLVER)
    samples = grid_dataset[:5]
    batch = training._stack(samples)
    loss, grads, forward, adjoint = training.sample_loss_and_grads(
        state.params, state.head_cfg, state.solver_cfg, batch
    )
    singles = [
        training.sample_loss_and_grads(state.params, state.head_cfg, state.solver_cfg, s)
        for s in samples
    ]
    assert loss == pytest.approx(sum(r[0] for r in singles), rel=1e-12)
    assert [s.status for s in forward] == [s.status for r in singles for s in r[2]]
    assert sum(not s.converged for s in adjoint) == sum(
        not s.converged for r in singles for s in r[3])
    summed = {}
    for _, g, _, _ in singles:
        for name, arr in g.leaf_items():
            summed[name] = summed.get(name, 0.0) + arr
    batched = dict(grads.leaf_items())
    assert batched.keys() == summed.keys()
    # re-associated float64 sums: a coordinate where the per-sample terms
    # cancel keeps an absolute error near 1e-17, which the guard's floor
    # (1e-6 of the largest gradient) turns into a few 1e-11
    assert guarded_max_rel_error(batched, summed) <= 1e-10


@pytest.mark.parametrize("strategy", [EXPLICIT, UNROLLED, IMPLICIT])
def test_each_array_is_summed_for_finiteness_once_where_it_enters(
        grid_dataset, monkeypatch, strategy):
    """A training step at batch 8 and an evaluate chunk: the predictor sums its input h
    once per forward, and nothing sums a, the deconv cotangent or the loss gradient. The
    blocks sum their input and hidden state as before: a taped finite stack checks each
    block on first use and again at each step's tape, an untaped one on first use only,
    and the implicit head once, in its backward's tape."""
    state = init_train_state(grid_head(strategy, 4), grid_train_cfg(), GRID_SOLVER)
    sums, real = collections.Counter(), ops.check_finite

    def counting(x, what="input"):
        sums[what, x.shape] += 1
        real(x, what)

    monkeypatch.setattr(ops, "check_finite", counting)
    samples, shape = grid_dataset[:8], (8, 8, 14, 14)
    training.sample_loss_and_grads(
        state.params, state.head_cfg, state.solver_cfg, training._stack(samples))
    step = dict(sums)
    sums.clear()
    evaluate(state, samples)

    def expected(blocks_checked):
        names = ("block input", "block hidden state") if blocks_checked else ()
        return {**{(name, shape): blocks_checked for name in names},
                ("mask predictor input", shape): 1}

    step_blocks, eval_blocks = {EXPLICIT: (8, 4), UNROLLED: (5, 1), IMPLICIT: (1, 0)}[strategy]
    assert step == expected(step_blocks)
    assert dict(sums) == expected(eval_blocks)


def test_evaluate_scores_each_sample_on_its_own_logits(grid_dataset, monkeypatch):
    state = init_train_state(grid_head(UNROLLED, 2), grid_train_cfg(), GRID_SOLVER)
    samples = grid_dataset[: 2 * training.EVAL_CHUNK + 3]
    calls = []
    original = training.bce_mask_loss

    def recording(logits, target):
        calls.append((logits, target))
        return original(logits, target)

    monkeypatch.setattr(training, "bce_mask_loss", recording)
    metrics = evaluate(state, samples)
    assert len(calls) == len(samples)
    for (logits, target), sample in zip(calls, samples):
        assert logits.shape == sample.mask.shape and np.array_equal(target, sample.mask)
        h = blocks.stacked_head_forward([state.params.stages[0]] * 2, sample.feature)
        single = blocks.mask_predictor_forward(state.params.predictor, h)
        assert np.abs(logits - single).max() <= 1e-12 * np.abs(single).max()
    monkeypatch.undo()
    chunks = [samples[i : i + training.EVAL_CHUNK]
              for i in range(0, len(samples), training.EVAL_CHUNK)]
    parts = [evaluate(state, chunk) for chunk in chunks]
    for field in ("mean_iou", "mean_loss"):
        by_chunk = sum(getattr(m, field) * len(c) for m, c in zip(parts, chunks)) / len(samples)
        assert getattr(metrics, field) == pytest.approx(by_chunk, rel=1e-12)


@pytest.mark.parametrize("strategy,depth", [(EXPLICIT, 2), (UNROLLED, 3)])
def test_evaluate_keeps_no_tapes(grid_dataset, monkeypatch, strategy, depth):
    state = init_train_state(grid_head(strategy, depth), grid_train_cfg(), GRID_SOLVER)
    samples = grid_dataset[: training.EVAL_CHUNK + 3]
    original = blocks.stacked_head_forward

    def taped(params, x, keep_tape=False):
        h, tapes = original(params, x, keep_tape=True)
        assert len(tapes) == len(params)
        return (h, tapes) if keep_tape else h

    monkeypatch.setattr(blocks, "stacked_head_forward", taped)
    reference = evaluate(state, samples)
    monkeypatch.undo()

    def no_tape(*args, **kwargs):
        raise AssertionError("evaluate built a block tape")

    monkeypatch.setattr(blocks, "block_forward_tape", no_tape)
    assert evaluate(state, samples) == reference


@pytest.mark.parametrize("strategy,depth", [(EXPLICIT, 2), (UNROLLED, 2), (IMPLICIT, 15)])
def test_batched_train_is_bit_deterministic(grid_dataset, strategy, depth):
    cfg = grid_train_cfg(total_iters=8, decay_points=(), warmup_iters=2)
    head = grid_head(strategy, depth)
    s1, m1 = train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=4)
    s2, m2 = train(head, cfg, grid_dataset[:40], solver_cfg=GRID_SOLVER, log_every=4)
    assert s1.loss_history == s2.loss_history
    assert m1 == m2
    for (n1, a1), (n2, a2) in zip(s1.params.leaf_items(), s2.params.leaf_items()):
        assert n1 == n2 and np.array_equal(a1, a2)


def counting_prepares(monkeypatch) -> list:
    """The records that each _PreparedBlock made from here on copied, in order."""
    prepared, real_init = [], blocks._PreparedBlock.__init__

    def counting_init(self, p):
        prepared.append(p)
        real_init(self, p)

    monkeypatch.setattr(blocks._PreparedBlock, "__init__", counting_init)
    return prepared


def test_implicit_head_prepares_its_block_once_per_minibatch_and_eval_chunk(
        grid_dataset, monkeypatch):
    """One snapshot per evaluate call, whatever its chunks, and one per training step."""
    state = init_train_state(grid_head(IMPLICIT, 4), grid_train_cfg(), GRID_SOLVER)
    stage = state.params.stages[0]
    prepared, records, real_forward = counting_prepares(monkeypatch), [], training.ifr_forward

    def recording_forward(p, x, cfg):
        records.append(real_forward(p, x, cfg))
        return records[-1]

    monkeypatch.setattr(training, "ifr_forward", recording_forward)
    samples = grid_dataset[: training.EVAL_CHUNK + 3]
    evaluate(state, samples)
    assert len(prepared) == 1 and prepared[0] is stage
    assert len(records) == len(samples)
    # every record, the short last chunk's too, holds the one snapshot the call ran on
    assert all(rec.params is records[0].params for rec in records)
    assert records[0].params is not stage

    prepared.clear()
    batch = training._stack(samples[:4])
    training.sample_loss_and_grads(state.params, state.head_cfg, state.solver_cfg, batch)
    # the forward solves and the batch the backward tapes share one snapshot
    assert len(prepared) == 1 and prepared[0] is stage


@pytest.mark.parametrize("count", [3, 2 * training.EVAL_CHUNK + 3])
def test_evaluate_prepares_each_stage_of_an_explicit_head_once_per_call(
        grid_dataset, monkeypatch, count):
    state = init_train_state(grid_head(EXPLICIT, 4), grid_train_cfg(), GRID_SOLVER)
    prepared = counting_prepares(monkeypatch)
    evaluate(state, grid_dataset[:count])
    assert list(map(id, prepared)) == list(map(id, state.params.stages))
