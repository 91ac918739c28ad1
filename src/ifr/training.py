"""Loss, SGD-with-momentum schedule, and the strategy-comparison training loop.

The loop is single threaded and bit-deterministic for a fixed seed: batch
order comes from a counter-based stream, parameter initialization from split
substreams, and all arithmetic is float64. Each iteration makes one batched
(N, C, H, W) forward and backward pass. The implicit strategy solves each
sample's equilibrium with its own ifr_forward call, then makes one
ifr_backward call for the batch, whose adjoint is one batched solve; the
explicit and unrolled strategies backpropagate through their finite
computation graphs, and every strategy runs the mask predictor once over
the batch. The head's gradient is an `ops.Grads` keyed like
`HeadParams.leaf_items()`, so SGD, clipping and the finite check walk
parameters and gradients leaf by leaf in the same order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import blocks
from .blocks import EXPLICIT, IMPLICIT, UNROLLED, HeadConfig, HeadParams
from .data import Sample, samples_to_tensors
from .implicit import ifr_backward, ifr_forward, stack_records
from .ops import Grads, ShapeError, as_batch, floor_direction_norms
from .rng import CounterRng
from .solver import SolverConfig

_INIT_TAG = 11
_BATCH_TAG = 23

GRAD_CLIP_NORM = 10.0
# the learning rate is multiplied by this at each decay point
DECAY_FACTOR = 0.1
# share of the dataset, at its tail, that train holds out for IoU logging
_HOLDOUT_FRACTION = 0.2

# evaluate runs its refine and predictor passes over chunks of this many
# samples; a larger chunk is faster per sample but holds more memory, and 8
# keeps the peak at that of a training batch of 8
EVAL_CHUNK = 8


class TrainingAbortedError(RuntimeError):
    """Persistent solver divergence made further training pointless."""


class OffEquilibriumWarning(RuntimeWarning):
    """An implicit head trained on solves that stopped short of their tolerance.

    The refined feature was then not the fixed point H* = F(H*; X), and the
    gradients were not the implicit-function-theorem gradients at it.
    """


@dataclass
class TrainConfig:
    base_lr: float = 0.01
    momentum: float = 0.9
    total_iters: int = 9_000
    decay_points: tuple[int, ...] = (6_000, 8_000)
    warmup_iters: int = 100
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        self.decay_points = tuple(int(p) for p in self.decay_points)
        if self.total_iters < 0 or self.warmup_iters < 0 or self.batch_size < 1:
            raise ValueError("total_iters/warmup_iters must be >= 0, batch_size >= 1")
        if any(b <= a for a, b in zip(self.decay_points, self.decay_points[1:])):
            raise ValueError("decay_points must be strictly increasing")
        if self.decay_points:
            if self.decay_points[-1] >= self.total_iters:
                raise ValueError("decay_points must lie before total_iters")
            if self.warmup_iters >= self.decay_points[0]:
                raise ValueError("warmup must end before the first decay point")


@dataclass
class TrainState:
    params: HeadParams
    momentum: dict[str, np.ndarray]
    momentum_coef: float
    head_cfg: HeadConfig
    solver_cfg: SolverConfig
    iteration: int = 0
    loss_history: list[float] = field(default_factory=list)
    skipped_steps: int = 0


@dataclass
class EvalMetrics:
    mean_iou: float
    mean_loss: float


# ---------------------------------------------------------------------------
# loss and schedule


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_mask_loss(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-pixel binary cross-entropy with logits; returns (loss, dLogits).

    The mean is over one sample's (classes, H, W) pixels. With a leading
    batch axis the loss is the sum of the per-sample means.
    """
    if logits.shape != target.shape:
        raise ShapeError(f"logits shape {logits.shape} != target shape {target.shape}")
    if not np.all((target == 0.0) | (target == 1.0)):
        raise ValueError("target entries must be exactly 0 or 1")
    n = int(np.prod(logits.shape[-3:]))
    # log(1 + e^z) - z t, computed as max(z,0) - z t + log1p(e^-|z|)
    per_pixel = np.maximum(logits, 0.0) - logits * target + np.log1p(np.exp(-np.abs(logits)))
    loss = float(per_pixel.sum() / n)
    grad = (_sigmoid(logits) - target) / n
    return loss, grad


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Linear warmup from 0.1x base, then x DECAY_FACTOR at each decay point."""
    if iteration < 0 or iteration >= cfg.total_iters:
        raise ValueError(f"iteration {iteration} outside [0, {cfg.total_iters})")
    if cfg.warmup_iters > 0 and iteration < cfg.warmup_iters:
        lr = cfg.base_lr * (0.1 + 0.9 * iteration / cfg.warmup_iters)
    else:
        lr = cfg.base_lr
    for point in cfg.decay_points:
        if iteration >= point:
            lr *= DECAY_FACTOR
    return lr


# ---------------------------------------------------------------------------
# SGD


def apply_sgd(
    param_items: list[tuple[str, np.ndarray]],
    grad_items: list[tuple[str, np.ndarray]],
    buffers: dict[str, np.ndarray],
    momentum_coef: float,
    lr: float,
) -> None:
    """In-place classical momentum update: buf = m*buf + g; p -= lr*buf."""
    if len(param_items) != len(grad_items):
        raise ShapeError(
            f"{len(grad_items)} gradient leaves for {len(param_items)} parameter leaves"
        )
    for (name, param), (gname, grad) in zip(param_items, grad_items):
        if name != gname or param.shape != grad.shape:
            raise ShapeError(f"gradient leaf {gname!r} does not match parameter {name!r}")
        buf = buffers.get(name)
        if buf is None:
            buf = buffers[name] = np.zeros_like(param)
        buf *= momentum_coef
        buf += grad
        param -= lr * buf


def grads_finite(grads) -> bool:
    return all(np.all(np.isfinite(arr)) for _, arr in grads.leaf_items())


def clip_global_norm(grads, max_norm: float) -> float:
    total = 0.0
    for _, arr in grads.leaf_items():
        total += float(np.sum(arr * arr))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for _, arr in grads.leaf_items():
            arr *= factor
    return norm


def sgd_step(state: TrainState, grads: Grads, lr: float) -> TrainState:
    """One momentum-SGD update; skips (and counts) non-finite gradients."""
    if not grads_finite(grads):
        state.skipped_steps += 1
        return state
    apply_sgd(
        list(state.params.leaf_items()),
        list(grads.leaf_items()),
        state.momentum,
        state.momentum_coef,
        lr,
    )
    for name, leaf in state.params.leaf_items():
        if name.endswith("direction"):
            floor_direction_norms(leaf)
    apply_stability_caps(state.params, state.head_cfg)
    return state


def apply_stability_caps(params: HeadParams, cfg: HeadConfig) -> None:
    """Clamp the contraction-controlling magnitudes configured on the head."""
    from .ops import effective_kernel

    for stage in params.stages:
        if cfg.gn2_scale_cap is not None:
            np.clip(stage.gn2.scale, -cfg.gn2_scale_cap, cfg.gn2_scale_cap,
                    out=stage.gn2.scale)
        if cfg.shortcut_gain_cap is not None and stage.shortcut is not None:
            cap = cfg.shortcut_gain_cap
            c = stage.shortcut.out_channels
            matrix = effective_kernel(stage.shortcut).reshape(c, c)
            top_sv = float(np.linalg.svd(matrix, compute_uv=False)[0])
            if top_sv > cap:
                factor = cap / top_sv
                if stage.shortcut.weight_norm_enabled:
                    stage.shortcut.gain *= factor
                else:
                    stage.shortcut.direction *= factor


# ---------------------------------------------------------------------------
# head dispatch


def solver_config_for(head_cfg: HeadConfig, base: Optional[SolverConfig]) -> SolverConfig:
    """Solver settings for a head; the implicit budget comes from the head config."""
    cfg = base if base is not None else SolverConfig()
    if head_cfg.strategy == IMPLICIT:
        cfg = replace(cfg, max_iters=head_cfg.depth_or_budget)
    return cfg


def _stack(samples: list[Sample]) -> Sample:
    """Samples as one batch: features (N, C, H, W), masks (N, classes, 2H, 2W)."""
    tensors = samples_to_tensors(samples)
    return Sample(tensors["features"], tensors["masks"])


def _refine_forward(params: HeadParams, cfg: HeadConfig, solver_cfg: SolverConfig, x):
    """Returns (refined, ctx, converged, diverged), the last two as sample counts."""
    if cfg.strategy != IMPLICIT:
        stack = params.stages if cfg.strategy == EXPLICIT else params.stages * cfg.depth_or_budget
        h, tapes = blocks.stacked_head_tapes(stack, x)
        return h, tapes, len(as_batch(x)), 0
    rec = stack_records([ifr_forward(params.stages[0], xi, solver_cfg) for xi in as_batch(x)])
    solves = rec.forward_result.problems
    converged = sum(solve.converged for solve in solves)
    diverged = sum(bool(solve.note) for solve in solves)
    return rec.equilibrium.reshape(x.shape), rec, converged, diverged


def _refine_vjp(params: HeadParams, cfg: HeadConfig, solver_cfg: SolverConfig, ctx, x, d_h):
    """Returns (stage_grads, adjoint_unconverged), summed and counted over the samples."""
    if cfg.strategy == EXPLICIT:
        _, stage_grads = blocks.stacked_head_vjp(params.stages, x, d_h, tapes=ctx)
        return stage_grads, 0
    if cfg.strategy == UNROLLED:
        _, grads = blocks.unrolled_shared_vjp(
            params.stages[0], x, cfg.depth_or_budget, d_h, tapes=ctx
        )
        return [grads], 0
    result = ifr_backward(ctx, as_batch(d_h), solver_cfg)
    unconverged = sum(not solve.converged for solve in result.adjoint_result.problems)
    return [result.d_params], unconverged


def sample_loss_and_grads(
    params: HeadParams, cfg: HeadConfig, solver_cfg: SolverConfig, sample: Sample
) -> tuple[float, Grads, tuple[int, int], int]:
    """Forward + backward for one sample or a batch.

    Returns (loss, grads, (converged, diverged), adjoint_unconverged).
    sample holds one (C, H, W) feature and its mask, or a batch of them
    along a leading axis (see _stack). The loss and the gradients are sums
    over the batch; grads has exactly the names, order and shapes of
    params.leaf_items(). converged and diverged count the forward solves,
    and adjoint_unconverged the adjoint solves that stopped short of their
    tolerance, whose gradient terms are not the exact implicit-function
    gradients. A finite-depth strategy counts every sample as converged.
    """
    h, ctx, converged, diverged = _refine_forward(params, cfg, solver_cfg, sample.feature)
    logits, pred_tape = blocks.mask_predictor_forward(params.predictor, h, keep_tape=True)
    loss, d_logits = bce_mask_loss(logits, sample.mask)
    d_h, pred_grads = blocks.mask_predictor_vjp(params.predictor, h, pred_tape, d_logits)
    stage_grads, adjoint_unconverged = _refine_vjp(
        params, cfg, solver_cfg, ctx, sample.feature, d_h
    )
    grads = blocks.head_grads(stage_grads, pred_grads)
    return loss, grads, (converged, diverged), adjoint_unconverged


def init_train_state(
    head_cfg: HeadConfig, train_cfg: TrainConfig, solver_cfg: Optional[SolverConfig] = None
) -> TrainState:
    rng = CounterRng(train_cfg.seed).split(_INIT_TAG)
    params = blocks.init_head(rng, head_cfg)
    return TrainState(
        params=params,
        momentum={},
        momentum_coef=train_cfg.momentum,
        head_cfg=head_cfg,
        solver_cfg=solver_config_for(head_cfg, solver_cfg),
    )


# ---------------------------------------------------------------------------
# evaluation


def evaluate(state: TrainState, dataset: list[Sample]) -> EvalMetrics:
    """Mean mask IoU at threshold 0.5 (logits > 0) and mean loss."""
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    iou_total = loss_total = 0.0
    for start in range(0, len(dataset), EVAL_CHUNK):
        chunk = _stack(dataset[start : start + EVAL_CHUNK])
        h, _, _, _ = _refine_forward(state.params, state.head_cfg, state.solver_cfg, chunk.feature)
        logits = blocks.mask_predictor_forward(state.params.predictor, h)
        for sample_logits, mask in zip(logits, chunk.mask):
            loss, _ = bce_mask_loss(sample_logits, mask)
            loss_total += loss
            pred = sample_logits > 0.0
            truth = mask > 0.5
            inter = float(np.sum(pred & truth))
            union = float(np.sum(pred | truth))
            iou_total += 1.0 if union == 0 else inter / union
    n = len(dataset)
    return EvalMetrics(iou_total / n, loss_total / n)


# ---------------------------------------------------------------------------
# training loop


def train(
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
    dataset: list[Sample],
    solver_cfg: Optional[SolverConfig] = None,
    log_every: int = 100,
) -> tuple[TrainState, list[dict]]:
    """Run the full schedule; returns final state and periodic metric rows.

    The dataset tail (_HOLDOUT_FRACTION of it) is held out for IoU logging.
    Aborts if more than half the forward solves in a logging window diverge.
    Issues one OffEquilibriumWarning per run if any forward or adjoint solve
    of a training sample stopped unconverged.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    n_holdout = max(1, int(round(len(dataset) * _HOLDOUT_FRACTION)))
    n_train = len(dataset) - n_holdout
    if n_train < 1 and train_cfg.total_iters > 0:
        raise ValueError("dataset too small to split into train and holdout")
    train_set, holdout_set = dataset[:n_train], dataset[n_train:]

    state = init_train_state(head_cfg, train_cfg, solver_cfg)
    solver = state.solver_cfg
    batch_rng = CounterRng(train_cfg.seed).split(_BATCH_TAG)

    metrics: list[dict] = []
    window_losses: list[float] = []
    window_converged = 0
    window_diverged = 0
    window_solves = 0
    run_solves = run_forward_converged = run_adjoint_converged = 0

    for it in range(train_cfg.total_iters):
        lr = lr_at(train_cfg, it)
        idx = np.atleast_1d(batch_rng.integers(0, n_train, (train_cfg.batch_size,)))
        batch = _stack([train_set[int(j)] for j in idx])
        loss, grads, (converged, diverged), adjoint_unconverged = sample_loss_and_grads(
            state.params, head_cfg, solver, batch
        )
        window_solves += len(idx)
        window_converged += converged
        window_diverged += diverged
        run_solves += len(idx)
        run_forward_converged += converged
        run_adjoint_converged += len(idx) - adjoint_unconverged
        batch_loss = loss / train_cfg.batch_size
        for arr in grads.values():
            arr /= train_cfg.batch_size
        clip_global_norm(grads, GRAD_CLIP_NORM)
        sgd_step(state, grads, lr)
        state.iteration = it + 1
        state.loss_history.append(batch_loss)
        window_losses.append(batch_loss)

        if (it + 1) % log_every == 0 or it + 1 == train_cfg.total_iters:
            held = evaluate(state, holdout_set)
            frac = window_converged / max(window_solves, 1)
            metrics.append(
                {
                    "iter": it + 1,
                    "lr": lr,
                    "loss": float(np.mean(window_losses)),
                    "held_out_iou": held.mean_iou,
                    "solver_converged_frac": frac,
                }
            )
            if window_solves and window_diverged / window_solves > 0.5:
                raise TrainingAbortedError(
                    f"{window_diverged}/{window_solves} forward solves diverged "
                    f"in the window ending at iteration {it + 1}"
                )
            window_losses = []
            window_converged = window_diverged = window_solves = 0

    if min(run_forward_converged, run_adjoint_converged) < run_solves:
        warnings.warn(
            f"implicit head trained off its equilibrium: forward converged fraction "
            f"{run_forward_converged / run_solves:.3f}, adjoint converged fraction "
            f"{run_adjoint_converged / run_solves:.3f} over {run_solves} training solves "
            f"(budget {solver.max_iters}, rel_tol {solver.rel_tol:g})",
            OffEquilibriumWarning,
            stacklevel=2,
        )
    return state, metrics
