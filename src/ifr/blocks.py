"""Double-residual transformation block, refinement-head strategies, and the
mask-predictor tail.

The block computes F(h; x) = GN2(conv2(relu(GN1(conv1(R))))) + shortcut(R)
with R = h + x. Three head strategies apply it: a stack of depth M with
independent per-stage parameters, a weight-shared unroll of N steps, and the
implicit equilibrium head (see `ifr.implicit`). All backward passes are exact
compositions of the op-level VJPs in `ifr.ops`. Features carry the optional
leading batch axis of `ifr.ops`, (N, C, H, W); the parameter gradients of a
batch are the sums of its samples' gradients. A gradient is an `ops.Grads`
keyed like its record's `leaf_items()`: a block's by "w1.direction",
"gn2.shift", ..., a head's by "stage0.w1.direction", "predictor.proj.bias".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import ops
from .ops import ConvParams, Grads, GroupNormParams, ShapeError, default_group_count
from .rng import CounterRng
from .solver import DivergenceError, fixed_point_iterate

EXPLICIT = "explicit-independent"
UNROLLED = "unrolled-shared"
IMPLICIT = "implicit-broyden"
STRATEGIES = (EXPLICIT, UNROLLED, IMPLICIT)

SHORTCUT_IDENTITY = "identity"
SHORTCUT_CONV = "conv1x1"


# ---------------------------------------------------------------------------
# parameter records
#
# A composite record names its parts once, in a *_parts function that its
# leaf_items() and the matching gradient constructor share.


def _block_parts(w1, gn1, w2, gn2, shortcut):
    return [("w1.", w1), ("gn1.", gn1), ("w2.", w2), ("gn2.", gn2), ("shortcut.", shortcut)]


def _predictor_parts(deconv, proj):
    return [("deconv.", deconv), ("proj.", proj)]


def _head_parts(stages, predictor):
    return [(f"stage{i}.", stage) for i, stage in enumerate(stages)] + [("predictor.", predictor)]


@dataclass
class DoubleResidualParams:
    """Learnable state of one transformation block.

    shortcut is None for the parameter-free identity mapping; a 1x1
    ConvParams otherwise. residual_enabled=False drops the + shortcut(R)
    term entirely (ablation mode).
    """

    w1: ConvParams
    gn1: GroupNormParams
    w2: ConvParams
    gn2: GroupNormParams
    shortcut: Optional[ConvParams] = None
    residual_enabled: bool = True

    def __post_init__(self):
        c, c_mid = self.w1.in_channels, self.w1.out_channels
        if self.w2.in_channels != c_mid or self.w2.out_channels != c:
            raise ShapeError("w2 must map intermediate channels back to block channels")
        if self.gn1.channels != c_mid or self.gn2.channels != c:
            raise ShapeError("group-norm channel counts must match their conv outputs")
        if self.shortcut is not None and (
            self.shortcut.in_channels != c or self.shortcut.out_channels != c
        ):
            raise ShapeError("shortcut conv must map block channels to block channels")

    @property
    def channels(self) -> int:
        return self.w1.in_channels

    def leaf_items(self, prefix: str = ""):
        parts = _block_parts(self.w1, self.gn1, self.w2, self.gn2, self.shortcut)
        return ops.nested_leaf_items(prefix, parts)


@dataclass
class MaskPredictorParams:
    """Upsampling tail: 2x2 stride-2 deconv, ReLU, 1x1 projection to logits."""

    deconv: ConvParams
    proj: ConvParams

    def leaf_items(self, prefix: str = ""):
        return ops.nested_leaf_items(prefix, _predictor_parts(self.deconv, self.proj))


@dataclass
class HeadParams:
    """All learnables of one refinement head: stage block(s) plus predictor."""

    stages: list[DoubleResidualParams]
    predictor: MaskPredictorParams

    def leaf_items(self, prefix: str = ""):
        return ops.nested_leaf_items(prefix, _head_parts(self.stages, self.predictor))


def head_grads(stage_grads: Sequence[Grads], predictor_grads: Grads) -> Grads:
    """A head's gradient from those of its stages and its predictor."""
    return Grads(ops.nested_leaf_items("", _head_parts(stage_grads, predictor_grads)))


@dataclass
class HeadConfig:
    """Refinement-strategy selector and widths.

    depth_or_budget is M >= 0 for the explicit stack (0 passes the feature
    through), N >= 1 for the shared unroll, and the Broyden iteration
    budget (>= 1) for the implicit head.
    """

    strategy: str
    depth_or_budget: int
    channels: int = 256
    channel_multiplier: float = 1.0
    double_residual: bool = True
    predictor_classes: int = 80
    shortcut_mode: str = SHORTCUT_IDENTITY
    weight_norm: bool = False
    # init-time contraction knobs; 1.0/0.5 keep the standard initialization,
    # the toy experiment preset shrinks them so the block map starts
    # contractive and equilibrium solves are healthy from step 0
    gn2_scale_init: float = 1.0
    shortcut_gain_init: float = 0.5
    # optional post-update magnitude caps on the same two quantities; they
    # pin the block Jacobian scale during training (the block's h-Jacobian
    # is proportional to the final norm scale and the shortcut gain, and
    # unconstrained training drifts both toward the edge of contraction)
    gn2_scale_cap: Optional[float] = None
    shortcut_gain_cap: Optional[float] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        floor = 0 if self.strategy == EXPLICIT else 1
        if self.depth_or_budget < floor:
            raise ValueError(f"{self.strategy} needs depth_or_budget >= {floor}")
        if self.channels < 1 or self.predictor_classes < 1:
            raise ValueError("channels and predictor_classes must be positive")
        if self.shortcut_mode not in (SHORTCUT_IDENTITY, SHORTCUT_CONV):
            raise ValueError(f"unknown shortcut_mode {self.shortcut_mode!r}")
        mid = self.channels * self.channel_multiplier
        if mid < 1 or abs(mid - round(mid)) > 1e-9:
            raise ValueError(
                f"channel_multiplier {self.channel_multiplier} x {self.channels} channels "
                "must be a positive integer"
            )

    @property
    def mid_channels(self) -> int:
        return int(round(self.channels * self.channel_multiplier))

    @property
    def num_stages(self) -> int:
        if self.strategy == EXPLICIT:
            return self.depth_or_budget
        return 1


# ---------------------------------------------------------------------------
# initialization


def init_conv(
    rng: CounterRng,
    out_channels: int,
    in_channels: int,
    kh: int,
    kw: int,
    weight_norm: bool = False,
) -> ConvParams:
    """He-normal direction (std sqrt(2/fan_in)), zero bias.

    With weight norm the gains start at the direction norms, so the initial
    effective kernel is identical to the plain parameterization.
    """
    fan_in = in_channels * kh * kw
    direction = rng.normal((out_channels, in_channels, kh, kw)) * np.sqrt(2.0 / fan_in)
    if weight_norm:
        gain = np.linalg.norm(direction.reshape(out_channels, -1), axis=1)
    else:
        gain = np.ones(out_channels)
    return ConvParams(direction, gain, np.zeros(out_channels), weight_norm)


def init_group_norm(channels: int) -> GroupNormParams:
    return GroupNormParams(default_group_count(channels), np.ones(channels), np.zeros(channels))


def _init_shortcut(channels: int, gain_value: float, weight_norm: bool) -> ConvParams:
    direction = np.zeros((channels, channels, 1, 1))
    direction[np.arange(channels), np.arange(channels), 0, 0] = gain_value
    gain = np.full(channels, gain_value) if weight_norm else np.ones(channels)
    return ConvParams(direction, gain, np.zeros(channels), weight_norm)


def init_double_residual(
    rng: CounterRng,
    channels: int,
    mid_channels: Optional[int] = None,
    shortcut_mode: str = SHORTCUT_IDENTITY,
    weight_norm: bool = False,
    residual_enabled: bool = True,
    gn2_scale_init: float = 1.0,
    shortcut_gain_init: float = 0.5,
) -> DoubleResidualParams:
    mid = channels if mid_channels is None else mid_channels
    shortcut = None
    if residual_enabled and shortcut_mode == SHORTCUT_CONV:
        shortcut = _init_shortcut(channels, shortcut_gain_init, weight_norm)
    gn2 = init_group_norm(channels)
    gn2.scale[:] = gn2_scale_init
    return DoubleResidualParams(
        w1=init_conv(rng.split(1), mid, channels, 3, 3, weight_norm),
        gn1=init_group_norm(mid),
        w2=init_conv(rng.split(2), channels, mid, 3, 3, weight_norm),
        gn2=gn2,
        shortcut=shortcut,
        residual_enabled=residual_enabled,
    )


def init_mask_predictor(rng: CounterRng, channels: int, classes: int) -> MaskPredictorParams:
    return MaskPredictorParams(
        deconv=init_conv(rng.split(1), channels, channels, 2, 2),
        proj=init_conv(rng.split(2), classes, channels, 1, 1),
    )


def init_head(rng: CounterRng, cfg: HeadConfig) -> HeadParams:
    stages = [
        init_double_residual(
            rng.split(i),
            cfg.channels,
            cfg.mid_channels,
            cfg.shortcut_mode,
            cfg.weight_norm,
            cfg.double_residual,
            cfg.gn2_scale_init,
            cfg.shortcut_gain_init,
        )
        for i in range(cfg.num_stages)
    ]
    return HeadParams(stages, init_mask_predictor(rng.split(10_000), cfg.channels, cfg.predictor_classes))


# ---------------------------------------------------------------------------
# block forward/backward


@dataclass
class BlockTape:
    """Forward intermediates plus cached GN statistics and effective kernels.

    The implicit backward pass applies the transposed block Jacobian at one
    fixed linearization point many times, so everything reusable is saved.
    """

    r: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    mask1: np.ndarray
    a1: np.ndarray
    xhat2: np.ndarray
    inv_std2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k_shortcut: Optional[np.ndarray]


def _effective_kernels(p: DoubleResidualParams):
    """(w1, w2, shortcut) kernels as the convs apply them; shortcut None if absent."""
    ks = None if p.shortcut is None else ops.effective_kernel(p.shortcut)
    return ops.effective_kernel(p.w1), ops.effective_kernel(p.w2), ks


def _block_forward(
    p: DoubleResidualParams, kernels, h: np.ndarray, x: np.ndarray, keep_tape: bool = False
):
    """F(h; x) on precomputed effective kernels, unchecked; (F, tape) if keep_tape."""
    k1, k2, ks = kernels
    r = h + x
    c1 = ops._conv2d_core(r, k1, p.w1.bias)
    xhat1, inv_std1 = ops._group_stats(c1, p.gn1)
    g1 = xhat1 * p.gn1.scale[:, None, None] + p.gn1.shift[:, None, None]
    a1 = np.maximum(g1, 0.0)
    c2 = ops._conv2d_core(a1, k2, p.w2.bias)
    xhat2, inv_std2 = ops._group_stats(c2, p.gn2)
    out = xhat2 * p.gn2.scale[:, None, None] + p.gn2.shift[:, None, None]
    if p.residual_enabled:
        out = out + (r if ks is None else ops._conv2d_core(r, ks, p.shortcut.bias))
    if not keep_tape:
        return out
    return out, BlockTape(r, xhat1, inv_std1, g1 > 0.0, a1, xhat2, inv_std2, k1, k2, ks)


def _check_operands(p: DoubleResidualParams, h: np.ndarray, x: np.ndarray) -> None:
    if h.shape != x.shape:
        raise ShapeError(f"hidden shape {h.shape} != input shape {x.shape}")
    ops.check_maps(x, "block input")
    ops.check_finite(h, "block hidden state")
    if x.shape[-3] != p.channels:
        raise ShapeError(f"input has {x.shape[-3]} channels, block expects {p.channels}")


def block_forward_tape(
    p: DoubleResidualParams, h: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, BlockTape]:
    """F(h; x) and the tape its VJP reads."""
    _check_operands(p, h, x)
    return _block_forward(p, _effective_kernels(p), h, x, keep_tape=True)


def block_vjp_from_tape(
    p: DoubleResidualParams,
    tape: BlockTape,
    cotangent: np.ndarray,
    want_params: bool = True,
) -> tuple[np.ndarray, Optional[Grads]]:
    """Adjoint of the block given saved intermediates.

    Returns (dR, grads); the adjoints w.r.t. h and x both equal dR because
    R = h + x. want_params=False skips every parameter-gradient contraction
    (the adjoint fixed-point loop only needs dR).
    """
    d_c2 = ops.group_norm_input_vjp(tape.xhat2, tape.inv_std2, p.gn2, cotangent)
    if want_params:
        d_a1, w2_g = ops.conv2d_vjp(tape.a1, p.w2, d_c2)
    else:
        d_a1 = ops.conv2d_input_vjp(tape.k2, d_c2)
    d_g1 = np.where(tape.mask1, d_a1, 0.0)
    d_c1 = ops.group_norm_input_vjp(tape.xhat1, tape.inv_std1, p.gn1, d_g1)
    if want_params:
        d_r, w1_g = ops.conv2d_vjp(tape.r, p.w1, d_c1)
    else:
        d_r = ops.conv2d_input_vjp(tape.k1, d_c1)
    shortcut_g = None
    if p.residual_enabled:
        if p.shortcut is None:
            d_r = d_r + cotangent
        else:
            if want_params:
                d_r_s, shortcut_g = ops.conv2d_vjp(tape.r, p.shortcut, cotangent)
            else:
                d_r_s = ops.conv2d_input_vjp(tape.k_shortcut, cotangent)
            d_r = d_r + d_r_s
    if not want_params:
        return d_r, None
    gn1_g = ops.group_norm_param_grads(tape.xhat1, d_g1)
    gn2_g = ops.group_norm_param_grads(tape.xhat2, cotangent)
    if p.shortcut is not None and shortcut_g is None:
        shortcut_g = Grads.zeros_like(p.shortcut)
    parts = _block_parts(w1_g, gn1_g, w2_g, gn2_g, shortcut_g)
    return d_r, Grads(ops.nested_leaf_items("", parts))


def double_residual_forward(
    p: DoubleResidualParams, h: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """One application of the transformation F(h; x)."""
    _check_operands(p, h, x)
    return _block_forward(p, _effective_kernels(p), h, x)


def block_apply_factory(p: DoubleResidualParams, x: np.ndarray):
    """h -> F(h; x) with effective kernels computed once and no operand checks.

    Used inside solver and long-unroll loops where the parameters are frozen.
    """
    kernels = _effective_kernels(p)
    return lambda h: _block_forward(p, kernels, h, x)


def double_residual_vjp(
    p: DoubleResidualParams, h: np.ndarray, x: np.ndarray, cotangent: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Grads]:
    """Exact adjoints of double_residual_forward w.r.t. h, x and parameters."""
    out, tape = block_forward_tape(p, h, x)
    if cotangent.shape != out.shape:
        raise ShapeError(f"cotangent shape {cotangent.shape} != output shape {out.shape}")
    d_r, grads = block_vjp_from_tape(p, tape, cotangent)
    return d_r, d_r.copy(), grads


# ---------------------------------------------------------------------------
# head strategies


def stacked_head_forward(
    params: Sequence[DoubleResidualParams], x: np.ndarray
) -> np.ndarray:
    """Depth-M stack with independent per-stage parameters (see stacked_head_tapes)."""
    return stacked_head_tapes(params, x)[0]


def stacked_head_tapes(params: Sequence[DoubleResidualParams], x: np.ndarray):
    """Taped pass through the blocks in order from h0 = 0: (h, per-block tapes).

    The weight-shared unroll is the stack with one block repeated. An empty
    stack is the 0-stage baseline and passes (a copy of) x through unchanged.
    """
    if not params:
        return x.copy(), []
    h = np.zeros_like(x)
    tapes = []
    for i, p in enumerate(params):
        h, tape = block_forward_tape(p, h, x)
        if not np.all(np.isfinite(h)):
            raise DivergenceError(f"block {i} produced a non-finite iterate", step=i)
        tapes.append(tape)
    return h, tapes


def _stack_backward(params: Sequence[DoubleResidualParams], tapes, cotangent: np.ndarray):
    """(dR, parameter grads) of each taped block, top block first.

    dR is the adjoint of the block's input R = h + x: it is the cotangent
    passed down to the block below and one term of the adjoint of x.
    """
    d_h = cotangent
    for p, tape in zip(reversed(params), reversed(tapes)):
        d_h, grads = block_vjp_from_tape(p, tape, d_h)
        yield d_h, grads


def stacked_head_vjp(
    params: Sequence[DoubleResidualParams],
    x: np.ndarray,
    cotangent: np.ndarray,
    tapes=None,
) -> tuple[np.ndarray, list[Grads]]:
    if not params:
        return cotangent.copy(), []
    if tapes is None:
        _, tapes = stacked_head_tapes(params, x)
    dx_total = np.zeros_like(x)
    grads = []
    for d_r, block_grads in _stack_backward(params, tapes, cotangent):
        dx_total += d_r
        grads.append(block_grads)
    # the bottom stage's dR propagates no further: h0 is the constant zero
    return dx_total, grads[::-1]


def unrolled_shared_forward(
    p: DoubleResidualParams, x: np.ndarray, n: int
) -> tuple[np.ndarray, list[float]]:
    """n weight-shared applications from h0 = 0; trace of step-size norms."""
    return fixed_point_iterate(block_apply_factory(p, x), np.zeros_like(x), n)


def unrolled_shared_vjp(
    p: DoubleResidualParams,
    x: np.ndarray,
    n: int,
    cotangent: np.ndarray,
    tapes=None,
) -> tuple[np.ndarray, Grads]:
    """Backpropagation through the n-step unroll, accumulating shared grads.

    tapes are those of stacked_head_tapes([p] * n, x); the shared gradient
    sums the per-step gradients as they are made, last step first.
    """
    if tapes is None:
        _, tapes = stacked_head_tapes([p] * n, x)
    dx_total, total = np.zeros_like(x), Grads.zeros_like(p)
    for d_r, grads in _stack_backward([p] * n, tapes, cotangent):
        dx_total += d_r
        total.iadd(grads)
    return dx_total, total


# ---------------------------------------------------------------------------
# predictor tail


def mask_predictor_forward(p: MaskPredictorParams, h: np.ndarray, keep_tape: bool = False):
    """Refined feature (C, H, W) to logits (classes, 2H, 2W).

    With keep_tape, returns (logits, a): a is the ReLU of the upsampled
    feature, the one intermediate mask_predictor_vjp reads.
    """
    a = ops.relu(ops.deconv2x2(h, p.deconv))
    logits = ops.conv2d(a, p.proj)
    return (logits, a) if keep_tape else logits


def mask_predictor_vjp(
    p: MaskPredictorParams, h: np.ndarray, a: np.ndarray, cotangent: np.ndarray
) -> tuple[np.ndarray, Grads]:
    """Adjoints w.r.t. h and the predictor's leaves, given the forward's tape a."""
    d_a, proj_g = ops.conv2d_vjp(a, p.proj, cotangent)
    # a > 0 exactly where the deconv output is, so a masks like the ReLU's input
    d_d = ops.relu_vjp(a, d_a)
    d_h, deconv_g = ops.deconv2x2_vjp(h, p.deconv, d_d)
    return d_h, Grads(ops.nested_leaf_items("", _predictor_parts(deconv_g, proj_g)))


# ---------------------------------------------------------------------------
# parameter counting


def _conv_count(out_c: int, in_c: int, k: int, gains: bool) -> int:
    """Kernel, bias and, with weight norm, one gain per output channel."""
    return out_c * in_c * k * k + out_c + (out_c if gains else 0)


def count_block_parameters(cfg: HeadConfig) -> int:
    """Count of a single stage block (no predictor tail)."""
    c, mid, gains = cfg.channels, cfg.mid_channels, cfg.weight_norm
    block = _conv_count(mid, c, 3, gains) + _conv_count(c, mid, 3, gains) + 2 * mid + 2 * c
    if cfg.double_residual and cfg.shortcut_mode == SHORTCUT_CONV:
        block += _conv_count(c, c, 1, gains)
    return block


def count_parameters(cfg: HeadConfig) -> int:
    """Exact learnable-value count of the head (stages plus predictor tail).

    Stage convs carry weight-norm gains when the config enables weight
    norm; the predictor tail never does.
    """
    c = cfg.channels
    tail = _conv_count(c, c, 2, False) + _conv_count(cfg.predictor_classes, c, 1, False)
    return cfg.num_stages * count_block_parameters(cfg) + tail
