"""Double-residual transformation block, refinement-head strategies, and the
mask-predictor tail.

The block computes F(h; x) = GN2(conv2(relu(GN1(conv1(R))))) + shortcut(R)
with R = h + x. Three head strategies apply it: a stack of depth M with
independent per-stage parameters, a weight-shared unroll of N steps, and the
implicit equilibrium head (see `ifr.implicit`). All backward passes are exact
compositions of the op-level VJPs in `ifr.ops`. Features carry the optional
leading batch axis of `ifr.ops`, (N, C, H, W); the parameter gradients of a
batch are the sums of its samples' gradients; one snapshot of a block's
parameters (`prepare_block`) serves every shape. A gradient is an `ops.Grads`
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
from .solver import DivergenceError

EXPLICIT = "explicit-independent"
UNROLLED = "unrolled-shared"
IMPLICIT = "implicit-broyden"
STRATEGIES = (EXPLICIT, UNROLLED, IMPLICIT)

SHORTCUT_IDENTITY = "identity"
SHORTCUT_CONV = "conv1x1"
SHORTCUT_MODES = (SHORTCUT_IDENTITY, SHORTCUT_CONV)


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

    def __post_init__(self):
        if self.deconv.direction.shape[2:] != (2, 2) or self.proj.direction.shape[2:] != (1, 1):
            raise ShapeError("the predictor needs a 2x2 deconv kernel and a 1x1 projection")
        if self.proj.in_channels != self.deconv.out_channels:
            raise ShapeError("the projection must read the deconv's output channels")

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
        if self.shortcut_mode not in SHORTCUT_MODES:
            raise ValueError(f"unknown shortcut_mode {self.shortcut_mode!r}")
        for init in (self.gn2_scale_init, self.shortcut_gain_init):
            if not np.isfinite(init):
                raise ValueError(f"an init value must be finite, got {init}")
        for cap in (self.gn2_scale_cap, self.shortcut_gain_cap):
            if cap is not None and not cap > 0:
                raise ValueError(f"a set magnitude cap must be positive, got {cap}")
        mid = self.channels * self.channel_multiplier
        if not np.isfinite(mid) or mid < 1 or abs(mid - round(mid)) > 1e-9:
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


def init_double_residual(rng: CounterRng, cfg: HeadConfig) -> DoubleResidualParams:
    """One stage block of the head `cfg` describes.

    gn2 starts at scale cfg.gn2_scale_init. A conv1x1 shortcut, kept only
    with the double residual, starts at cfg.shortcut_gain_init x identity.
    """
    c, mid, wn = cfg.channels, cfg.mid_channels, cfg.weight_norm
    shortcut = None
    if cfg.double_residual and cfg.shortcut_mode == SHORTCUT_CONV:
        direction = np.zeros((c, c, 1, 1))
        direction[np.arange(c), np.arange(c), 0, 0] = cfg.shortcut_gain_init
        gain = np.full(c, cfg.shortcut_gain_init) if wn else np.ones(c)
        shortcut = ConvParams(direction, gain, np.zeros(c), wn)
    gn2 = init_group_norm(c)
    gn2.scale[:] = cfg.gn2_scale_init
    return DoubleResidualParams(
        w1=init_conv(rng.split(1), mid, c, 3, 3, wn),
        gn1=init_group_norm(mid),
        w2=init_conv(rng.split(2), c, mid, 3, 3, wn),
        gn2=gn2,
        shortcut=shortcut,
        residual_enabled=cfg.double_residual,
    )


def init_mask_predictor(rng: CounterRng, cfg: HeadConfig) -> MaskPredictorParams:
    c = cfg.channels
    return MaskPredictorParams(
        deconv=init_conv(rng.split(1), c, c, 2, 2),
        proj=init_conv(rng.split(2), cfg.predictor_classes, c, 1, 1),
    )


def init_head(rng: CounterRng, cfg: HeadConfig) -> HeadParams:
    stages = [init_double_residual(rng.split(i), cfg) for i in range(cfg.num_stages)]
    return HeadParams(stages, init_mask_predictor(rng.split(10_000), cfg))


# ---------------------------------------------------------------------------
# block forward/backward


def _copy(record):
    """A copy of a parameter record and its arrays, made without re-running its checks."""
    copied = object.__new__(type(record))
    copied.__dict__ = {k: v.copy() if isinstance(v, np.ndarray) else v
                       for k, v in vars(record).items()}
    return copied


class _PreparedBlock(DoubleResidualParams):
    """A copy of a block's parameters that nothing updates, and F(h; x) for maps and
    batches of every shape on operands prepared once from it: the GEMMs of the effective
    kernels, the biases, the group-norm affine columns and the transposed GEMMs, which
    every tape of the block shares: a stack prepares each distinct block once."""

    def __init__(self, p: DoubleResidualParams):
        parts = (p.w1, p.gn1, p.w2, p.gn2, p.shortcut)
        super().__init__(*(None if part is None else _copy(part) for part in parts),
                         p.residual_enabled)
        # conv1, conv2 and the shortcut conv, and their transposes
        params = (self.w1, self.w2, self.shortcut if self.residual_enabled else None)
        self.convs = [None if c is None else ops.ConvGemm(ops.effective_kernel(c), c.bias)
                      for c in params]
        self.transposed = [None if c is None else ops.transposed_conv(c.kernel)
                           for c in self.convs]
        self.affine = [(gn.scale[:, None, None], gn.shift[:, None, None])
                       for gn in (self.gn1, self.gn2)]

    def __call__(self, h: np.ndarray, x: np.ndarray, keep_tape: bool = False):
        """F(h; x), unchecked; (F, tape) if keep_tape."""
        conv1, conv2, shortcut = self.convs
        (scale1, shift1), (scale2, shift2) = self.affine
        r = h + x
        c1 = conv1(r)
        xhat1, inv_std1 = ops.group_stats(c1, self.gn1)
        a1 = xhat1 * scale1
        a1 += shift1
        np.maximum(a1, 0.0, out=a1)
        c2 = conv2(a1)
        xhat2, inv_std2 = ops.group_stats(c2, self.gn2)
        out = xhat2 * scale2
        out += shift2
        if self.residual_enabled:
            out += r if shortcut is None else shortcut(r)
        if not keep_tape:
            return out
        return out, BlockTape(self, r, xhat1, inv_std1, a1, a1 > 0.0, xhat2, inv_std2)


@dataclass
class BlockTape:
    """Forward intermediates of F at one point, and the prepared block they came from.

    The implicit backward applies the transposed block Jacobian at one point many
    times, so everything reusable is saved: the group-norm statistics and the ReLU
    mask here; the parameters and the transposed GEMMs with their buffers on the block."""

    block: _PreparedBlock
    r: np.ndarray
    xhat1: np.ndarray
    inv_std1: np.ndarray
    a1: np.ndarray
    mask1: np.ndarray
    xhat2: np.ndarray
    inv_std2: np.ndarray


def _check_operands(p: DoubleResidualParams, h: np.ndarray, x: np.ndarray) -> None:
    if h.shape != x.shape:
        raise ShapeError(f"hidden shape {h.shape} != input shape {x.shape}")
    ops.check_maps(x, "block input")
    ops.check_finite(h, "block hidden state")
    if x.shape[-3] != p.channels:
        raise ShapeError(f"input has {x.shape[-3]} channels, block expects {p.channels}")


def prepare_block(p: DoubleResidualParams) -> DoubleResidualParams:
    """A snapshot of p that nothing updates, for maps of any shape: a copy of p
    taken now, or p itself if it is such a snapshot already. The block functions
    below take it in place of p and skip the preparation."""
    return p if isinstance(p, _PreparedBlock) else _PreparedBlock(p)


def block_forward_tape(
    p: DoubleResidualParams, h: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, BlockTape]:
    """F(h; x) and the tape its VJP reads, on prepare_block(p)."""
    _check_operands(p, h, x)
    return prepare_block(p)(h, x, keep_tape=True)


def block_vjp_from_tape(
    p: DoubleResidualParams,
    tape: BlockTape,
    cotangent: np.ndarray,
    want_params: bool = True,
) -> tuple[np.ndarray, Optional[Grads]]:
    """Adjoint of the block: GEMMs on the tape's operands and group-norm adjoints.

    Every value is read from the tape, parameters from its copy of p.
    Returns (dR, grads); the adjoints w.r.t. h and x both equal dR because
    R = h + x. want_params=False skips every parameter-gradient contraction
    (the adjoint fixed-point loop only needs dR). A kernel gradient is read
    from the cotangent's columns that the conv's input adjoint builds.
    The ReLU's adjoint multiplies by its mask: a closed entry is +0.0 for a
    finite cotangent, and stays NaN for a non-finite one.
    """
    block = tape.block
    conv1_t, conv2_t, shortcut_t = block.transposed
    w1, w2, shortcut = (block.w1, block.w2, block.shortcut) if want_params else (None,) * 3
    d_c2 = ops.group_norm_input_vjp(tape.xhat2, tape.inv_std2, block.gn2, cotangent)
    d_a1, w2_g = ops.conv2d_adjoint(
        conv2_t, d_c2, w2, ops.channel_rows(tape.a1) if want_params else None)
    d_g1 = np.multiply(d_a1, tape.mask1, out=d_a1)
    d_g1 += 0.0
    d_c1 = ops.group_norm_input_vjp(tape.xhat1, tape.inv_std1, block.gn1, d_g1)
    r_rows = ops.channel_rows(tape.r) if want_params else None
    d_r, w1_g = ops.conv2d_adjoint(conv1_t, d_c1, w1, r_rows)
    d_s, shortcut_g = cotangent, None
    if shortcut_t is not None:  # prepared only when the block adds it
        d_s, shortcut_g = ops.conv2d_adjoint(shortcut_t, cotangent, shortcut, r_rows)
    if block.residual_enabled:
        d_r += d_s
    if not want_params:
        return d_r, None
    if shortcut is not None and shortcut_g is None:  # a shortcut the block does not add
        shortcut_g = Grads.zeros_like(shortcut)
    gn1_g = ops.group_norm_param_grads(tape.xhat1, d_g1)
    gn2_g = ops.group_norm_param_grads(tape.xhat2, cotangent)
    parts = _block_parts(w1_g, gn1_g, w2_g, gn2_g, shortcut_g)
    return d_r, Grads(ops.nested_leaf_items("", parts))


def double_residual_forward(
    p: DoubleResidualParams, h: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """One application of the transformation F(h; x)."""
    _check_operands(p, h, x)
    return prepare_block(p)(h, x)


def block_apply_factory(p: DoubleResidualParams, x: np.ndarray):
    """h -> F(h; x) on prepare_block(p), with no operand checks: the map of solver
    and long-unroll loops."""
    prepared = prepare_block(p)
    return lambda h: prepared(h, x)


# ---------------------------------------------------------------------------
# head strategies


def stacked_head_forward(
    params: Sequence[DoubleResidualParams], x: np.ndarray, keep_tape: bool = False
):
    """The blocks in order from h0 = 0: h, or (h, per-step tapes) if keep_tape.

    The weight-shared unroll is the stack with one block repeated; each
    distinct block is prepared once, and a snapshot (prepare_block) is used as
    it is. An empty stack is the 0-stage baseline and passes (a copy of) x
    through unchanged.
    """
    h, tapes, prepared = np.zeros_like(x) if params else x.copy(), [], {}
    for i, p in enumerate(params):
        if id(p) not in prepared:
            _check_operands(p, h, x)
            prepared[id(p)] = prepare_block(p)
        if keep_tape:
            h, tape = block_forward_tape(prepared[id(p)], h, x)
            tapes.append(tape)
        else:
            h = prepared[id(p)](h, x)
        if not np.all(np.isfinite(h)):
            raise DivergenceError(f"block {i} produced a non-finite iterate", step=i)
    return (h, tapes) if keep_tape else h


def stacked_head_vjp(
    params: Sequence[DoubleResidualParams],
    x: np.ndarray,
    cotangent: np.ndarray,
    tapes=None,
) -> tuple[np.ndarray, list[Grads]]:
    """(dx, grads) of stacked_head_forward(params, x), whose tapes are tapes.

    grads holds one Grads per distinct block, in order of first appearance:
    the sum over the steps that apply it, last step first, which is the
    gradient of a record that appears more than once. Each step's dR is the
    cotangent of the step below and one term of dx; h0 = 0 takes none.
    """
    if not params:
        return cotangent.copy(), []
    if tapes is None:
        _, tapes = stacked_head_forward(params, x, keep_tape=True)
    totals = dict.fromkeys(map(id, params))
    dx_total, d_h = np.zeros_like(x), cotangent
    for p, tape in zip(reversed(params), reversed(tapes)):
        d_h, grads = block_vjp_from_tape(p, tape, d_h)
        dx_total += d_h
        if totals[id(p)] is None:
            totals[id(p)] = Grads.zeros_like(p)
        totals[id(p)].iadd(grads)
    return dx_total, list(totals.values())


def unrolled_shared_vjp(p: DoubleResidualParams, x: np.ndarray, n: int, cotangent, tapes=None):
    """(dx, shared grads) of the n-step unroll (n >= 1): the stack of p repeated n times."""
    dx, (grads,) = stacked_head_vjp([p] * n, x, cotangent, tapes)
    return dx, grads


# ---------------------------------------------------------------------------
# predictor tail


def mask_predictor_forward(p: MaskPredictorParams, h: np.ndarray, keep_tape: bool = False):
    """Refined feature (C, H, W) to logits (classes, 2H, 2W).

    With keep_tape, returns (logits, a): a is the ReLU of the upsampled
    feature, the one intermediate mask_predictor_vjp reads. h is checked here; the
    ops and mask_predictor_vjp check nothing.
    """
    ops.check_maps(h, "mask predictor input")
    if h.shape[-3] != p.deconv.in_channels:
        raise ShapeError(f"input has {h.shape[-3]} channels, predictor expects "
                         f"{p.deconv.in_channels}")
    a = np.maximum(ops.deconv2x2(h, p.deconv), 0.0)
    logits = ops.conv2d(a, p.proj)
    return (logits, a) if keep_tape else logits


def mask_predictor_vjp(
    p: MaskPredictorParams, h: np.ndarray, a: np.ndarray, cotangent: np.ndarray
) -> tuple[np.ndarray, Grads]:
    """Adjoints w.r.t. h and the predictor's leaves, given the forward's tape a. The
    ReLU's adjoint multiplies by its mask: a closed entry is +0.0 for a finite
    cotangent, and stays NaN for a non-finite one."""
    d_a, proj_g = ops.conv2d_vjp(a, p.proj, cotangent)
    # a > 0 exactly where the deconv output is, so a masks like the ReLU's input
    d_d = np.multiply(d_a, a > 0.0, out=d_a)
    d_d += 0.0
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
