"""Double-residual block, head strategies, predictor, and parameter counts."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ifr import blocks, ops
from ifr.blocks import (
    EXPLICIT,
    IMPLICIT,
    UNROLLED,
    DoubleResidualParams,
    HeadConfig,
    count_block_parameters,
    count_parameters,
    double_residual_forward,
    init_double_residual,
    init_head,
    mask_predictor_forward,
    mask_predictor_vjp,
    stacked_head_forward,
    stacked_head_vjp,
    unrolled_shared_vjp,
)
from ifr.gradcheck import contractive_block
from ifr.ops import ConvParams, GroupNormParams, ShapeError, finite_difference_grad
from ifr.rng import CounterRng
from ifr.solver import DivergenceError, fixed_point_iterate

from conftest import init_predictor, max_rel, rand


def zero_block(channels=4, shortcut_conv=False, residual=True) -> DoubleResidualParams:
    """All learnable values zero (directions floored to the 1e-12 stencil)."""
    c = channels
    conv = lambda: ConvParams(np.zeros((c, c, 3, 3)), np.zeros(c), np.zeros(c))
    gn = lambda: GroupNormParams(c, np.zeros(c), np.zeros(c))
    shortcut = ConvParams(np.zeros((c, c, 1, 1)), np.zeros(c), np.zeros(c)) if shortcut_conv else None
    return DoubleResidualParams(conv(), gn(), conv(), gn(), shortcut, residual_enabled=residual)


def small_block(seed=3, channels=4, shortcut_conv=True) -> DoubleResidualParams:
    cfg = HeadConfig(IMPLICIT, 1, channels=channels, weight_norm=True,
                     shortcut_mode="conv1x1" if shortcut_conv else "identity",
                     gn2_scale_init=0.5, shortcut_gain_init=0.4)
    return init_double_residual(CounterRng(seed), cfg)


def linear_proxy_block(slope=0.5, offset=0.5) -> DoubleResidualParams:
    """A 1-channel 1x1 block realizing F(h; x) = slope*(h + x) + offset.

    Single-element groups make both group norms output their shift exactly
    (zero variance), so the main path contributes the constant gn2 shift
    and the conv1x1 shortcut contributes slope * R.
    """
    conv = lambda: ConvParams(np.zeros((1, 1, 3, 3)), np.zeros(1), np.zeros(1))
    gn1 = GroupNormParams(1, np.zeros(1), np.zeros(1))
    gn2 = GroupNormParams(1, np.zeros(1), np.array([offset]))
    shortcut = ConvParams(np.full((1, 1, 1, 1), slope), np.ones(1), np.zeros(1))
    return DoubleResidualParams(conv(), gn1, conv(), gn2, shortcut, residual_enabled=True)


def block_vjp(p, h, x, cot):
    """(dR, grads) at (h, x) through the taped forward; dR is the adjoint of both h and x."""
    _, tape = blocks.block_forward_tape(p, h, x)
    return blocks.block_vjp_from_tape(p, tape, cot)


# ---------------------------------------------------------------------------
# block forward


def test_zero_parameters_identity_shortcut_passes_input_through():
    x = rand(1, (4, 6, 6))
    out = double_residual_forward(zero_block(), np.zeros_like(x), x)
    assert np.allclose(out, x, atol=1e-15)


def test_zero_parameters_without_residual_gives_zero():
    x = rand(2, (4, 6, 6))
    h = rand(3, (4, 6, 6))
    out = double_residual_forward(zero_block(residual=False), h, x)
    assert np.allclose(out, 0.0, atol=1e-15)


def test_block_rejects_mismatched_shapes():
    p = small_block()
    with pytest.raises(ShapeError):
        double_residual_forward(p, np.zeros((4, 5, 5)), np.zeros((4, 6, 6)))


def test_block_output_shape_matches_input():
    p = small_block()
    x = rand(4, (4, 6, 6))
    assert double_residual_forward(p, np.zeros_like(x), x).shape == x.shape


def test_block_vjp_zero_cotangent():
    p = small_block()
    x, h = rand(5, (4, 6, 6)), rand(6, (4, 6, 6))
    d_r, grads = block_vjp(p, h, x, np.zeros_like(x))
    assert not d_r.any()
    assert all(not arr.any() for _, arr in grads.leaf_items())


def test_block_vjp_shortcut_only_path():
    x = rand(7, (4, 6, 6))
    h = rand(8, (4, 6, 6))
    cot = rand(9, (4, 6, 6))
    d_r, _ = block_vjp(zero_block(), h, x, cot)
    assert np.allclose(d_r, cot, atol=1e-15)


def test_block_vjp_matches_finite_differences_every_leaf():
    p = small_block(seed=11)
    x = rand(12, (4, 6, 6))
    h = rand(13, (4, 6, 6))
    cot = rand(14, (4, 6, 6))
    d_r, grads = block_vjp(p, h, x, cot)

    fd_h = finite_difference_grad(
        lambda t: float(np.sum(cot * double_residual_forward(p, t, x))), h
    )
    assert np.abs(d_r - fd_h).max() / np.abs(fd_h).max() < 1e-5
    fd_x = finite_difference_grad(
        lambda t: float(np.sum(cot * double_residual_forward(p, h, t))), x
    )
    assert np.abs(d_r - fd_x).max() / np.abs(fd_x).max() < 1e-5

    grad_map = dict(grads.leaf_items())
    scale = max(np.abs(g).max() for g in grad_map.values())
    for name, arr in p.leaf_items():
        fd = finite_difference_grad(
            lambda _t: float(np.sum(cot * double_residual_forward(p, h, x))), arr
        )
        denom = max(np.abs(fd).max(), 1e-6 * scale)
        assert np.abs(grad_map[name] - fd).max() / denom < 1e-4, name


# ---------------------------------------------------------------------------
# stacked and unrolled heads


def test_stacked_zero_stage_is_identity():
    x = rand(20, (4, 6, 6))
    out = stacked_head_forward([], x)
    assert np.array_equal(out, x) and out is not x
    h, tapes = stacked_head_forward([], x, keep_tape=True)
    assert np.array_equal(h, x) and h is not x and tapes == []
    dx, grads = stacked_head_vjp([], x, x.copy())
    assert np.array_equal(dx, x) and grads == []


def test_stacked_single_stage_equals_block_from_zero():
    p = small_block(seed=21)
    x = rand(22, (4, 6, 6))
    assert np.array_equal(
        stacked_head_forward([p], x), double_residual_forward(p, np.zeros_like(x), x)
    )


def test_stacked_shared_values_equal_unrolled_step_for_step():
    p = small_block(seed=23)
    x = rand(24, (4, 6, 6))
    stacked = stacked_head_forward([p, p, p, p], x)
    unrolled, trace = fixed_point_iterate(blocks.block_apply_factory(p, x), np.zeros_like(x), 4)
    assert np.array_equal(stacked, unrolled)
    assert len(trace) == 4


def test_unrolled_zero_steps():
    p = small_block(seed=25)
    x = rand(26, (4, 6, 6))
    out, trace = fixed_point_iterate(blocks.block_apply_factory(p, x), np.zeros_like(x), 0)
    assert not out.any() and trace == []


def test_unrolled_linear_proxy_geometric_series():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))  # F(h; 1) = 0.5 h + 1
    out, trace = fixed_point_iterate(blocks.block_apply_factory(p, x), np.zeros_like(x), 3)
    assert out[0, 0, 0] == 1.75
    assert trace == [1.0, 0.5, 0.25]


def test_unrolled_long_run_contracts_below_tolerance(corpus_block):
    x = rand(27, (8, 6, 6))
    _, trace = fixed_point_iterate(
        blocks.block_apply_factory(corpus_block, x), np.zeros_like(x), 1000)
    assert trace[-1] < 1e-6
    # eventually strictly decreasing (before the steps underflow to zero)
    window = [t for t in trace if t > 1e-13][-60:]
    assert all(b < a for a, b in zip(window, window[1:]))


def test_unrolled_divergence_reports_step_index():
    p = linear_proxy_block(slope=1e8, offset=0.0)  # wildly expanding map
    x = np.full((1, 1, 1), 1e300)
    with pytest.raises(DivergenceError) as err:
        fixed_point_iterate(blocks.block_apply_factory(p, x), np.zeros_like(x), 50)
    assert err.value.step >= 0


def test_stacked_vjp_matches_finite_differences():
    stages = [small_block(seed=s) for s in (31, 32)]
    x = rand(33, (4, 6, 6))
    cot = rand(34, (4, 6, 6))
    dx, _ = stacked_head_vjp(stages, x, cot)
    fd = finite_difference_grad(
        lambda t: float(np.sum(cot * stacked_head_forward(stages, t))), x
    )
    assert np.abs(dx - fd).max() / np.abs(fd).max() < 1e-5


def test_unrolled_vjp_matches_finite_differences():
    p = small_block(seed=35)
    x = rand(36, (4, 6, 6))
    cot = rand(37, (4, 6, 6))
    dx, grads = unrolled_shared_vjp(p, x, 3, cot)
    fd = finite_difference_grad(lambda t: float(np.sum(cot * fixed_point_iterate(
        blocks.block_apply_factory(p, t), np.zeros_like(t), 3)[0])), x)
    assert np.abs(dx - fd).max() / np.abs(fd).max() < 1e-5
    grad_map = dict(grads.leaf_items())
    scale = max(np.abs(g).max() for g in grad_map.values())
    for name, arr in list(p.leaf_items())[:4]:
        fd = finite_difference_grad(lambda _t: float(np.sum(cot * fixed_point_iterate(
            blocks.block_apply_factory(p, x), np.zeros_like(x), 3)[0])), arr)
        denom = max(np.abs(fd).max(), 1e-6 * scale)
        assert np.abs(grad_map[name] - fd).max() / denom < 1e-4, name


def test_decomposition_identity_shortcut_vs_main_path():
    p = small_block(seed=38, shortcut_conv=False)
    h, x = rand(39, (4, 6, 6)), rand(40, (4, 6, 6))
    full = double_residual_forward(p, h, x)
    p_off = DoubleResidualParams(p.w1, p.gn1, p.w2, p.gn2, None, residual_enabled=False)
    main_only = double_residual_forward(p_off, h, x)
    # recomposing main path + shortcut contribution reproduces the block bit-exactly
    assert np.array_equal(main_only + (h + x), full)


# ---------------------------------------------------------------------------
# predictor tail


def test_mask_predictor_zero_params_zero_logits():
    p = init_predictor(50, 4, 1)
    p.deconv.direction[:] = 0.0
    p.proj.direction[:] = 0.0
    ops.floor_direction_norms(p.deconv.direction)
    ops.floor_direction_norms(p.proj.direction)
    logits = mask_predictor_forward(p, rand(51, (4, 14, 14)))
    assert np.abs(logits).max() < 1e-18


def test_mask_predictor_doubles_spatial_extent():
    p = init_predictor(52, 8, 3)
    logits = mask_predictor_forward(p, rand(53, (8, 14, 14)))
    assert logits.shape == (3, 28, 28)


def predictor_vjp(p, h, cot):
    _, a = mask_predictor_forward(p, h, keep_tape=True)
    return mask_predictor_vjp(p, h, a, cot)


def test_mask_predictor_vjp_matches_finite_differences():
    p = init_predictor(54, 4, 2)
    h = rand(55, (4, 6, 6))
    cot = rand(56, (2, 12, 12))
    dh, grads = predictor_vjp(p, h, cot)
    fd = finite_difference_grad(
        lambda t: float(np.sum(cot * mask_predictor_forward(p, t))), h
    )
    assert np.abs(dh - fd).max() / np.abs(fd).max() < 1e-5
    grad_map = dict(grads.leaf_items())
    for name, arr in [("deconv.bias", p.deconv.bias), ("proj.direction", p.proj.direction)]:
        fd = finite_difference_grad(
            lambda _t: float(np.sum(cot * mask_predictor_forward(p, h))), arr
        )
        assert np.abs(grad_map[name] - fd).max() < 1e-4 * max(np.abs(fd).max(), 1.0), name


# ---------------------------------------------------------------------------
# input checks: each layer checks its input map once, where it enters


def layer_entries():
    """Each entry that checks an input map, as a function of a map for a 4-channel layer."""
    block, predictor = small_block(seed=57), init_predictor(58, 4, 2)
    return [
        lambda m: double_residual_forward(block, np.zeros_like(m), m),
        lambda m: blocks.block_forward_tape(block, np.zeros_like(m), m),
        lambda m: stacked_head_forward([block, block], m),
        lambda m: mask_predictor_forward(predictor, m),
        lambda m: mask_predictor_forward(predictor, m, keep_tape=True),
    ]


def test_layer_entries_reject_maps_without_three_or_four_axes():
    for entry in layer_entries():
        for shape in [(4, 5), (1, 2, 4, 5, 5)]:
            with pytest.raises(ShapeError, match="channels, height, width"):
                entry(rand(59, shape))


def test_layer_entries_reject_a_non_finite_entry_and_the_wrong_channel_count():
    for entry in layer_entries():
        for bad in (np.nan, np.inf):
            batch = rand(61, (2, 4, 5, 5))
            batch[1, 3, 4, 0] = bad
            with pytest.raises(ops.NonFiniteError, match="contains non-finite values"):
                entry(batch)
        with pytest.raises(ShapeError, match="has 3 channels"):
            entry(rand(62, (3, 5, 5)))


def test_a_predictor_record_checks_its_kernel_shapes_when_built():
    p = init_predictor(63, 4, 2)
    with pytest.raises(ShapeError, match="2x2 deconv kernel and a 1x1 projection"):
        blocks.MaskPredictorParams(p.proj, p.deconv)
    with pytest.raises(ShapeError, match="deconv's output channels"):
        blocks.MaskPredictorParams(init_predictor(64, 3, 2).deconv, p.proj)


# ---------------------------------------------------------------------------
# parameter counting (closed-form inventory, checked against built params)


def coco_cfg(strategy, depth, multiplier=1.0):
    return HeadConfig(
        strategy=strategy,
        depth_or_budget=depth,
        channels=256,
        channel_multiplier=multiplier,
        predictor_classes=80,
        shortcut_mode="identity",
        weight_norm=False,
    )


def test_count_implicit_coco_head():
    cfg = coco_cfg(IMPLICIT, 15)
    # inventory: two 3x3 convs 2*(256*256*9 + 256), two GN affines 2*(2*256),
    # deconv 256*256*4 + 256, projection 80*256 + 80
    assert count_block_parameters(cfg) == 2 * (256 * 256 * 9 + 256) + 4 * 256
    assert count_block_parameters(cfg) == 1_181_184
    assert count_parameters(cfg) == 1_181_184 + (256 * 256 * 4 + 256) + (80 * 256 + 80)
    assert count_parameters(cfg) == 1_464_144
    assert round(count_parameters(cfg) / 1e6, 1) == 1.5


def test_count_explicit_coco_head_and_exact_identity():
    cfg4 = coco_cfg(EXPLICIT, 4)
    tail = (256 * 256 * 4 + 256) + (80 * 256 + 80)
    assert count_parameters(cfg4) == 4 * 1_181_184 + tail
    assert count_parameters(cfg4) == 5_007_696
    assert round(count_parameters(cfg4) / 1e6, 1) == 5.0
    # exact arithmetic identity against the single-block count
    assert count_parameters(cfg4) == 4 * count_block_parameters(cfg4) + tail


def test_count_ratio_below_30_percent():
    ratio = count_parameters(coco_cfg(IMPLICIT, 15)) / count_parameters(coco_cfg(EXPLICIT, 4))
    assert ratio < 0.30
    assert abs(ratio - 0.292) < 5e-3


@pytest.mark.parametrize(
    "multiplier,rounded",
    [(1 / 8, 0.4), (1 / 4, 0.6), (1 / 2, 0.9), (1.0, 1.5), (2.0, 2.6)],
)
def test_count_channel_multiplier_sweep(multiplier, rounded):
    cfg = coco_cfg(IMPLICIT, 15, multiplier)
    assert round(count_parameters(cfg) / 1e6, 1) == rounded


def test_count_matches_constructed_parameters():
    small = dict(channels=8, predictor_classes=1, shortcut_mode="conv1x1")
    cases = [
        coco_cfg(IMPLICIT, 15, 1 / 4),
        HeadConfig(EXPLICIT, 3, **small),
        HeadConfig(EXPLICIT, 0, **small),  # the predictor alone
        HeadConfig(UNROLLED, 4, **small),
        HeadConfig(IMPLICIT, 4, double_residual=False, **small),  # no shortcut leaves
    ]
    for case in cases:
        for weight_norm in (False, True):
            cfg = dataclasses.replace(case, weight_norm=weight_norm)
            params = init_head(CounterRng(60), cfg)
            assert len(params.stages) == cfg.num_stages
            shortcut = [name for name, _ in params.leaf_items() if ".shortcut." in name]
            assert bool(shortcut) == (cfg.num_stages > 0 and cfg.double_residual
                                      and cfg.shortcut_mode == "conv1x1"), cfg
            built = sum(arr.size for _, arr in params.leaf_items())
            assert built == count_parameters(cfg), cfg


def test_count_weight_norm_gains_flag():
    plain = coco_cfg(IMPLICIT, 15)
    normed = dataclasses.replace(plain, weight_norm=True)
    # one gain vector per stage conv
    assert count_parameters(normed) == count_parameters(plain) + 2 * 256


def test_head_config_validation():
    with pytest.raises(ValueError):
        HeadConfig(strategy="bogus", depth_or_budget=1)
    with pytest.raises(ValueError):
        HeadConfig(strategy=IMPLICIT, depth_or_budget=-1)
    with pytest.raises(ValueError):
        HeadConfig(strategy=IMPLICIT, depth_or_budget=15, channels=10, channel_multiplier=1 / 4)


@pytest.mark.parametrize("strategy,floor", [(EXPLICIT, 0), (UNROLLED, 1), (IMPLICIT, 1)])
def test_head_config_depth_floor(strategy, floor):
    # an explicit stack of 0 blocks passes x through; a 0-step unroll or a
    # 0-iteration solve has no block to run
    assert HeadConfig(strategy=strategy, depth_or_budget=floor).depth_or_budget == floor
    with pytest.raises(ValueError, match=f"depth_or_budget >= {floor}"):
        HeadConfig(strategy=strategy, depth_or_budget=floor - 1)


# ---------------------------------------------------------------------------
# leading batch axis


@pytest.mark.parametrize("shortcut_conv", [True, False])
def test_batched_block_forward_and_vjp_match_per_sample(shortcut_conv):
    p = small_block(seed=40, shortcut_conv=shortcut_conv)
    x, h = rand(41, (5, 4, 6, 6)), rand(42, (5, 4, 6, 6))
    out, tape = blocks.block_forward_tape(p, h, x)
    per = [blocks.block_forward_tape(p, hi, xi) for hi, xi in zip(h, x)]
    assert max_rel(out, np.stack([o for o, _ in per])) < 1e-12
    assert np.array_equal(double_residual_forward(p, h, x), out)
    cot = rand(43, out.shape)
    d_r, grads = blocks.block_vjp_from_tape(p, tape, cot)
    per_vjp = [blocks.block_vjp_from_tape(p, t, ci) for (_, t), ci in zip(per, cot)]
    assert max_rel(d_r, np.stack([d for d, _ in per_vjp])) < 1e-12
    d_r_only, none = blocks.block_vjp_from_tape(p, tape, cot, want_params=False)
    assert none is None and np.array_equal(d_r_only, d_r)
    batched = dict(grads.leaf_items())
    for name, arr in batched.items():
        summed = sum(dict(g.leaf_items())[name] for _, g in per_vjp)
        assert np.abs(arr - summed).max() <= 1e-12 * max(np.abs(summed).max(), 1.0), name


def test_disabled_residual_keeps_a_zero_shortcut_gradient():
    p = dataclasses.replace(small_block(seed=49), residual_enabled=False)
    x, h = rand(50, (2, 4, 6, 6)), rand(51, (2, 4, 6, 6))
    _, tape = blocks.block_forward_tape(p, h, x)
    _, grads = blocks.block_vjp_from_tape(p, tape, rand(52, x.shape))
    layout = [(name, arr.shape) for name, arr in p.leaf_items()]
    assert [(name, arr.shape) for name, arr in grads.leaf_items()] == layout
    shortcut = [arr for name, arr in grads.items() if name.startswith("shortcut.")]
    assert len(shortcut) == 3 and not any(arr.any() for arr in shortcut)
    assert grads["w1.direction"].any()


def test_batched_predictor_forward_and_vjp_match_per_sample():
    p = init_predictor(44, 4, 2)
    h = rand(45, (5, 4, 6, 6))
    logits = mask_predictor_forward(p, h)
    assert logits.shape == (5, 2, 12, 12)
    assert max_rel(logits, np.stack([mask_predictor_forward(p, hi) for hi in h])) < 1e-12
    cot = rand(46, logits.shape)
    d_h, grads = predictor_vjp(p, h, cot)
    per = [predictor_vjp(p, hi, ci) for hi, ci in zip(h, cot)]
    assert max_rel(d_h, np.stack([d for d, _ in per])) < 1e-12
    for name, arr in grads.leaf_items():
        summed = sum(dict(g.leaf_items())[name] for _, g in per)
        assert max_rel(arr, summed) < 1e-12, name


def test_batched_stack_rejects_a_non_finite_sample():
    p = small_block(seed=47)
    x = rand(48, (3, 4, 6, 6))
    x[2, 1, 0, 0] = np.nan
    with pytest.raises(ops.NonFiniteError):
        stacked_head_forward([p, p], x)


# ---------------------------------------------------------------------------
# prepared operands against the unprepared block
#
# The reference below is the unprepared block: every convolution zero-pads a
# fresh copy of its input and windows it, every input VJP flips its kernel
# again, and the ReLU mask is recomputed on each call. The prepared block runs
# the same GEMMs on the same operands, so its outputs must be the same bytes.


def _ref_patches(batch, k):
    n, c, h, w = batch.shape
    pad = k // 2
    x_pad = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    x_pad[:, :, pad : pad + h, pad : pad + w] = batch
    sn, sc, sh, sw = x_pad.strides
    windows = np.ndarray((c, k, k, n, h, w), np.float64, x_pad, 0, (sc, sh, sw, sn, sh, sw))
    return windows.reshape(c * k * k, n * h * w)


def _ref_conv(x, kernel, bias):
    out = kernel.reshape(kernel.shape[0], -1) @ _ref_patches(ops.as_batch(x), kernel.shape[-1])
    if bias is not None:
        out += bias[:, None]
    c, (h, w) = out.shape[0], x.shape[-2:]
    rows = out.reshape(c, -1, h, w).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(rows).reshape(x.shape[:-3] + (c, h, w))


def _ref_input_vjp(kernel, cot):
    return _ref_conv(cot, np.ascontiguousarray(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)), None)


def _ref_param_grads(x, p, cot):
    """The cotangent's patches against the input's channel rows, read at the flipped tap."""
    out_c, in_c, k, _ = p.direction.shape
    patches = _ref_patches(ops.as_batch(cot), k)
    rows = ops.as_batch(x).transpose(1, 0, 2, 3).reshape(in_c, -1)
    taps = (patches @ rows.T).reshape(out_c, k, k, in_c)
    d_kernel = np.ascontiguousarray(taps[:, ::-1, ::-1].transpose(0, 3, 1, 2))
    return ops._kernel_vjp(p, d_kernel, ops.as_batch(cot).sum(axis=(0, 2, 3)))


def _input_patch_param_grads(x, p, cot):
    """An independent oracle: the cotangent's channel rows against the input's patches,
    dK[o, i, a, b] = sum over pixels y of d[o, y] x_pad[i, y + (a, b)]."""
    cols = _ref_patches(ops.as_batch(x), p.direction.shape[-1])
    rows = ops.as_batch(cot).transpose(1, 0, 2, 3).reshape(cot.shape[-3], -1)
    d_kernel = (rows @ cols.T).reshape(p.direction.shape)
    return ops._kernel_vjp(p, d_kernel, ops.as_batch(cot).sum(axis=(0, 2, 3)))


def _ref_block_forward(p, h, x):
    """(F(h; x), saved intermediates), reading p when called."""
    k1, k2 = ops.effective_kernel(p.w1), ops.effective_kernel(p.w2)
    ks = None if p.shortcut is None else ops.effective_kernel(p.shortcut)
    r = h + x
    c1 = _ref_conv(r, k1, p.w1.bias)
    xhat1, inv_std1 = ops.group_stats(c1, p.gn1)
    a1 = np.maximum(xhat1 * p.gn1.scale[:, None, None] + p.gn1.shift[:, None, None], 0.0)
    c2 = _ref_conv(a1, k2, p.w2.bias)
    xhat2, inv_std2 = ops.group_stats(c2, p.gn2)
    out = xhat2 * p.gn2.scale[:, None, None] + p.gn2.shift[:, None, None]
    if p.residual_enabled:
        out = out + (r if ks is None else _ref_conv(r, ks, p.shortcut.bias))
    return out, (r, xhat1, inv_std1, a1, xhat2, inv_std2, k1, k2, ks)


def _ref_block_vjp(p, saved, cot, want_params=True, param_grads=_ref_param_grads):
    r, xhat1, inv_std1, a1, xhat2, inv_std2, k1, k2, ks = saved
    d_c2 = ops.group_norm_input_vjp(xhat2, inv_std2, p.gn2, cot)
    d_g1 = np.where(a1 > 0.0, _ref_input_vjp(k2, d_c2), 0.0)
    d_c1 = ops.group_norm_input_vjp(xhat1, inv_std1, p.gn1, d_g1)
    d_r = _ref_input_vjp(k1, d_c1)
    if p.residual_enabled:
        d_r = d_r + (cot if ks is None else _ref_input_vjp(ks, cot))
    if not want_params:
        return d_r, None
    shortcut_g = None
    if p.shortcut is not None:
        shortcut_g = (param_grads(r, p.shortcut, cot) if p.residual_enabled
                      else ops.Grads.zeros_like(p.shortcut))
    parts = blocks._block_parts(
        param_grads(r, p.w1, d_c1), ops.group_norm_param_grads(xhat1, d_g1),
        param_grads(a1, p.w2, d_c2), ops.group_norm_param_grads(xhat2, cot), shortcut_g)
    return d_r, ops.Grads(ops.nested_leaf_items("", parts))


# kind -> (shortcut mode, residual_enabled); "unused-conv1x1" keeps a shortcut
# conv that the block does not add
BLOCK_KINDS = {
    "conv1x1": ("conv1x1", True),
    "identity": ("identity", True),
    "no-residual": ("identity", False),
    "unused-conv1x1": ("conv1x1", False),
}


def random_block(seed, kind, weight_norm):
    """A 4-channel block with 6 intermediate channels and every leaf drawn at random."""
    mode, residual = BLOCK_KINDS[kind]
    cfg = HeadConfig(IMPLICIT, 1, channels=4, channel_multiplier=1.5, shortcut_mode=mode,
                     weight_norm=weight_norm)
    p = init_double_residual(CounterRng(seed), cfg)
    p = dataclasses.replace(p, residual_enabled=residual)
    for i, (_, arr) in enumerate(p.leaf_items()):
        arr[...] = 0.5 * rand(seed + 100 + i, arr.shape)
    return p


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_grads(a, b) -> bool:
    return list(a) == list(b) and all(same_bytes(a[name], b[name]) for name in a)


@pytest.mark.parametrize("shape", [(4, 14, 14), (1, 4, 14, 14), (8, 4, 6, 6), (4, 6, 6)])
@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
@pytest.mark.parametrize("weight_norm", [True, False])
def test_prepared_block_is_bit_identical_to_the_reference(shape, kind, weight_norm):
    p = random_block(60, kind, weight_norm)
    h, x = rand(61, shape), rand(62, shape)
    ref_out, saved = _ref_block_forward(p, h, x)
    out, tape = blocks.block_forward_tape(p, h, x)
    assert same_bytes(out, ref_out)
    assert same_bytes(double_residual_forward(p, h, x), ref_out)
    apply = blocks.block_apply_factory(p, x)
    for seed in (63, 64):
        h_i = rand(seed, shape)
        assert same_bytes(apply(h_i), _ref_block_forward(p, h_i, x)[0])
        cot = rand(seed + 10, shape)
        d_r, none = blocks.block_vjp_from_tape(p, tape, cot, want_params=False)
        assert none is None and same_bytes(d_r, _ref_block_vjp(p, saved, cot, False)[0])
        d_r, grads = blocks.block_vjp_from_tape(p, tape, cot)
        ref_d_r, ref_grads = _ref_block_vjp(p, saved, cot)
        assert same_bytes(d_r, ref_d_r) and same_grads(grads, ref_grads)


def assert_matches_the_input_patch_oracle(grads, oracle, from_3x3_kernel):
    """A leaf that from_3x3_kernel(name) marks agrees within 1e-13 of the largest entry of
    the whole gradient; every other leaf is the same bytes. (A per-leaf relative error
    would compare rounding: leaves such as w1.gain sit ahead of a group norm and are near
    zero.)"""
    assert list(grads) == list(oracle)
    scale = max(np.abs(arr).max() for arr in oracle.values())
    for name, arr in grads.items():
        if from_3x3_kernel(name):
            assert np.abs(arr - oracle[name]).max() <= 1e-13 * scale, name
        else:
            assert same_bytes(arr, oracle[name]), name


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("shape", [(4, 6, 6), (3, 4, 6, 6)])
@pytest.mark.parametrize("weight_norm", [True, False])
def test_conv_kernel_grads_match_the_input_patch_oracle(k, shape, weight_norm):
    rng = CounterRng(40 + k)
    p = ConvParams(rng.normal((6, 4, k, k)), rng.uniform((6,)) + 0.5, rng.normal((6,)),
                   weight_norm)
    x, cot = rand(41, shape), rand(42, shape[:-3] + (6,) + shape[-2:])
    assert_matches_the_input_patch_oracle(
        ops.conv2d_vjp(x, p, cot)[1], _input_patch_param_grads(x, p, cot),
        lambda name: k == 3 and name != "bias")


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
@pytest.mark.parametrize("shape", [(4, 6, 6), (3, 4, 6, 6)])
@pytest.mark.parametrize("weight_norm", [True, False])
def test_block_kernel_grads_match_the_input_patch_oracle(kind, shape, weight_norm):
    p = random_block(45, kind, weight_norm)
    h, x, cot = rand(46, shape), rand(47, shape), rand(48, shape)
    _, saved = _ref_block_forward(p, h, x)
    _, tape = blocks.block_forward_tape(p, h, x)
    d_r, grads = blocks.block_vjp_from_tape(p, tape, cot)
    ref_d_r, oracle = _ref_block_vjp(p, saved, cot, param_grads=_input_patch_param_grads)
    assert same_bytes(d_r, ref_d_r)
    assert_matches_the_input_patch_oracle(
        grads, oracle, lambda name: name[:3] in ("w1.", "w2.") and name[3:] != "bias")


def _kept_arrays(obj, seen=None):
    """Every array reachable from obj through attributes, closure cells, sequences and
    dict values."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif getattr(obj, "__closure__", None):
        children = [cell.cell_contents for cell in obj.__closure__]
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [arr for child in children for arr in _kept_arrays(child, seen)]


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
@pytest.mark.parametrize("shape", [(4, 6, 6), (3, 4, 6, 6)])
def test_outputs_share_no_memory_with_what_a_map_or_tape_keeps(kind, shape):
    """Three calls of each: a conv keeps its padding buffer from its second call on.
    No two arrays that one with-params VJP returns share memory either."""
    p = random_block(70, kind, weight_norm=True)
    x = rand(71, shape)
    apply = blocks.block_apply_factory(p, x)
    _, tape = blocks.block_forward_tape(p, rand(72, shape), x)
    outputs = []
    for seed in (73, 74, 75):
        outputs.append(apply(rand(seed, shape)))
        outputs.append(blocks.block_vjp_from_tape(p, tape, rand(seed + 10, shape), False)[0])
        d_r, grads = blocks.block_vjp_from_tape(p, tape, rand(seed + 20, shape))
        returned = [d_r, *grads.values()]
        for i, arr in enumerate(returned):
            assert not any(np.shares_memory(arr, other) for other in returned[i + 1 :])
        outputs += returned
        if seed == 73:
            first = [arr.copy() for arr in outputs]
    assert all(same_bytes(arr, copy) for arr, copy in zip(outputs, first))
    kept = _kept_arrays(apply) + _kept_arrays(tape)
    assert len(kept) > 10
    for out in outputs:
        assert not any(np.shares_memory(out, arr) for arr in kept)


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
def test_one_snapshot_serves_maps_and_batches_of_any_shape(kind, monkeypatch):
    """A snapshot run at (C, H, W), then (N, C, H, W), then (C, H, W) again gives the
    bytes of a fresh snapshot for each shape, and each 3x3 conv allocates at most two
    pad buffers per input shape: one at its first call, the one it keeps at its second."""
    p = random_block(97, kind, weight_norm=True)
    snapshot = blocks.prepare_block(p)
    assert blocks.prepare_block(snapshot) is snapshot
    pads, real_pad = [], ops.ConvGemm._pad
    monkeypatch.setattr(ops.ConvGemm, "_pad",
                        lambda conv, shape: pads.append((id(conv), shape)) or real_pad(conv, shape))
    for i, shape in enumerate([(4, 6, 6), (3, 4, 6, 6), (4, 6, 6)]):
        h, x, cot = rand(98 + i, shape), rand(101 + i, shape), rand(104 + i, shape)
        fresh = blocks.prepare_block(p)
        for block in (snapshot, fresh):
            out, tape = blocks.block_forward_tape(block, h, x)
            results = [out, blocks.block_apply_factory(block, x)(h),
                       blocks.block_vjp_from_tape(block, tape, cot, want_params=False)[0]]
            d_r, grads = blocks.block_vjp_from_tape(block, tape, cot)
            results += [d_r, *grads.values()]
            if block is snapshot:
                expected = results
        assert all(same_bytes(a, b) for a, b in zip(expected, results))
    convs = {id(conv) for conv in snapshot.convs + snapshot.transposed if conv is not None}
    counts = [pads.count(pad) for pad in set(pads) if pad[0] in convs]
    assert counts and max(counts) == 2


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
def test_a_block_vjp_builds_one_im2col_per_3x3_conv(kind, monkeypatch):
    """A kernel gradient reads the columns that its conv's input adjoint builds, and the
    1x1 shortcut's input adjoint and gradient share the cotangent's channel rows."""
    p = random_block(76, kind, weight_norm=True)
    h, x, cot = rand(77, (3, 4, 6, 6)), rand(78, (3, 4, 6, 6)), rand(79, (3, 4, 6, 6))
    _, tape = blocks.block_forward_tape(p, h, x)
    built, columns = [], ops.ConvGemm.columns
    monkeypatch.setattr(ops.ConvGemm, "columns",
                        lambda conv, t: built.append(conv.k) or columns(conv, t))
    for want_params in (False, True):
        built.clear()
        blocks.block_vjp_from_tape(p, tape, cot, want_params)
        assert built.count(3) == 2 and built.count(1) == (kind == "conv1x1")


# tracemalloc peaks (KB) of the first three VJPs on one tape of the block below, with
# parameters and input-only, when each kernel gradient windowed its conv's input into a
# column matrix of its own (882 KB each here); the second call allocates the padding
# buffers that the transposed convs keep from then on
PEAKS_KB_WITH_A_SECOND_WINDOWING = {True: (1410.7, 1667.3, 1410.1), False: (1305.2, 1532.2, 1275.3)}


@pytest.mark.parametrize("want_params", [True, False])
def test_a_block_vjp_holds_one_column_matrix_at_a_time(want_params):
    """Each column matrix is released before the next one is built, and before d_g1 is."""
    p = contractive_block(5, channels=8)
    h, x, cot = rand(84, (8, 8, 14, 14)), rand(85, (8, 8, 14, 14)), rand(86, (8, 8, 14, 14))
    _, tape = blocks.block_forward_tape(p, h, x)
    for bound_kb in PEAKS_KB_WITH_A_SECOND_WINDOWING[want_params]:
        tracemalloc.start()
        try:
            out = blocks.block_vjp_from_tape(p, tape, cot, want_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        assert peak <= (bound_kb + 1) * 1024  # 1 KB for Python's own bookkeeping


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
@pytest.mark.parametrize("shape", [(4, 6, 6), (8, 4, 6, 6)])
def test_a_weight_shared_stack_is_bit_identical_to_the_reference(kind, shape):
    """The steps of a weight-shared stack share one prepared block and its buffers."""
    p = random_block(90, kind, weight_norm=True)
    x, cot = rand(91, shape), rand(92, shape)
    h, tapes = stacked_head_forward([p] * 3, x, keep_tape=True)
    ref_h, saved = np.zeros_like(x), []
    for _ in range(3):
        ref_h, step = _ref_block_forward(p, ref_h, x)
        saved.append(step)
    assert same_bytes(h, ref_h)
    assert len({id(tape.block) for tape in tapes}) == 1
    d_x, grads = unrolled_shared_vjp(p, x, 3, cot, tapes)
    ref_d_x, ref_grads, d_h = np.zeros_like(x), ops.Grads.zeros_like(p), cot
    for step in reversed(saved):
        d_h, step_grads = _ref_block_vjp(p, step, d_h)
        ref_d_x += d_h
        ref_grads.iadd(step_grads)
    assert same_bytes(d_x, ref_d_x) and same_grads(grads, ref_grads)


def test_a_repeated_block_gets_one_gradient_summed_over_its_steps():
    """One Grads per distinct block, in order of first appearance, summed last step first."""
    p, q = random_block(93, "conv1x1", True), random_block(94, "identity", False)
    x, cot = rand(95, (2, 4, 6, 6)), rand(96, (2, 4, 6, 6))
    d_x, grads = stacked_head_vjp([p, q, p], x, cot)
    assert len(grads) == 2
    ref_h, saved = np.zeros_like(x), []
    for block in (p, q, p):
        ref_h, step = _ref_block_forward(block, ref_h, x)
        saved.append(step)
    ref_p, ref_q = ops.Grads.zeros_like(p), ops.Grads.zeros_like(q)
    ref_d_x, d_h = np.zeros_like(x), cot
    for block, total, step in reversed(list(zip((p, q, p), (ref_p, ref_q, ref_p), saved))):
        d_h, step_grads = _ref_block_vjp(block, step, d_h)
        ref_d_x += d_h
        total.iadd(step_grads)
    assert same_bytes(d_x, ref_d_x)
    assert same_grads(grads[0], ref_p) and same_grads(grads[1], ref_q)


@pytest.mark.parametrize("kind", list(BLOCK_KINDS))
@pytest.mark.parametrize("weight_norm", [True, False])
def test_an_update_after_building_reaches_no_map_or_tape(kind, weight_norm):
    """A map and a tape read every parameter when they are built."""
    p = random_block(80, kind, weight_norm)
    h, x, cot = rand(81, (2, 4, 6, 6)), rand(82, (2, 4, 6, 6)), rand(83, (2, 4, 6, 6))
    apply = blocks.block_apply_factory(p, x)
    _, tape = blocks.block_forward_tape(p, h, x)
    before = apply(h), blocks.block_vjp_from_tape(p, tape, cot)
    for part in (p.w1, p.gn1, p.w2, p.gn2, p.shortcut):
        for arr in () if part is None else vars(part).values():
            if isinstance(arr, np.ndarray):
                arr *= 1.5
                arr += 0.25
    after = apply(h), blocks.block_vjp_from_tape(p, tape, cot)
    assert same_bytes(after[0], before[0])
    assert same_bytes(after[1][0], before[1][0]) and same_grads(after[1][1], before[1][1])
    assert not same_bytes(blocks.block_apply_factory(p, x)(h), before[0])
