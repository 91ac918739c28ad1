"""Double-residual block, head strategies, predictor, and parameter counts."""

import dataclasses

import numpy as np
import pytest

from ifr import blocks, ops
from ifr.blocks import (
    EXPLICIT,
    IMPLICIT,
    UNROLLED,
    DivergenceError,
    DoubleResidualParams,
    HeadConfig,
    count_block_parameters,
    count_parameters,
    double_residual_forward,
    double_residual_vjp,
    init_double_residual,
    init_head,
    init_mask_predictor,
    mask_predictor_forward,
    mask_predictor_vjp,
    stacked_head_forward,
    stacked_head_tapes,
    stacked_head_vjp,
    unrolled_shared_forward,
    unrolled_shared_vjp,
)
from ifr.ops import ConvParams, GroupNormParams, ShapeError, finite_difference_grad
from ifr.rng import CounterRng

from conftest import max_rel, rand


def zero_block(channels=4, shortcut_conv=False, residual=True) -> DoubleResidualParams:
    """All learnable values zero (directions floored to the 1e-12 stencil)."""
    c = channels
    conv = lambda: ConvParams(np.zeros((c, c, 3, 3)), np.zeros(c), np.zeros(c))
    gn = lambda: GroupNormParams(c, np.zeros(c), np.zeros(c))
    shortcut = ConvParams(np.zeros((c, c, 1, 1)), np.zeros(c), np.zeros(c)) if shortcut_conv else None
    return DoubleResidualParams(conv(), gn(), conv(), gn(), shortcut, residual_enabled=residual)


def small_block(seed=3, channels=4, shortcut_conv=True) -> DoubleResidualParams:
    return init_double_residual(
        CounterRng(seed),
        channels,
        channels,
        shortcut_mode="conv1x1" if shortcut_conv else "identity",
        weight_norm=True,
        gn2_scale_init=0.5,
        shortcut_gain_init=0.4,
    )


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
    dh, dx, grads = double_residual_vjp(p, h, x, np.zeros_like(x))
    assert not dh.any() and not dx.any()
    assert all(not arr.any() for _, arr in grads.leaf_items())


def test_block_vjp_shortcut_only_path():
    x = rand(7, (4, 6, 6))
    h = rand(8, (4, 6, 6))
    cot = rand(9, (4, 6, 6))
    dh, dx, _ = double_residual_vjp(zero_block(), h, x, cot)
    assert np.allclose(dh, cot, atol=1e-15)
    assert np.allclose(dx, cot, atol=1e-15)


def test_block_vjp_matches_finite_differences_every_leaf():
    p = small_block(seed=11)
    x = rand(12, (4, 6, 6))
    h = rand(13, (4, 6, 6))
    cot = rand(14, (4, 6, 6))
    dh, dx, grads = double_residual_vjp(p, h, x, cot)

    fd_h = finite_difference_grad(
        lambda t: float(np.sum(cot * double_residual_forward(p, t, x))), h
    )
    assert np.abs(dh - fd_h).max() / np.abs(fd_h).max() < 1e-5
    fd_x = finite_difference_grad(
        lambda t: float(np.sum(cot * double_residual_forward(p, h, t))), x
    )
    assert np.abs(dx - fd_x).max() / np.abs(fd_x).max() < 1e-5

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
    h, tapes = stacked_head_tapes([], x)
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
    unrolled, trace = unrolled_shared_forward(p, x, 4)
    assert np.array_equal(stacked, unrolled)
    assert len(trace) == 4


def test_unrolled_zero_steps():
    p = small_block(seed=25)
    x = rand(26, (4, 6, 6))
    out, trace = unrolled_shared_forward(p, x, 0)
    assert not out.any() and trace == []


def test_unrolled_linear_proxy_geometric_series():
    p = linear_proxy_block(slope=0.5, offset=0.5)
    x = np.ones((1, 1, 1))  # F(h; 1) = 0.5 h + 1
    out, trace = unrolled_shared_forward(p, x, 3)
    assert out[0, 0, 0] == 1.75
    assert trace == [1.0, 0.5, 0.25]


def test_unrolled_long_run_contracts_below_tolerance(corpus_block):
    x = rand(27, (8, 6, 6))
    _, trace = unrolled_shared_forward(corpus_block, x, 1000)
    assert trace[-1] < 1e-6
    # eventually strictly decreasing (before the steps underflow to zero)
    window = [t for t in trace if t > 1e-13][-60:]
    assert all(b < a for a, b in zip(window, window[1:]))


def test_unrolled_divergence_reports_step_index():
    p = linear_proxy_block(slope=1e8, offset=0.0)  # wildly expanding map
    x = np.full((1, 1, 1), 1e300)
    with pytest.raises(DivergenceError) as err:
        unrolled_shared_forward(p, x, 50)
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
    fd = finite_difference_grad(
        lambda t: float(np.sum(cot * unrolled_shared_forward(p, t, 3)[0])), x
    )
    assert np.abs(dx - fd).max() / np.abs(fd).max() < 1e-5
    grad_map = dict(grads.leaf_items())
    scale = max(np.abs(g).max() for g in grad_map.values())
    for name, arr in list(p.leaf_items())[:4]:
        fd = finite_difference_grad(
            lambda _t: float(np.sum(cot * unrolled_shared_forward(p, x, 3)[0])), arr
        )
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
    p = init_mask_predictor(CounterRng(50), 4, 1)
    p.deconv.direction[:] = 0.0
    p.proj.direction[:] = 0.0
    ops.floor_direction_norms(p.deconv.direction)
    ops.floor_direction_norms(p.proj.direction)
    logits = mask_predictor_forward(p, rand(51, (4, 14, 14)))
    assert np.abs(logits).max() < 1e-18


def test_mask_predictor_doubles_spatial_extent():
    p = init_mask_predictor(CounterRng(52), 8, 3)
    logits = mask_predictor_forward(p, rand(53, (8, 14, 14)))
    assert logits.shape == (3, 28, 28)


def predictor_vjp(p, h, cot):
    _, a = mask_predictor_forward(p, h, keep_tape=True)
    return mask_predictor_vjp(p, h, a, cot)


def test_mask_predictor_vjp_matches_finite_differences():
    p = init_mask_predictor(CounterRng(54), 4, 2)
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
    for cfg in [
        coco_cfg(IMPLICIT, 15, 1 / 4),
        HeadConfig(
            strategy=EXPLICIT, depth_or_budget=3, channels=8, predictor_classes=1,
            shortcut_mode="conv1x1", weight_norm=True,
        ),
    ]:
        params = init_head(CounterRng(60), cfg)
        built = sum(arr.size for _, arr in params.leaf_items())
        counted = count_parameters(cfg)
        assert built == counted


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
    assert none is None and max_rel(d_r_only, d_r) < 1e-12
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
    p = init_mask_predictor(CounterRng(44), 4, 2)
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
