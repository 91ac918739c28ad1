"""Primitive op tests. Derived expectations come from the direct-summation
convolution oracle and central finite differences defined at the top."""

import numpy as np
import pytest

from ifr import ops
from ifr.ops import (
    ConvParams,
    GroupNormParams,
    NonFiniteError,
    ShapeError,
    conv2d,
    conv2d_vjp,
    deconv2x2,
    deconv2x2_vjp,
    default_group_count,
    effective_kernel,
    finite_difference_grad,
    group_norm,
    group_norm_vjp,
    relu,
    relu_vjp,
)
from ifr.rng import CounterRng

from conftest import max_rel, rand


# ---------------------------------------------------------------------------
# oracles


def naive_conv2d(x, kernel, bias):
    """Direct summation over the receptive fields of a zero-padded input."""
    c_in, h, w = x.shape
    c_out, _, k, _ = kernel.shape
    pad = k // 2
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad))
    xp[:, pad : pad + h, pad : pad + w] = x
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for i in range(h):
            for j in range(w):
                out[o, i, j] = np.sum(xp[:, i : i + k, j : j + k] * kernel[o]) + bias[o]
    return out


def naive_deconv2x2(x, kernel, bias):
    c_in, h, w = x.shape
    c_out = kernel.shape[0]
    out = np.zeros((c_out, 2 * h, 2 * w))
    for o in range(c_out):
        for c in range(c_in):
            for i in range(h):
                for j in range(w):
                    out[o, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2] += x[c, i, j] * kernel[o, c]
        out[o] += bias[o]
    return out


def plain_conv(out_c, in_c, k, seed, weight_norm=False):
    rng = CounterRng(seed)
    direction = rng.normal((out_c, in_c, k, k))
    gain = rng.uniform((out_c,)) + 0.5
    bias = rng.normal((out_c,)) * 0.1
    return ConvParams(direction, gain, bias, weight_norm)


def vjp_inner_check(f, f_vjp, x, seed, rel_tol=1e-5, eps_scale=1e-5):
    """<u, (f(x+ev)-f(x-ev))/2e> == <vjp_x(u), v> within rel_tol."""
    rng = CounterRng(seed)
    v = rng.normal(x.shape)
    out = f(x)
    u = rng.normal(out.shape)
    eps = eps_scale * (np.abs(x).max() + 1.0)
    lhs = float(np.sum(u * (f(x + eps * v) - f(x - eps * v)))) / (2 * eps)
    rhs = float(np.sum(f_vjp(x, u) * v))
    assert abs(lhs - rhs) <= rel_tol * max(abs(lhs), abs(rhs), 1e-9)


# ---------------------------------------------------------------------------
# conv2d


def test_identity_stencil_is_exact_identity():
    x = rand(1, (1, 5, 5))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    p = ConvParams(k, np.ones(1), np.zeros(1))
    assert np.array_equal(conv2d(x, p), x)


def test_all_ones_kernel_receptive_sums():
    x = np.ones((1, 3, 3))
    p = ConvParams(np.ones((1, 1, 3, 3)), np.ones(1), np.zeros(1))
    out = conv2d(x, p)
    oracle = naive_conv2d(x, p.direction, p.bias)
    assert np.allclose(out, oracle)
    assert out[0, 1, 1] == 9.0
    assert out[0, 0, 0] == 4.0 and out[0, 2, 2] == 4.0


def test_weight_norm_with_gain_equal_to_norm_matches_plain():
    p = plain_conv(3, 2, 3, seed=11)
    norms = np.linalg.norm(p.direction.reshape(3, -1), axis=1)
    p_wn = ConvParams(p.direction.copy(), norms, p.bias.copy(), weight_norm_enabled=True)
    x = rand(12, (2, 6, 6))
    assert np.allclose(conv2d(x, p), conv2d(x, p_wn))


@pytest.mark.parametrize("k", [3, 1])
def test_conv2d_matches_direct_summation(k):
    x = rand(20 + k, (3, 7, 7))
    p = plain_conv(4, 3, k, seed=30 + k)
    out = conv2d(x, p)
    assert np.allclose(out, naive_conv2d(x, p.direction, p.bias), atol=1e-12)


@pytest.mark.parametrize("kh,kw", [(2, 2), (1, 3)])
def test_conv2d_rejects_an_even_or_non_square_kernel(kh, kw):
    x = rand(26, (3, 5, 5))
    p = ConvParams(rand(27, (2, 3, kh, kw)), np.ones(2), np.zeros(2))
    with pytest.raises(ShapeError):
        conv2d(x, p)
    with pytest.raises(ShapeError):
        conv2d_vjp(x, p, np.zeros((2, 5, 5)))


def test_conv2d_weight_norm_matches_direct_summation():
    x = rand(77, (2, 5, 5))
    p = plain_conv(3, 2, 3, seed=78, weight_norm=True)
    out = conv2d(x, p)
    assert np.allclose(out, naive_conv2d(x, effective_kernel(p), p.bias), atol=1e-12)


def test_conv2d_rejects_bad_shapes_and_nonfinite():
    p = plain_conv(2, 3, 3, seed=1)
    with pytest.raises(ShapeError):
        conv2d(rand(2, (4, 5, 5)), p)
    bad = rand(3, (3, 5, 5))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteError):
        conv2d(bad, p)
    with pytest.raises(ShapeError):
        conv2d_vjp(rand(4, (3, 5, 5)), p, np.zeros((2, 9, 9)))


def test_conv2d_vjp_zero_cotangent_gives_zero_grads():
    x = rand(5, (2, 4, 4))
    p = plain_conv(3, 2, 3, seed=6, weight_norm=True)
    dx, grads = conv2d_vjp(x, p, np.zeros((3, 4, 4)))
    assert not dx.any()
    assert list(grads) == ["direction", "gain", "bias"]
    assert not any(arr.any() for arr in grads.values())


def test_conv2d_vjp_bias_is_cotangent_channel_sum():
    x = rand(8, (2, 4, 4))
    p = plain_conv(3, 2, 3, seed=9)
    cot = rand(10, (3, 4, 4))
    _, grads = conv2d_vjp(x, p, cot)
    assert np.allclose(grads["bias"], cot.sum(axis=(1, 2)))


@pytest.mark.parametrize("weight_norm", [False, True])
def test_conv2d_vjp_input_matches_finite_differences(weight_norm):
    x = rand(40, (1, 4, 4))
    p = plain_conv(2, 1, 3, seed=41, weight_norm=weight_norm)
    cot = rand(42, (2, 4, 4))
    v = rand(43, x.shape)
    eps = 1e-5
    lhs = float(np.sum(cot * (conv2d(x + eps * v, p) - conv2d(x - eps * v, p)))) / (
        2 * eps
    )
    dx, _ = conv2d_vjp(x, p, cot)
    rhs = float(np.sum(dx * v))
    assert abs(lhs - rhs) < 1e-6 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("leaf", ["direction", "gain", "bias"])
def test_conv2d_vjp_params_match_finite_differences(leaf):
    x = rand(50, (2, 4, 4))
    p = plain_conv(2, 2, 3, seed=51, weight_norm=True)
    cot = rand(52, (2, 4, 4))
    _, grads = conv2d_vjp(x, p, cot)
    arr = getattr(p, leaf)
    analytic = grads[leaf]

    def loss():
        return float(np.sum(cot * conv2d(x, p)))

    eps = 1e-6
    flat, gflat = arr.reshape(-1), analytic.reshape(-1)
    for i in range(0, flat.size, max(1, flat.size // 5)):
        orig = flat[i]
        flat[i] = orig + eps
        up = loss()
        flat[i] = orig - eps
        down = loss()
        flat[i] = orig
        fd = (up - down) / (2 * eps)
        assert abs(fd - gflat[i]) < 1e-5 * max(abs(fd), 1.0)


# ---------------------------------------------------------------------------
# group norm


def test_group_norm_constant_input_gives_zero():
    p = GroupNormParams(2, np.ones(4), np.zeros(4))
    x = np.full((4, 3, 3), 2.5)
    assert np.allclose(group_norm(x, p), 0.0)


def test_group_norm_zero_scale_broadcasts_shift():
    shift = np.array([1.0, -2.0, 0.5, 3.0])
    p = GroupNormParams(2, np.zeros(4), shift)
    out = group_norm(rand(60, (4, 3, 3)), p)
    assert np.allclose(out, shift[:, None, None])


def test_group_norm_statistics_oracle():
    x = rand(61, (6, 5, 5))
    p = GroupNormParams(3, np.ones(6), np.zeros(6))
    out = group_norm(x, p)  # scale 1 shift 0: output == normalized values
    grouped_in = x.reshape(3, -1)
    grouped_out = out.reshape(3, -1)
    v = grouped_in.var(axis=1)
    assert np.abs(grouped_out.mean(axis=1)).max() < 1e-10
    expected_var = v / (v + ops.GROUP_NORM_EPSILON)
    assert np.abs(grouped_out.var(axis=1) - expected_var).max() < 1e-8


def test_group_norm_rejects_indivisible_groups():
    with pytest.raises(ShapeError):
        GroupNormParams(3, np.ones(4), np.zeros(4))


def test_group_norm_vjp_matches_finite_differences():
    x = rand(62, (4, 3, 3))
    scale = rand(63, (4,)) * 0.5 + 1.0
    shift = rand(64, (4,)) * 0.3
    p = GroupNormParams(2, scale, shift)
    cot = rand(65, x.shape)

    dx, grads = group_norm_vjp(x, p, cot)
    fd_dx = finite_difference_grad(lambda t: float(np.sum(cot * group_norm(t, p))), x, 1e-6)
    assert np.abs(dx - fd_dx).max() < 1e-6 * max(np.abs(fd_dx).max(), 1.0)
    fd_scale = finite_difference_grad(
        lambda s: float(np.sum(cot * group_norm(x, GroupNormParams(2, s, shift)))), scale, 1e-6
    )
    assert np.allclose(grads["scale"], fd_scale, atol=1e-6)
    assert np.allclose(grads["shift"], cot.sum(axis=(1, 2)))


def test_default_group_count():
    assert default_group_count(256) == 32
    assert default_group_count(8) == 8
    assert default_group_count(48) == 24
    assert default_group_count(7) == 7


# ---------------------------------------------------------------------------
# pointwise, deconv, 1x1


def test_relu_examples_and_tie_convention():
    x = np.array([[[-1.0, 0.0, 2.0]]])
    assert np.allclose(relu(x), [[[0.0, 0.0, 2.0]]])
    cot = np.full_like(x, 5.0)
    assert np.allclose(relu_vjp(x, cot), [[[0.0, 0.0, 5.0]]])


def test_relu_vjp_matches_finite_differences_away_from_zero():
    x = rand(70, (2, 4, 4))
    x[np.abs(x) < 0.05] = 0.2  # keep away from the kink
    cot = rand(71, x.shape)
    fd = finite_difference_grad(lambda t: float(np.sum(cot * relu(t))), x, 1e-6)
    assert np.abs(relu_vjp(x, cot) - fd).max() < 1e-8


def test_grads_mirror_their_record_and_add_in_place():
    p = plain_conv(3, 2, 3, seed=73, weight_norm=True)
    total = ops.Grads.zeros_like(p)
    assert [(n, a.shape) for n, a in total.leaf_items("w.")] == [
        ("w." + n, a.shape) for n, a in p.leaf_items()
    ]
    _, grads = conv2d_vjp(rand(74, (2, 4, 4)), p, rand(75, (3, 4, 4)))
    total.iadd(grads)
    total.iadd(grads)
    for name, arr in total.items():
        assert np.array_equal(arr, 2.0 * grads[name])
    with pytest.raises(ShapeError):
        total.iadd(ops.Grads(direction=grads["direction"], bias=grads["bias"]))


def test_deconv2x2_single_tap_scales_kernel():
    p = plain_conv(3, 1, 2, seed=80)
    x = np.full((1, 1, 1), 2.0)
    out = deconv2x2(x, p)
    assert out.shape == (3, 2, 2)
    assert np.allclose(out, 2.0 * p.direction[:, 0] + p.bias[:, None, None])


def test_deconv2x2_matches_direct_summation_and_doubles_extent():
    x = rand(81, (2, 5, 5))
    p = plain_conv(3, 2, 2, seed=82)
    out = deconv2x2(x, p)
    assert out.shape == (3, 10, 10)
    assert np.allclose(out, naive_deconv2x2(x, p.direction, p.bias), atol=1e-12)


def test_deconv2x2_vjp_consistency():
    p = plain_conv(2, 2, 2, seed=83, weight_norm=True)
    vjp_inner_check(
        lambda t: deconv2x2(t, p), lambda t, u: deconv2x2_vjp(t, p, u)[0], rand(84, (2, 3, 3)), 85
    )


def test_1x1_identity_mixing_preserves_input():
    eye = np.eye(3).reshape(3, 3, 1, 1)
    p = ConvParams(eye, np.ones(3), np.zeros(3))
    x = rand(86, (3, 4, 4))
    assert np.array_equal(conv2d(x, p), x)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_difference_grad_quadratic():
    grad = finite_difference_grad(lambda t: float(np.sum(t * t)), np.array([1.0, 2.0]), 1e-6)
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_difference_grad_linear():
    grad = finite_difference_grad(lambda t: float(t.sum()), rand(90, (2, 3)), 1e-6)
    assert np.allclose(grad, 1.0, atol=1e-9)


def test_finite_difference_grad_matches_composite_vjp():
    p1 = plain_conv(3, 2, 3, seed=91, weight_norm=True)
    gn = GroupNormParams(3, np.ones(3) * 1.2, np.full(3, 0.1))
    x = rand(92, (2, 5, 5))
    u = rand(93, (3, 5, 5))

    def f(t):
        return float(np.sum(u * group_norm(conv2d(t, p1), gn)))

    fd = finite_difference_grad(f, x, 1e-5)
    d_gn = group_norm_vjp(conv2d(x, p1), gn, u)[0]
    analytic = conv2d_vjp(x, p1, d_gn)[0]
    denom = np.abs(analytic).max()
    assert np.abs(fd - analytic).max() / denom < 1e-5


def test_finite_difference_grad_rejects_nonfinite_f():
    with pytest.raises(NonFiniteError):
        finite_difference_grad(lambda t: float("nan"), np.ones(2), 1e-6)


# ---------------------------------------------------------------------------
# module invariants


@pytest.mark.parametrize("op_seed", [0, 1, 2])
def test_vjp_consistency_suite(op_seed):
    p3 = plain_conv(3, 2, 3, seed=100 + op_seed, weight_norm=op_seed % 2 == 0)
    gn = GroupNormParams(2, rand(110 + op_seed, (4,)) * 0.4 + 1.0, rand(111 + op_seed, (4,)) * 0.2)
    cases = [
        (lambda t: conv2d(t, p3), lambda t, u: conv2d_vjp(t, p3, u)[0], (2, 5, 5)),
        (lambda t: group_norm(t, gn), lambda t, u: group_norm_vjp(t, gn, u)[0], (4, 4, 4)),
        (lambda t: relu(t + 0.1), lambda t, u: relu_vjp(t + 0.1, u), (3, 4, 4)),
    ]
    for i, (f, f_vjp, shape) in enumerate(cases):
        vjp_inner_check(f, f_vjp, rand(120 + 10 * op_seed + i, shape), 130 + 10 * op_seed + i)


def test_weight_norm_effective_kernel_norms_equal_gain():
    p = plain_conv(4, 3, 3, seed=140, weight_norm=True)
    k = effective_kernel(p)
    norms = np.linalg.norm(k.reshape(4, -1), axis=1)
    assert np.abs(norms - p.gain).max() < 1e-12


def test_direction_norm_floor_applied_at_construction():
    direction = np.zeros((2, 1, 3, 3))
    direction[1, 0, 0, 0] = 1.0
    p = ConvParams(direction, np.ones(2), np.zeros(2))
    norms = np.linalg.norm(p.direction.reshape(2, -1), axis=1)
    assert norms.min() >= 1e-12


def test_operations_are_pure_and_deterministic():
    x = rand(150, (2, 5, 5))
    p = plain_conv(3, 2, 3, seed=151, weight_norm=True)
    x_copy = x.copy()
    a = conv2d(x, p)
    b = conv2d(x, p)
    assert np.array_equal(a, b)
    assert np.array_equal(x, x_copy)


# ---------------------------------------------------------------------------
# leading batch axis


@pytest.mark.parametrize("k", [3, 1])
def test_batched_conv_ops_match_stacked_per_sample_results(k):
    x = rand(200 + k, (5, 3, 7, 7))
    p = plain_conv(4, 3, k, seed=202, weight_norm=True)
    out = conv2d(x, p)
    assert max_rel(out, np.stack([conv2d(xi, p) for xi in x])) < 1e-12
    cot = rand(202, out.shape)
    dx, grads = conv2d_vjp(x, p, cot)
    per = [conv2d_vjp(xi, p, ci) for xi, ci in zip(x, cot)]
    assert max_rel(dx, np.stack([d for d, _ in per])) < 1e-12
    for leaf in ("direction", "gain", "bias"):
        summed = sum(g[leaf] for _, g in per)
        assert max_rel(grads[leaf], summed) < 1e-12
    kernel = effective_kernel(p)
    dx_only = ops.conv2d_input_vjp(kernel, cot)
    assert max_rel(dx_only, dx) < 1e-12


def test_batched_group_norm_and_deconv_match_stacked_per_sample_results():
    x = rand(210, (5, 4, 6, 6))
    gn = GroupNormParams(2, rand(211, (4,)) * 0.4 + 1.0, rand(212, (4,)) * 0.2)
    out = group_norm(x, gn)
    assert max_rel(out, np.stack([group_norm(xi, gn) for xi in x])) < 1e-12
    cot = rand(213, x.shape)
    dx, grads = group_norm_vjp(x, gn, cot)
    per = [group_norm_vjp(xi, gn, ci) for xi, ci in zip(x, cot)]
    assert max_rel(dx, np.stack([d for d, _ in per])) < 1e-12
    assert max_rel(grads["scale"], sum(g["scale"] for _, g in per)) < 1e-12
    assert max_rel(grads["shift"], sum(g["shift"] for _, g in per)) < 1e-12

    p = plain_conv(3, 4, 2, seed=214, weight_norm=True)
    out = deconv2x2(x, p)
    assert out.shape == (5, 3, 12, 12)
    assert max_rel(out, np.stack([deconv2x2(xi, p) for xi in x])) < 1e-12
    cot = rand(215, out.shape)
    dx, grads = deconv2x2_vjp(x, p, cot)
    per = [deconv2x2_vjp(xi, p, ci) for xi, ci in zip(x, cot)]
    assert max_rel(dx, np.stack([d for d, _ in per])) < 1e-12
    for leaf in ("direction", "gain", "bias"):
        assert max_rel(grads[leaf], sum(g[leaf] for _, g in per)) < 1e-12


def test_ops_reject_maps_without_three_or_four_axes():
    p = plain_conv(2, 3, 3, seed=216)
    with pytest.raises(ShapeError):
        conv2d(rand(217, (3, 5)), p)
    with pytest.raises(ShapeError):
        conv2d(rand(218, (1, 2, 3, 5, 5)), p)
    with pytest.raises(ShapeError):
        deconv2x2(rand(219, (3, 5)), plain_conv(2, 3, 2, seed=220))
    batch = rand(221, (2, 3, 5, 5))
    batch[1, 0, 0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        conv2d(batch, p)
