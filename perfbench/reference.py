"""Plain-numpy reference computations the benchmark checks the program against.

Nothing here calls into ifr.ops or ifr.blocks: the block map, the mask
predictor, the loss and the IoU are written out again from their
definitions, so a fault in the program's kernels cannot hide in its own
oracle. Parameter records are read attribute by attribute only.

    F(h; x) = GN2(conv2(relu(GN1(conv1(h + x))))) + shortcut(h + x)
"""

from __future__ import annotations

import numpy as np

NORM_FLOOR = 1e-12


def effective_kernel(conv) -> np.ndarray:
    """gain * direction / ||direction|| per output channel under weight norm."""
    direction = np.asarray(conv.direction, dtype=np.float64)
    if not conv.weight_norm_enabled:
        return direction
    norms = np.sqrt((direction.reshape(direction.shape[0], -1) ** 2).sum(axis=1))
    scale = np.asarray(conv.gain) / np.maximum(norms, NORM_FLOOR)
    return direction * scale[:, None, None, None]


def conv_same(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with 'same' zero padding, by shifted slices."""
    out_c, _, kh, kw = kernel.shape
    c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw))
    padded[:, ph : ph + h, pw : pw + w] = x
    out = np.zeros((out_c, h, w))
    for a in range(kh):
        for b in range(kw):
            out += np.tensordot(kernel[:, :, a, b], padded[:, a : a + h, b : b + w], axes=1)
    return out + np.asarray(bias)[:, None, None]


def group_norm(x: np.ndarray, gn) -> np.ndarray:
    c = x.shape[0]
    groups = x.reshape(gn.num_groups, -1)
    centred = groups - groups.mean(axis=1, keepdims=True)
    var = (centred**2).mean(axis=1, keepdims=True)
    xhat = (centred / np.sqrt(var + gn.epsilon)).reshape(x.shape)
    return xhat * np.asarray(gn.scale).reshape(c, 1, 1) + np.asarray(gn.shift).reshape(c, 1, 1)


def block_map(p, x: np.ndarray):
    """h -> F(h; x) for one double-residual block's parameter record."""
    k1, k2 = effective_kernel(p.w1), effective_kernel(p.w2)
    ks = None if p.shortcut is None else effective_kernel(p.shortcut)

    def apply(h: np.ndarray) -> np.ndarray:
        r = h + x
        a1 = np.maximum(group_norm(conv_same(r, k1, p.w1.bias), p.gn1), 0.0)
        out = group_norm(conv_same(a1, k2, p.w2.bias), p.gn2)
        if p.residual_enabled:
            out = out + (r if ks is None else conv_same(r, ks, p.shortcut.bias))
        return out

    return apply


def predictor(p, h: np.ndarray) -> np.ndarray:
    """2x2 stride-2 transposed conv, ReLU, 1x1 projection: (C,H,W) -> logits."""
    kd = effective_kernel(p.deconv)
    c, hh, ww = h.shape
    up = np.zeros((kd.shape[0], 2 * hh, 2 * ww))
    for a in range(2):
        for b in range(2):
            up[:, a::2, b::2] = np.tensordot(kd[:, :, a, b], h, axes=1)
    up += np.asarray(p.deconv.bias)[:, None, None]
    return conv_same(np.maximum(up, 0.0), effective_kernel(p.proj), p.proj.bias)


def finite_head_logits(params, strategy: str, depth: int, x: np.ndarray) -> np.ndarray:
    """Logits of an explicit stack or a weight-shared unroll, from h0 = 0."""
    if strategy == "explicit-independent":
        maps = [block_map(stage, x) for stage in params.stages]
    elif strategy == "unrolled-shared":
        maps = [block_map(params.stages[0], x)] * depth
    else:
        raise ValueError(f"no finite reference for strategy {strategy!r}")
    h = x.copy() if not maps else np.zeros_like(x)
    for apply in maps:
        h = apply(h)
    return predictor(params.predictor, h)


def bce(logits: np.ndarray, target: np.ndarray) -> float:
    """Mean binary cross-entropy with logits: log(1 + e^z) - t z."""
    return float(np.mean(np.logaddexp(0.0, logits) - target * logits))


def iou(pred: np.ndarray, truth: np.ndarray) -> float:
    """Intersection over union of two boolean masks; 1 when both are empty."""
    union = np.count_nonzero(pred | truth)
    return 1.0 if union == 0 else np.count_nonzero(pred & truth) / union


def mean_iou(logits: list[np.ndarray], masks: list[np.ndarray]) -> float:
    return float(np.mean([iou(z > 0.0, m > 0.5) for z, m in zip(logits, masks)]))


def constant_predictor_iou(masks: list[np.ndarray]) -> float:
    """Best mean IoU of predicting every pixel foreground, or every pixel background."""
    truth = [m > 0.5 for m in masks]
    all_fg = np.mean([iou(np.ones_like(t), t) for t in truth])
    all_bg = np.mean([iou(np.zeros_like(t), t) for t in truth])
    return float(max(all_fg, all_bg))


def dense_jacobian(apply, h: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """d apply / d h at h, one central difference per column."""
    flat = h.reshape(-1)
    n = flat.size
    jac = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = eps
        up = apply((flat + step).reshape(h.shape)).reshape(-1)
        down = apply((flat - step).reshape(h.shape)).reshape(-1)
        jac[:, j] = (up - down) / (2.0 * eps)
    return jac
