"""Dense float64 feature-map primitives and their vector-Jacobian products.

Feature maps are plain numpy arrays in channels-first layout (C, H, W),
with an optional leading batch axis: (N, C, H, W). A 3-D map is the N = 1
case of the same code. A convolution is stride-1 with an odd square kernel
and zero padding of k // 2, so its output keeps the input's size. It and
the 2x2 transposed convolution run as one GEMM over the N*H*W columns of
the batch, so a parameter gradient sums over the batch inside that GEMM; a
conv is prepared once (`ConvGemm`) for inputs of any shape, and its kernel
gradient is read from the im2col columns of its output cotangent, which
its input adjoint builds anyway. Group-norm statistics are per sample.
Every operation here is pure but `group_stats`, which normalizes the fresh
conv output it is given in place, and each has an exact hand-derived
adjoint, so block- and head-level backward passes compose without an
autodiff tape. A
VJP returns the adjoint of its input and, for an op with parameters, a
`Grads`: the ordered leaf-name -> array mapping of the record's
`leaf_items()`, summed over the batch.

No operation checks an operand but a conv's kernel size: each layer of
`ifr.blocks` checks its input once on entry, with `check_maps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_NORM_FLOOR = 1e-12
# group-norm group count of a default-initialized layer, at most
_MAX_GROUPS = 32
# added to each group's variance before the inverse square root
GROUP_NORM_EPSILON = 1e-5


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class NonFiniteError(ValueError):
    """An operand (or function evaluation) contains NaN or Inf."""


def as_tensor(values) -> np.ndarray:
    """Coerce to a contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def check_finite(x: np.ndarray, what: str = "input") -> None:
    # one sum is finite only if every entry is (inf - inf gives nan); a sum
    # that overflows on finite entries is cleared entry by entry
    with np.errstate(over="ignore", invalid="ignore"):
        total = x.sum()
    if not np.isfinite(total) and not np.isfinite(x).all():
        raise NonFiniteError(f"{what} contains non-finite values")


def check_maps(x: np.ndarray, what: str) -> None:
    """Raises unless x is a finite (C, H, W) map or (N, C, H, W) batch of maps."""
    if x.ndim not in (3, 4):
        raise ShapeError(
            f"{what} must be ([batch,] channels, height, width), got shape {x.shape}"
        )
    check_finite(x, what)


def as_batch(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) view of a map or batch; a 3-D map is N = 1."""
    return x.reshape((-1,) + x.shape[-3:])


def channel_rows(x: np.ndarray) -> np.ndarray:
    """(C, N*H*W) GEMM operand: one row per channel, one column per pixel of the batch."""
    return as_batch(x).transpose(1, 0, 2, 3).reshape(x.shape[-3], -1)


def _channel_sum(x: np.ndarray) -> np.ndarray:
    """Per-channel sum over the batch and both spatial axes."""
    return as_batch(x).sum(axis=(0, 2, 3))


# ---------------------------------------------------------------------------
# parameter records and their gradients


class Grads(dict):
    """Gradient of a parameter record: its `leaf_items()` names, in that
    order, mapped to arrays of the leaves' shapes."""

    @classmethod
    def zeros_like(cls, params) -> "Grads":
        return cls((name, np.zeros_like(arr)) for name, arr in params.leaf_items())

    def leaf_items(self, prefix: str = ""):
        for name, arr in self.items():
            yield prefix + name, arr

    def iadd(self, other: "Grads") -> None:
        """In-place sum with a gradient of the same record."""
        if other.keys() != self.keys():
            raise ShapeError(f"gradient leaves {list(other)} do not match {list(self)}")
        for name, arr in self.items():
            arr += other[name]


def nested_leaf_items(prefix: str, parts):
    """Leaves of (name prefix, record or gradient) parts, in order; a None part has none.

    A composite record and its gradient list their parts through the same
    function, so both yield the same leaf names in the same order.
    """
    for part_prefix, part in parts:
        if part is not None:
            yield from part.leaf_items(prefix + part_prefix)


@dataclass
class ConvParams:
    """Convolution kernel stored as weight-norm direction/gain plus bias.

    direction: (out_channels, in_channels, kh, kw)
    gain, bias: (out_channels,)
    When weight_norm_enabled, the effective kernel of output channel c is
    gain[c] * direction[c] / ||direction[c]||_2; otherwise direction is used
    as-is and gain is inert.
    """

    direction: np.ndarray
    gain: np.ndarray
    bias: np.ndarray
    weight_norm_enabled: bool = False

    def __post_init__(self):
        self.direction = as_tensor(self.direction)
        self.gain = as_tensor(self.gain)
        self.bias = as_tensor(self.bias)
        if self.direction.ndim != 4:
            raise ShapeError(f"conv direction must be 4-d, got shape {self.direction.shape}")
        out_c = self.direction.shape[0]
        if self.gain.shape != (out_c,) or self.bias.shape != (out_c,):
            raise ShapeError("gain and bias must have one entry per output channel")
        floor_direction_norms(self.direction)

    @property
    def out_channels(self) -> int:
        return self.direction.shape[0]

    @property
    def in_channels(self) -> int:
        return self.direction.shape[1]

    def leaf_items(self, prefix: str = ""):
        """Learnable leaves; gain participates only under weight norm."""
        yield prefix + "direction", self.direction
        if self.weight_norm_enabled:
            yield prefix + "gain", self.gain
        yield prefix + "bias", self.bias


@dataclass
class GroupNormParams:
    """Per-group normalization with a per-channel affine."""

    num_groups: int
    scale: np.ndarray
    shift: np.ndarray
    # a class attribute, not a field: no constructor sets it and no checkpoint
    # stores it; code that rebuilds group norm from a record (perfbench's
    # reference block) still reads it there
    epsilon = GROUP_NORM_EPSILON

    def __post_init__(self):
        self.scale = as_tensor(self.scale)
        self.shift = as_tensor(self.shift)
        channels = self.scale.shape[0]
        if self.shift.shape != (channels,):
            raise ShapeError("scale and shift must have matching channel counts")
        if self.num_groups < 1 or channels % self.num_groups != 0:
            raise ShapeError(
                f"{channels} channels not divisible into {self.num_groups} groups"
            )

    @property
    def channels(self) -> int:
        return self.scale.shape[0]

    def leaf_items(self, prefix: str = ""):
        yield prefix + "scale", self.scale
        yield prefix + "shift", self.shift


def default_group_count(channels: int) -> int:
    """Largest divisor of `channels` that is <= _MAX_GROUPS."""
    for g in range(min(_MAX_GROUPS, channels), 0, -1):
        if channels % g == 0:
            return g
    return 1


def floor_direction_norms(direction: np.ndarray) -> None:
    """Ensure no output channel of a direction tensor has (near-)zero norm.

    Zero-norm channels are nudged to a deterministic stencil of norm
    _NORM_FLOOR so the weight-norm quotient stays defined after any update.
    """
    flat = direction.reshape(direction.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1)
    for c in np.nonzero(norms < _NORM_FLOOR)[0]:
        flat[c] = 0.0
        flat[c, 0] = _NORM_FLOOR


def effective_kernel(p: ConvParams) -> np.ndarray:
    """Kernel actually applied by conv ops (weight-norm quotient when enabled)."""
    if not p.weight_norm_enabled:
        return p.direction
    flat = p.direction.reshape(p.out_channels, -1)
    norms = np.maximum(np.linalg.norm(flat, axis=1), _NORM_FLOOR)
    return (p.direction * (p.gain / norms)[:, None, None, None])


def _kernel_vjp(p: ConvParams, d_kernel: np.ndarray, d_bias: np.ndarray) -> Grads:
    """Chain a gradient w.r.t. the effective kernel onto direction/gain/bias."""
    if not p.weight_norm_enabled:
        return Grads(direction=d_kernel, bias=d_bias)
    flat_v = p.direction.reshape(p.out_channels, -1)
    flat_d = d_kernel.reshape(p.out_channels, -1)
    norms = np.maximum(np.linalg.norm(flat_v, axis=1), _NORM_FLOOR)
    inner = np.einsum("ck,ck->c", flat_d, flat_v)
    d_gain = inner / norms
    coeff = p.gain / norms
    d_dir_flat = coeff[:, None] * flat_d - (coeff * inner / norms**2)[:, None] * flat_v
    return Grads(direction=d_dir_flat.reshape(p.direction.shape), gain=d_gain, bias=d_bias)


# ---------------------------------------------------------------------------
# convolution


def _kernel_size(kernel: np.ndarray) -> int:
    """k of a k x k kernel; k must be odd for a zero padding of k // 2 to keep the size."""
    kh, kw = kernel.shape[-2:]
    if kh != kw or kh % 2 == 0:
        raise ShapeError(f"convolution kernel must be square with an odd size, got {kh}x{kw}")
    return kh


def _from_channel_rows(rows: np.ndarray, lead: tuple, h: int, w: int) -> np.ndarray:
    """Inverse of channel_rows: (C, N*h*w) GEMM output to a (..., C, h, w) map."""
    c = rows.shape[0]
    if rows.shape[1] == h * w:  # the rows of one map are that map already
        return rows.reshape(lead + (c, h, w))
    out = rows.reshape(c, -1, h, w).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(out).reshape(lead + (c, h, w))


class ConvGemm:
    """Cross-correlation with a raw kernel (out, in, k, k) and bias (out,) or None,
    both kept, not copied; no operand is checked but the kernel's shape. Each call
    reads N, H and W from its input, is one GEMM over its N*H*W columns and returns
    a new array.

    A k x k kernel pads into a zero-bordered buffer; from the second call on an
    input shape it keeps one for that shape (looked up by shape unless it was the last
    kept) and overwrites its interior. A 1x1 kernel's GEMM runs on the channel rows,
    with no pad and no window; a one-column kernel's GEMM is an outer product.
    """

    def __init__(self, kernel: np.ndarray, bias: np.ndarray | None):
        self.kernel, self.matrix = kernel, kernel.reshape(kernel.shape[0], -1)
        self.bias = None if bias is None else bias[:, None]
        self.product = np.multiply if self.matrix.shape[1] == 1 else np.matmul
        # input shape -> (interior, windows) of its kept pad, None while seen once
        self.k, self.pads, self.last = _kernel_size(kernel), {}, (None, None)

    def _pad(self, shape: tuple):
        """A zeroed buffer's interior, and its (in, k, k, N, H, W) im2col window view."""
        n, (c, h, w), k, p = math.prod(shape[:-3]), shape[-3:], self.k, self.k // 2
        buffer = np.zeros((n, c, h + 2 * p, w + 2 * p))
        sn, sc, sh, sw = buffer.strides
        # a window view straight on the buffer: as_strided costs more than a small GEMM
        windows = np.ndarray((c, k, k, n, h, w), np.float64, buffer, 0,
                             (sc, sh, sw, sn, sh, sw))
        return buffer[:, :, p : p + h, p : p + w], windows

    def columns(self, x: np.ndarray) -> np.ndarray:
        """(in*k*k, N*H*W) im2col GEMM operand of x; for a 1x1 kernel, x's channel rows."""
        if self.k == 1:
            return channel_rows(x)
        shape, pad = self.last
        if x.shape != shape:
            pad = self.pads.get(x.shape) or self._pad(x.shape)
            self.pads[x.shape] = pad if x.shape in self.pads else None
            self.last = (x.shape, pad) if self.pads[x.shape] else self.last
        interior, windows = pad
        interior[...] = as_batch(x)
        return windows.reshape(self.matrix.shape[1], -1)

    def gemm(self, columns: np.ndarray) -> np.ndarray:
        """(out, N*H*W) product of the kernel with im2col columns, plus the bias."""
        out = self.product(self.matrix, columns)
        if self.bias is not None:
            out += self.bias
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _from_channel_rows(self.gemm(self.columns(x)), x.shape[:-3], *x.shape[-2:])


def transposed_conv(kernel: np.ndarray) -> ConvGemm:
    """Input adjoint of a conv: itself a correlation, with (a copy of) the spatially
    flipped, channel-transposed kernel."""
    flipped = np.ascontiguousarray(kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return ConvGemm(flipped, None)


def conv2d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Cross-correlation with the effective kernel and a per-channel bias."""
    return ConvGemm(effective_kernel(p), p.bias)(x)


def conv2d_vjp(x: np.ndarray, p: ConvParams, cotangent: np.ndarray) -> tuple[np.ndarray, Grads]:
    """Input adjoint and parameter-leaf gradients of conv2d."""
    return conv2d_input_vjp(effective_kernel(p), cotangent), conv2d_param_grads(x, p, cotangent)


def conv2d_adjoint(conv_t: ConvGemm, cotangent: np.ndarray, p: ConvParams | None = None,
                   x_rows: np.ndarray | None = None) -> tuple[np.ndarray, Grads | None]:
    """(conv_t(cotangent), grads), unchecked, for a conv whose transposed GEMM is conv_t:
    given p and its input's channel rows, grads are p's kernel_grads from the same
    columns of the cotangent, else None. The columns go before dx is laid out as maps."""
    columns = conv_t.columns(cotangent)
    grads = None if p is None else kernel_grads(p, columns, x_rows, cotangent)
    rows = conv_t.gemm(columns)
    del columns
    return _from_channel_rows(rows, cotangent.shape[:-3], *cotangent.shape[-2:]), grads


def conv2d_param_grads(x: np.ndarray, p: ConvParams, cotangent: np.ndarray) -> Grads:
    """Parameter-leaf gradients of conv2d (summed over a batch), unchecked."""
    columns = transposed_conv(p.direction).columns(cotangent)
    return kernel_grads(p, columns, channel_rows(x), cotangent)


def kernel_grads(p: ConvParams, columns: np.ndarray, x_rows: np.ndarray,
                 cotangent: np.ndarray) -> Grads:
    """Parameter-leaf gradients of a conv from the im2col columns of its cotangent and
    the channel rows of its input: their GEMM G[(o, a, b), i] = sum over pixels y of
    d[o, y + (a, b) - k//2] x[i, y] holds dK[o, i, a, b] at G[(o, k-1-a, k-1-b), i]."""
    out_c, in_c, k, _ = p.direction.shape
    taps = (columns @ x_rows.T).reshape(out_c, k, k, in_c)
    d_kernel = np.ascontiguousarray(taps[:, ::-1, ::-1].transpose(0, 3, 1, 2))
    return _kernel_vjp(p, d_kernel, _channel_sum(cotangent))


def conv2d_input_vjp(kernel: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """Adjoint of conv2d w.r.t. the input only (no parameter gradients)."""
    return transposed_conv(kernel)(cotangent)


def _deconv_taps(kernel: np.ndarray) -> np.ndarray:
    """(out_c*2*2, in_c) GEMM operand of a 2x2 kernel, one row per (o, a, b) tap."""
    return kernel.transpose(0, 2, 3, 1).reshape(-1, kernel.shape[1])


def deconv2x2(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Transposed convolution, 2x2 kernel, stride 2: doubles spatial extent.

    With stride equal to the kernel size the output blocks do not overlap:
    out[o, 2i+a, 2j+b] = sum_c k[o, c, a, b] * x[c, i, j] + bias[o], one
    GEMM of the (o, a, b) taps against the batch's pixels, each (a, b) tap
    then written into its strided slice of the output.
    """
    kernel = effective_kernel(p)
    (n, _, h, w), out_c = as_batch(x).shape, kernel.shape[0]
    rows = (_deconv_taps(kernel) @ channel_rows(x)).reshape(out_c, 2, 2, n, h, w)
    rows += p.bias[:, None, None, None, None, None]
    out = np.empty((n, out_c, h, 2, w, 2))  # out[n, o, i, a, j, b] is out[n, o, 2i+a, 2j+b]
    for a, b in np.ndindex(2, 2):
        out[:, :, :, a, :, b] = rows[:, a, b].transpose(1, 0, 2, 3)
    return out.reshape(x.shape[:-3] + (out_c, 2 * h, 2 * w))


def deconv2x2_vjp(x: np.ndarray, p: ConvParams, cotangent: np.ndarray):
    kernel = effective_kernel(p)
    out_c, in_c = kernel.shape[:2]
    n = as_batch(x).shape[0]
    h, w = x.shape[-2:]
    # (n, o, i, a, j, b) -> rows (o, a, b), columns (n, i, j)
    cot_taps = (
        cotangent.reshape(n, out_c, h, 2, w, 2).transpose(1, 3, 5, 0, 2, 4).reshape(4 * out_c, -1)
    )
    d_taps = cot_taps @ channel_rows(x).T
    d_kernel = np.ascontiguousarray(d_taps.reshape(out_c, 2, 2, in_c).transpose(0, 3, 1, 2))
    dx = _from_channel_rows(_deconv_taps(kernel).T @ cot_taps, x.shape[:-3], h, w)
    return dx, _kernel_vjp(p, d_kernel, _channel_sum(cotangent))


# ---------------------------------------------------------------------------
# group normalization


def group_stats(x: np.ndarray, p: GroupNormParams):
    """(xhat, inv_std) per sample and group, inv_std shaped (..., groups); xhat is x,
    normalized in place, so x must be a C-contiguous array that is not read again."""
    grouped = x.reshape(x.shape[:-3] + (p.num_groups, -1))
    k = grouped.shape[-1]
    # np.add.reduce / k is what ndarray.mean computes, without its Python wrapper
    grouped -= np.add.reduce(grouped, axis=-1, keepdims=True) / k
    var = np.add.reduce(grouped * grouped, axis=-1) / k
    inv_std = 1.0 / np.sqrt(var + GROUP_NORM_EPSILON)
    grouped *= inv_std[..., None]
    return x, inv_std


def group_norm_input_vjp(
    xhat: np.ndarray, inv_std: np.ndarray, p: GroupNormParams, cotangent: np.ndarray
) -> np.ndarray:
    """Adjoint w.r.t. the input given the saved normalization statistics."""
    grouped = xhat.shape[:-3] + (p.num_groups, -1)
    d_xhat = (cotangent * p.scale[:, None, None]).reshape(grouped)
    xhat_g = xhat.reshape(grouped)
    k = xhat_g.shape[-1]
    mean_d = np.add.reduce(d_xhat, axis=-1, keepdims=True) / k
    mean_dx = np.add.reduce(d_xhat * xhat_g, axis=-1, keepdims=True) / k
    d_xhat -= mean_d  # inv_std * (d_xhat - mean_d - xhat_g * mean_dx), in place
    d_xhat -= xhat_g * mean_dx
    d_xhat *= inv_std[..., None]
    return d_xhat.reshape(xhat.shape)


def group_norm_param_grads(xhat: np.ndarray, cotangent: np.ndarray) -> Grads:
    """Scale and shift gradients given the normalized input xhat."""
    return Grads(scale=_channel_sum(cotangent * xhat), shift=_channel_sum(cotangent))


# ---------------------------------------------------------------------------
# numerical gradient oracle


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    x = as_tensor(x)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(f(x))
        flat[i] = orig - eps
        down = float(f(x))
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NonFiniteError(f"function evaluation non-finite at coordinate {i}")
        gflat[i] = (up - down) / (2.0 * eps)
    return grad
