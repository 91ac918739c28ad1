"""Synthetic mask-refinement samples and the on-disk tensor container.

Each sample pairs a C x 14 x 14 feature map with a binary 1 x 28 x 28 mask.
The feature is built so that recovering the full mask needs context beyond
any local neighborhood: the mask, the union of two random ellipses, is
rendered at 28 x 28, average-pooled to 14 x 14, blurred by repeated 3x3
smoothing, mixed through a fixed random per-channel linear encoder,
corrupted with Gaussian noise, and finally a contiguous 5 x 5 patch is
zeroed across all channels. Undoing the blur and filling the corrupted
patch both need context integrated over distance, so heads with a larger
effective receptive field (deeper stacks, equilibrium refinement) recover
strictly more of the mask than shallow ones.

Container format (used for datasets and checkpoints):
    magic "IFR1" | version byte 0x01 | uint32-LE header length |
    UTF-8 JSON header [{name, shape, offset, length}, ...] |
    concatenated little-endian float64 payloads.
Offset (into the payload region) and length (of one entry) count bytes, and
length = 8 * prod(shape); shape entries, offset and length are JSON integers.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import CounterRng

MAGIC = b"IFR1"
VERSION = 1

MASK_SIZE = 28
FEATURE_SIZE = 14
PATCH_SIZE = 5

# seed of the fixed random per-channel encoder, shared by every dataset
ENCODER_SEED = 7


class ContainerError(RuntimeError):
    """A file is not a well-formed IFR container."""


class BadMagicError(ContainerError):
    """The file does not start with the IFR1 magic."""


class UnknownVersionError(ContainerError):
    """The container version byte is not one this module reads."""


class TruncatedPayloadError(ContainerError):
    """The file ends before its header or an entry's payload does."""


class EntryMismatchError(ContainerError):
    """Declared shape/length/offset of an entry is inconsistent."""


@dataclass
class Sample:
    feature: np.ndarray  # (C, 14, 14)
    mask: np.ndarray  # (1, 28, 28), entries in {0, 1}


@dataclass
class DatasetSpec:
    seed: int
    count: int
    channels: int = 8
    noise_sigma: float = 0.05
    blur_passes: int = 2

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.blur_passes < 0:
            raise ValueError("blur_passes must be >= 0")


# ---------------------------------------------------------------------------
# synthesis
#
# Sample i draws from the stream CounterRng(seed).split(i): 10 uniforms
# (cy, cx, ry, rx, theta of each ellipse), then C * 14 * 14 normals when
# noise_sigma > 0, then the top and left of the patch that is zeroed.
# `generate` draws CHUNK samples at a time through one batch cursor,
# CounterRng(seed).split(indices), and renders them as arrays; each
# sample still depends only on (seed, index). Chunks keep the temporaries
# small: 320 + 1,536 desk-preset samples peaked at 69 MB resident in chunks
# of 64 and at 184 MB drawn all at once, which was also slower.

CHUNK = 64

_YY, _XX = np.meshgrid(np.arange(MASK_SIZE), np.arange(MASK_SIZE), indexing="ij")
_COORDS = np.arange(FEATURE_SIZE)


def _two_blob_masks(u: np.ndarray) -> np.ndarray:
    """(k, 28, 28) unions of two ellipses from (k, 10) uniforms."""
    u = u.reshape(-1, 2, 5, 1, 1)
    cy, cx = 7.0 + 14.0 * u[:, :, 0], 7.0 + 14.0 * u[:, :, 1]
    ry, rx = 4.0 + 6.0 * u[:, :, 2], 4.0 + 6.0 * u[:, :, 3]
    theta = 2.0 * np.pi * u[:, :, 4]
    dy, dx = _YY - cy, _XX - cx
    cos, sin = np.cos(theta), np.sin(theta)
    a = dy * cos + dx * sin
    b = -dy * sin + dx * cos
    inside = ((a / ry) ** 2 + (b / rx) ** 2 <= 1.0).astype(np.float64)
    return inside.max(axis=1)


def _avg_pool2(m: np.ndarray) -> np.ndarray:
    k, h, w = m.shape
    return m.reshape(k, h // 2, 2, w // 2, 2).mean(axis=(2, 4))


_BLUR_1D = np.array([0.25, 0.5, 0.25])


def _blur3(m: np.ndarray) -> np.ndarray:
    """Separable [1 2 1]/4 smoothing with zero padding of each (k, h, w) map."""
    padded = np.zeros((m.shape[0], m.shape[1] + 2, m.shape[2] + 2))
    padded[:, 1:-1, 1:-1] = m
    rows = (
        _BLUR_1D[0] * padded[:, :-2, 1:-1]
        + _BLUR_1D[1] * padded[:, 1:-1, 1:-1]
        + _BLUR_1D[2] * padded[:, 2:, 1:-1]
    )
    padded[:, 1:-1, 1:-1] = rows
    return (
        _BLUR_1D[0] * padded[:, 1:-1, :-2]
        + _BLUR_1D[1] * padded[:, 1:-1, 1:-1]
        + _BLUR_1D[2] * padded[:, 1:-1, 2:]
    )


def _encoder(spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (weights, offsets) of the fixed random linear encoder."""
    enc_rng = CounterRng(ENCODER_SEED)
    weights = 0.5 + enc_rng.uniform((spec.channels,)) * 1.5
    weights *= np.where(enc_rng.uniform((spec.channels,)) < 0.5, -1.0, 1.0)
    offsets = enc_rng.normal((spec.channels,)) * 0.3
    return weights, offsets


def _chunk(spec: DatasetSpec, weights, offsets, indices: np.ndarray):
    """(features (k, C, 14, 14), masks (k, 1, 28, 28)) of the samples at `indices`."""
    rng = CounterRng(spec.seed).split(indices)
    masks = _two_blob_masks(rng.uniform((10,)))
    pooled = _avg_pool2(masks)
    for _ in range(spec.blur_passes):
        pooled = _blur3(pooled)
    features = weights[:, None, None] * pooled[:, None] + offsets[:, None, None]
    if spec.noise_sigma > 0:
        features = features + spec.noise_sigma * rng.normal(features.shape[1:])
    top, left = rng.integers(0, FEATURE_SIZE - PATCH_SIZE + 1, (2,)).T
    in_rows = (_COORDS >= top[:, None]) & (_COORDS < top[:, None] + PATCH_SIZE)
    in_cols = (_COORDS >= left[:, None]) & (_COORDS < left[:, None] + PATCH_SIZE)
    patch = in_rows[:, None, :, None] & in_cols[:, None, None, :]
    np.copyto(features, 0.0, where=patch)
    return features, masks[:, None]


def generate(spec: DatasetSpec) -> list[Sample]:
    """Deterministically synthesize `spec.count` (feature, mask) pairs."""
    weights, offsets = _encoder(spec)
    samples: list[Sample] = []
    for start in range(0, spec.count, CHUNK):
        indices = np.arange(start, min(start + CHUNK, spec.count))
        features, masks = _chunk(spec, weights, offsets, indices)
        samples.extend(Sample(feature=f, mask=m) for f, m in zip(features, masks))
    return samples


def samples_to_tensors(samples: list[Sample]) -> dict[str, np.ndarray]:
    return {
        "features": np.stack([s.feature for s in samples]),
        "masks": np.stack([s.mask for s in samples]),
    }


def tensors_to_samples(tensors: dict[str, np.ndarray]) -> list[Sample]:
    missing = [name for name in ("features", "masks") if name not in tensors]
    if missing:
        raise EntryMismatchError(f"dataset container missing entries {missing}")
    feats, masks = tensors["features"], tensors["masks"]
    if feats.ndim == 0 or masks.ndim == 0:
        raise EntryMismatchError("dataset features and masks need a leading sample axis")
    if feats.shape[0] != masks.shape[0]:
        raise EntryMismatchError("features and masks disagree on sample count")
    return [Sample(feature=f.copy(), mask=m.copy()) for f, m in zip(feats, masks)]


# ---------------------------------------------------------------------------
# container I/O


def save_container(path, named_tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors; round-trips bit-exactly."""
    entries = []
    payloads = []
    offset = 0
    seen = set()
    for name, tensor in named_tensors.items():
        if not name:
            raise ValueError("tensor names must be non-empty")
        if name in seen:
            raise ValueError(f"duplicate tensor name {name!r}")
        seen.add(name)
        arr = np.asarray(tensor, dtype="<f8")
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        blob = arr.tobytes()
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "length": len(blob)}
        )
        payloads.append(blob)
        offset += len(blob)
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_container(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 9 or raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic (not an IFR container)")
    if raw[4] != VERSION:
        raise UnknownVersionError(f"{path}: unknown container version {raw[4]}")
    (header_len,) = struct.unpack("<I", raw[5:9])
    if len(raw) < 9 + header_len:
        raise TruncatedPayloadError(f"{path}: header declares {header_len} bytes, file ends early")
    try:
        entries = json.loads(raw[9 : 9 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: malformed header ({exc})") from exc
    if not isinstance(entries, list):
        raise ContainerError(f"{path}: malformed header (not a list of entries)")
    payload = raw[9 + header_len :]
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        try:
            name, shape = entry["name"], tuple(entry["shape"])
            offset, length = entry["offset"], entry["length"]
        except (KeyError, TypeError) as exc:
            raise ContainerError(f"{path}: malformed entry {entry!r}") from exc
        # JSON integers only: bool is an int subclass, and int() would take 2.5 or "2"
        if not isinstance(name, str) or any(type(v) is not int for v in (*shape, offset, length)):
            raise ContainerError(f"{path}: malformed entry {entry!r}")
        if name in out:
            raise EntryMismatchError(f"{path}: entry {name!r} appears more than once")
        # numpy sizes an array by its nonzero dimensions, in int64 bytes
        if min(shape, default=0) < 0 or 8 * math.prod(max(d, 1) for d in shape) >= 1 << 63:
            raise EntryMismatchError(f"{path}: entry {name!r} has a negative or huge shape {shape}")
        expected = 8 * math.prod(shape)
        if length != expected:
            raise EntryMismatchError(
                f"{path}: entry {name!r} declares {length} bytes for shape {shape} "
                f"(expected {expected})"
            )
        if offset < 0 or offset + length > len(payload):
            raise TruncatedPayloadError(
                f"{path}: entry {name!r} extends past end of payload"
            )
        out[name] = (
            np.frombuffer(payload, dtype="<f8", count=length // 8, offset=offset)
            .reshape(shape)
            .copy()
        )
    return out
