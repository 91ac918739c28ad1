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
Offsets are byte offsets into the payload region; length is the byte length
of one entry and must equal 8 * prod(shape).
"""

from __future__ import annotations

import json
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
    corrupt_patch: bool = True
    identity_encoder: bool = False
    blur_passes: int = 2

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.blur_passes < 0:
            raise ValueError("blur_passes must be >= 0")


# ---------------------------------------------------------------------------
# mask rendering

_YY, _XX = np.meshgrid(np.arange(MASK_SIZE), np.arange(MASK_SIZE), indexing="ij")


def _ellipse_mask(rng: CounterRng) -> np.ndarray:
    cy = 7.0 + 14.0 * rng.uniform()
    cx = 7.0 + 14.0 * rng.uniform()
    ry = 4.0 + 6.0 * rng.uniform()
    rx = 4.0 + 6.0 * rng.uniform()
    theta = 2.0 * np.pi * rng.uniform()
    dy, dx = _YY - cy, _XX - cx
    u = dy * np.cos(theta) + dx * np.sin(theta)
    v = -dy * np.sin(theta) + dx * np.cos(theta)
    return ((u / ry) ** 2 + (v / rx) ** 2 <= 1.0).astype(np.float64)


def _two_blob_mask(rng: CounterRng) -> np.ndarray:
    """Union of two random ellipses."""
    return np.maximum(_ellipse_mask(rng), _ellipse_mask(rng))


def _avg_pool2(m: np.ndarray) -> np.ndarray:
    h, w = m.shape
    return m.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


_BLUR_1D = np.array([0.25, 0.5, 0.25])


def _blur3(m: np.ndarray) -> np.ndarray:
    """Separable [1 2 1]/4 smoothing with zero padding."""
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2))
    padded[1:-1, 1:-1] = m
    rows = (
        _BLUR_1D[0] * padded[:-2, 1:-1]
        + _BLUR_1D[1] * padded[1:-1, 1:-1]
        + _BLUR_1D[2] * padded[2:, 1:-1]
    )
    padded[1:-1, 1:-1] = rows
    return (
        _BLUR_1D[0] * padded[1:-1, :-2]
        + _BLUR_1D[1] * padded[1:-1, 1:-1]
        + _BLUR_1D[2] * padded[1:-1, 2:]
    )


def generate(spec: DatasetSpec) -> list[Sample]:
    """Deterministically synthesize `spec.count` (feature, mask) pairs."""
    enc_rng = CounterRng(ENCODER_SEED)
    if spec.identity_encoder:
        weights = np.ones(spec.channels)
        offsets = np.zeros(spec.channels)
    else:
        weights = 0.5 + enc_rng.uniform((spec.channels,)) * 1.5
        weights *= np.where(enc_rng.uniform((spec.channels,)) < 0.5, -1.0, 1.0)
        offsets = enc_rng.normal((spec.channels,)) * 0.3

    root = CounterRng(spec.seed)
    samples: list[Sample] = []
    for i in range(spec.count):
        rng = root.split(i)
        mask = _two_blob_mask(rng)
        pooled = _avg_pool2(mask)
        for _ in range(spec.blur_passes):
            pooled = _blur3(pooled)
        feature = weights[:, None, None] * pooled[None] + offsets[:, None, None]
        if spec.noise_sigma > 0:
            feature = feature + spec.noise_sigma * rng.normal(feature.shape)
        if spec.corrupt_patch:
            top = int(rng.integers(0, FEATURE_SIZE - PATCH_SIZE + 1))
            left = int(rng.integers(0, FEATURE_SIZE - PATCH_SIZE + 1))
            feature[:, top : top + PATCH_SIZE, left : left + PATCH_SIZE] = 0.0
        samples.append(Sample(feature=feature, mask=mask[None].copy()))
    return samples


def samples_to_tensors(samples: list[Sample]) -> dict[str, np.ndarray]:
    return {
        "features": np.stack([s.feature for s in samples]),
        "masks": np.stack([s.mask for s in samples]),
    }


def tensors_to_samples(tensors: dict[str, np.ndarray]) -> list[Sample]:
    feats, masks = tensors["features"], tensors["masks"]
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
            name, shape = entry["name"], tuple(int(s) for s in entry["shape"])
            offset, length = int(entry["offset"]), int(entry["length"])
            if not isinstance(name, str):
                raise TypeError("entry name is not a string")
        except (KeyError, TypeError, ValueError) as exc:
            raise ContainerError(f"{path}: malformed entry {entry!r}") from exc
        if name in out:
            raise EntryMismatchError(f"{path}: entry {name!r} appears more than once")
        if min(shape, default=0) < 0:
            raise EntryMismatchError(f"{path}: entry {name!r} has negative shape {shape}")
        expected = 8 * int(np.prod(shape, dtype=np.int64)) if shape else 8
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
