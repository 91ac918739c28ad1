"""Counter-based deterministic random number generation.

Every random draw in this package (dataset synthesis, parameter
initialization, solver probes) comes from a SplitMix64 stream so that a
(seed, counter) pair fully determines every value, independent of platform
and of how many draws other components have made.

`CounterRng` is the one front end. `split` of a 1-D tag array gives one
cursor over that batch of streams: a draw of shape s is (len(tags),) + s,
row i byte-identical to what `split(tags[i])` draws.

Constants are the standard SplitMix64 ones (Steele, Lea & Flood 2014):
increment 0x9E3779B97F4A7C15, mix multipliers 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB.
"""

from __future__ import annotations

import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SPLIT_SALT = np.uint64(0x5851F42D4C957F2D)
_MASK64 = 0xFFFFFFFFFFFFFFFF

_INV_2_53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over uint64 arrays (wraps modulo 2^64)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1), float64, one per raw output."""
    return (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53


class CounterRng:
    """A stateful cursor over one SplitMix64 stream, or over a batch of them.

    The cursor only ever moves forward; `split` derives an independent
    stream whose key mixes the parent key with a tag, so substreams never
    collide regardless of draw order. Raw outputs and their transforms run
    along the last axis, so one code path serves one stream and a batch.
    """

    def __init__(self, seed: int):
        self._keys = np.asarray(int(seed) & _MASK64, dtype=np.uint64)
        self._cursor = 0

    def split(self, tag) -> "CounterRng":
        """The substream of an int tag, or the batch of substreams of a 1-D tag array."""
        child = CounterRng(0)
        child._keys = _mix64(self._keys ^ _mix64(np.asarray(tag, dtype=np.uint64) ^ _SPLIT_SALT))
        return child

    def _raw(self, count: int) -> np.ndarray:
        """The next `count` uint64 outputs of each stream."""
        counters = np.arange(self._cursor + 1, self._cursor + count + 1, dtype=np.uint64)
        self._cursor += count
        with np.errstate(over="ignore"):
            return _mix64(self._keys[..., None] + counters * _GOLDEN)

    def _shaped(self, vals: np.ndarray, shape):
        """A batch's draws as (streams,) + shape; one stream's as shape, a scalar for ()."""
        if self._keys.ndim:
            return vals.reshape(self._keys.shape + tuple(np.atleast_1d(shape)))
        return vals.reshape(shape) if shape else vals[0].item()

    def uniform(self, shape=()):
        """Uniforms in [0, 1), float64."""
        return self._shaped(_to_uniform(self._raw(_size(shape))), shape)

    def normal(self, shape=()):
        """Standard normals by Box-Muller: radii from ceil(n / 2) outputs, angles from the next."""
        n = _size(shape)
        raw = self._raw(2 * ((n + 1) // 2))
        pairs = raw.shape[-1] // 2
        # u1 in (0, 1] so log() is finite
        r = np.sqrt(-2.0 * np.log(_to_uniform(raw[..., :pairs]) + _INV_2_53))
        theta = (2.0 * math.pi) * _to_uniform(raw[..., pairs:])
        vals = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        return self._shaped(vals[..., :n], shape)

    def integers(self, low: int, high: int, shape=()):
        """Integers in [low, high). Modulo reduction; span must be < 2^32."""
        span = int(high) - int(low)
        if span <= 0:
            raise ValueError(f"empty integer range [{low}, {high})")
        if span >= 1 << 32:
            raise ValueError("integer span too large for modulo draw")
        raw = self._raw(_size(shape))
        return self._shaped(low + (raw % np.uint64(span)).astype(np.int64), shape)


def _size(shape) -> int:
    return int(np.prod(shape, dtype=np.int64)) if shape else 1
