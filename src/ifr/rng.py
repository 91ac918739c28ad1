"""Counter-based deterministic random number generation.

Every random draw in this package (dataset synthesis, parameter
initialization, solver probes) comes from a SplitMix64 stream so that a
(seed, counter) pair fully determines every value, independent of platform
and of how many draws other components have made.

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


def raw_stream(key, start: int, count: int) -> np.ndarray:
    """uint64 outputs number start..start+count-1 of the stream keyed by `key`.

    `key` is an int seed or a uint64 array of stream keys (as `split_keys`
    returns); an array gives one row of `count` outputs per key.
    """
    keys = np.asarray(key & _MASK64 if isinstance(key, int) else key, dtype=np.uint64)
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(keys[..., None] + counters * _GOLDEN)


def split_keys(key: int, tags) -> np.ndarray:
    """Keys of the substreams `CounterRng(key).split(tag)` for each tag."""
    tags = np.asarray(tags, dtype=np.uint64)
    return _mix64(np.uint64(key & _MASK64) ^ _mix64(tags ^ _SPLIT_SALT))


# The transforms below map raw outputs to draws along the last axis, so one
# call serves a single stream (1-D) or a row per stream (2-D).


def to_uniform(raw: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1), float64, one per raw output."""
    return (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53


def to_normal(raw: np.ndarray, n: int) -> np.ndarray:
    """n standard normals via Box-Muller from 2 * ceil(n / 2) raw outputs."""
    pairs = raw.shape[-1] // 2
    # u1 in (0, 1] so log() is finite
    u1 = to_uniform(raw[..., :pairs]) + _INV_2_53
    u2 = to_uniform(raw[..., pairs:])
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]


def to_integers(raw: np.ndarray, low: int, high: int) -> np.ndarray:
    """Integers in [low, high) by modulo reduction; the span must be < 2^32."""
    span = int(high) - int(low)
    if span <= 0:
        raise ValueError(f"empty integer range [{low}, {high})")
    if span >= 1 << 32:
        raise ValueError("integer span too large for modulo draw")
    return low + (raw % np.uint64(span)).astype(np.int64)


def normal_raw_count(n: int) -> int:
    """Raw outputs `to_normal` consumes for n normals."""
    return 2 * ((n + 1) // 2)


class CounterRng:
    """A stateful cursor over one SplitMix64 stream.

    The cursor only ever moves forward; `split` derives an independent
    stream whose key mixes the parent key with a tag, so substreams never
    collide regardless of draw order.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._cursor = 0

    def split(self, tag: int) -> "CounterRng":
        return CounterRng(int(split_keys(self._seed, tag)))

    def _raw(self, count: int) -> np.ndarray:
        out = raw_stream(self._seed, self._cursor, count)
        self._cursor += count
        return out

    def uniform(self, shape=()) -> np.ndarray:
        """Uniforms in [0, 1), float64."""
        vals = to_uniform(self._raw(_size(shape)))
        return vals.reshape(shape) if shape else float(vals[0])

    def normal(self, shape=()) -> np.ndarray:
        """Standard normals via Box-Muller on stream pairs."""
        n = _size(shape)
        vals = to_normal(self._raw(normal_raw_count(n)), n)
        return vals.reshape(shape) if shape else float(vals[0])

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Integers in [low, high). Modulo reduction; span must be < 2^32."""
        vals = to_integers(self._raw(_size(shape)), low, high)
        return vals.reshape(shape) if shape else int(vals[0])


def _size(shape) -> int:
    return int(np.prod(shape, dtype=np.int64)) if shape else 1
