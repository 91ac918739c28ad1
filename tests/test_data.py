"""Dataset synthesis determinism/calibration and the container format."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifr.data import (
    CHUNK,
    ENCODER_SEED,
    FEATURE_SIZE,
    MASK_SIZE,
    PATCH_SIZE,
    BadMagicError,
    ContainerError,
    DatasetSpec,
    EntryMismatchError,
    TruncatedPayloadError,
    UnknownVersionError,
    generate,
    load_container,
    samples_to_tensors,
    save_container,
    tensors_to_samples,
)
from ifr.rng import CounterRng

from conftest import rand


# ---------------------------------------------------------------------------
# per-sample reference: the generator as it was before it drew in chunks

_YY, _XX = np.meshgrid(np.arange(MASK_SIZE), np.arange(MASK_SIZE), indexing="ij")


def _ref_ellipse_mask(rng):
    cy = 7.0 + 14.0 * rng.uniform()
    cx = 7.0 + 14.0 * rng.uniform()
    ry = 4.0 + 6.0 * rng.uniform()
    rx = 4.0 + 6.0 * rng.uniform()
    theta = 2.0 * np.pi * rng.uniform()
    dy, dx = _YY - cy, _XX - cx
    u = dy * np.cos(theta) + dx * np.sin(theta)
    v = -dy * np.sin(theta) + dx * np.cos(theta)
    return ((u / ry) ** 2 + (v / rx) ** 2 <= 1.0).astype(np.float64)


def _ref_blur3(m):
    padded = np.zeros((m.shape[0] + 2, m.shape[1] + 2))
    padded[1:-1, 1:-1] = m
    padded[1:-1, 1:-1] = 0.25 * padded[:-2, 1:-1] + 0.5 * padded[1:-1, 1:-1] + 0.25 * padded[2:, 1:-1]
    return 0.25 * padded[1:-1, :-2] + 0.5 * padded[1:-1, 1:-1] + 0.25 * padded[1:-1, 2:]


def _reference_generate(spec, corrupt_patch=True):
    enc_rng = CounterRng(ENCODER_SEED)
    weights = 0.5 + enc_rng.uniform((spec.channels,)) * 1.5
    weights *= np.where(enc_rng.uniform((spec.channels,)) < 0.5, -1.0, 1.0)
    offsets = enc_rng.normal((spec.channels,)) * 0.3
    root = CounterRng(spec.seed)
    out = []
    for i in range(spec.count):
        rng = root.split(i)
        mask = np.maximum(_ref_ellipse_mask(rng), _ref_ellipse_mask(rng))
        pooled = mask.reshape(FEATURE_SIZE, 2, FEATURE_SIZE, 2).mean(axis=(1, 3))
        for _ in range(spec.blur_passes):
            pooled = _ref_blur3(pooled)
        feature = weights[:, None, None] * pooled[None] + offsets[:, None, None]
        if spec.noise_sigma > 0:
            feature = feature + spec.noise_sigma * rng.normal(feature.shape)
        if corrupt_patch:
            top = int(rng.integers(0, FEATURE_SIZE - PATCH_SIZE + 1))
            left = int(rng.integers(0, FEATURE_SIZE - PATCH_SIZE + 1))
            feature[:, top : top + PATCH_SIZE, left : left + PATCH_SIZE] = 0.0
        out.append((feature, mask[None]))
    return out


@pytest.mark.parametrize(
    "options",
    [
        dict(seed=1, channels=8),  # the desk preset
        dict(seed=2, channels=8, noise_sigma=0.15, blur_passes=4),  # the README data options
        dict(seed=3, channels=5, noise_sigma=0.0),
    ],
    ids=["desk", "readme", "noise-free"],
)
@pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2])
def test_chunked_generation_matches_the_per_sample_reference(options, count):
    spec = DatasetSpec(count=count, **options)
    samples = generate(spec)
    reference = _reference_generate(spec)
    assert len(samples) == len(reference) == count
    for s, (feature, mask) in zip(samples, reference):
        assert s.feature.dtype == feature.dtype and s.feature.shape == feature.shape
        assert s.feature.tobytes() == feature.tobytes()
        assert s.mask.dtype == mask.dtype and s.mask.shape == mask.shape
        assert s.mask.tobytes() == mask.tobytes()


def test_a_dataset_is_the_prefix_of_a_larger_one():
    small = generate(DatasetSpec(seed=4, count=CHUNK + 3, channels=3))
    large = generate(DatasetSpec(seed=4, count=3 * CHUNK, channels=3))
    for s1, s2 in zip(small, large):
        assert s1.feature.tobytes() == s2.feature.tobytes()
        assert s1.mask.tobytes() == s2.mask.tobytes()


def test_generation_is_bit_deterministic():
    spec = DatasetSpec(seed=11, count=8)
    a = generate(spec)
    b = generate(spec)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.feature, s2.feature)
        assert np.array_equal(s1.mask, s2.mask)


def test_sample_shapes_and_binary_masks():
    for s in generate(DatasetSpec(seed=3, count=20, channels=5)):
        assert s.feature.shape == (5, 14, 14)
        assert s.mask.shape == (1, 28, 28)
        assert np.all((s.mask == 0.0) | (s.mask == 1.0))
        assert np.all(np.isfinite(s.feature))


def test_corruption_zeroes_one_5x5_patch():
    spec = DatasetSpec(seed=6, count=4, channels=3, noise_sigma=0.0)
    clean = [feature for feature, _ in _reference_generate(spec, corrupt_patch=False)]
    for corrupted, reference in zip(generate(spec), clean):
        diff = np.any(corrupted.feature != reference, axis=0)
        ys, xs = np.nonzero(np.any(corrupted.feature == 0.0, axis=0) & diff)
        assert np.all(corrupted.feature[:, diff] == 0.0)
        if ys.size:  # patch may overlap regions that were already zero
            assert ys.max() - ys.min() <= 4 and xs.max() - xs.min() <= 4


def test_mask_foreground_fraction_calibration():
    # generator calibration bound, measured once and frozen
    samples = generate(DatasetSpec(seed=1, count=1000, channels=1))
    fraction = np.mean([s.mask.mean() for s in samples])
    assert 0.1 <= fraction <= 0.6, fraction


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(seed=1, count=0)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            DatasetSpec(seed=1, count=1, noise_sigma=sigma)


def test_sample_tensor_round_trip():
    samples = generate(DatasetSpec(seed=9, count=5))
    back = tensors_to_samples(samples_to_tensors(samples))
    for s1, s2 in zip(samples, back):
        assert np.array_equal(s1.feature, s2.feature)
        assert np.array_equal(s1.mask, s2.mask)


# ---------------------------------------------------------------------------
# container


def test_container_round_trip_bit_exact(tmp_path):
    path = tmp_path / "t.ifr"
    tensors = {
        "a": rand(1, (3, 4)),
        "nested/name": rand(2, (2, 2, 2)),
        "scalarish": np.array([3.5]),
    }
    save_container(path, tensors)
    loaded = load_container(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
        assert loaded[name].dtype == np.float64


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_container_round_trip_random_shapes(shapes, seed):
    tensors = {
        f"t{i}": rand(seed + i, tuple(shape)) if shape else np.array(float(seed + i))
        for i, shape in enumerate(shapes)
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.ifr"
        save_container(path, tensors)
        loaded = load_container(path)
    for name, arr in tensors.items():
        assert np.array_equal(loaded[name], np.asarray(arr))


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ifr"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(BadMagicError):
        load_container(path)


def test_container_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.ifr"
    save_container(path, {"a": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(UnknownVersionError):
        load_container(path)


def test_container_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ifr"
    save_container(path, {"a": np.ones(8)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(TruncatedPayloadError):
        load_container(path)


def _rewrite_header(path, edit):
    """Replace the container's header with edit(entries), keeping its payload."""
    raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[5:9])[0]
    entries = edit(json.loads(raw[9 : 9 + header_len].decode()))
    new_header = json.dumps(entries, separators=(",", ":")).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(new_header)) + new_header + raw[9 + header_len :])


def test_container_rejects_shape_length_mismatch(tmp_path):
    path = tmp_path / "mismatch.ifr"
    save_container(path, {"a": np.ones((2, 3))})

    def edit(entries):
        entries[0]["shape"] = [2, 4]  # declared shape no longer matches length
        return entries

    _rewrite_header(path, edit)
    with pytest.raises(EntryMismatchError):
        load_container(path)


@pytest.mark.parametrize(
    "shape,length",
    [
        ([-1], -8),  # a length that matches its negative shape
        ([-2, -1], 16),  # negative dimensions whose product is positive
        ([2], -8),  # a negative length alone
    ],
)
def test_container_rejects_negative_shapes_and_lengths(tmp_path, shape, length):
    path = tmp_path / "neg.ifr"
    save_container(path, {"a": np.ones(2), "b": np.ones(3)})

    def edit(entries):
        entries[1].update(shape=shape, length=length)
        return entries

    _rewrite_header(path, edit)
    with pytest.raises(EntryMismatchError):
        load_container(path)


@pytest.mark.parametrize(
    "fields,error",
    [
        (dict(shape=[2.5]), ContainerError),
        (dict(shape=["2"], offset="0"), ContainerError),
        (dict(shape=[True, 2]), ContainerError),
        (dict(length=16.0), ContainerError),
        (dict(shape=[2**32, 2**32], length=0), EntryMismatchError),  # 2^64 elements
        (dict(shape=[2**62, 0], length=0), EntryMismatchError),  # no element, yet 2^65 bytes
    ],
    ids=["float-dim", "string-dim-and-offset", "bool-dim", "float-length", "int64-overflow",
         "huge-empty"],
)
def test_container_header_integers_are_json_integers_that_fit_int64(tmp_path, fields, error):
    path = tmp_path / "ints.ifr"
    save_container(path, {"a": np.ones(2), "b": np.ones(2)})

    def edit(entries):
        entries[1].update(fields)
        return entries

    _rewrite_header(path, edit)
    with pytest.raises(error):
        load_container(path)


def test_container_rejects_a_repeated_entry_name(tmp_path):
    path = tmp_path / "dup.ifr"
    save_container(path, {"a": np.ones(2), "b": np.ones(2)})

    def edit(entries):
        entries[1]["name"] = "a"
        return entries

    _rewrite_header(path, edit)
    with pytest.raises(EntryMismatchError):
        load_container(path)


def test_container_rejects_duplicate_and_empty_names(tmp_path):
    with pytest.raises(ValueError):
        save_container(tmp_path / "x.ifr", {"": np.ones(1)})


def test_container_malformed_header(tmp_path):
    path = tmp_path / "garbage.ifr"
    header = b"not json"
    path.write_bytes(b"IFR1" + bytes([1]) + struct.pack("<I", len(header)) + header)
    with pytest.raises(ContainerError):
        load_container(path)


@pytest.mark.parametrize(
    "header", [b"5", b'[{"name": ["a"], "shape": [1], "offset": 0, "length": 8}]']
)
def test_container_rejects_a_header_that_is_not_a_list_of_named_entries(tmp_path, header):
    path = tmp_path / "odd.ifr"
    path.write_bytes(b"IFR1" + bytes([1]) + struct.pack("<I", len(header)) + header + bytes(8))
    with pytest.raises(ContainerError):
        load_container(path)
