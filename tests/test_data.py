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

from conftest import rand


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


def test_identity_encoder_exposes_pooled_mask():
    spec = DatasetSpec(
        seed=5, count=6, channels=3, noise_sigma=0.0, corrupt_patch=False,
        identity_encoder=True, blur_passes=0,
    )
    for s in generate(spec):
        pooled = s.mask[0].reshape(14, 2, 14, 2).mean(axis=(1, 3))
        assert np.array_equal(s.feature[0], pooled)
        assert np.array_equal(s.feature[0] >= 0.5, pooled >= 0.5)


def test_corruption_zeroes_one_5x5_patch():
    spec = DatasetSpec(seed=6, count=4, channels=3, noise_sigma=0.0, identity_encoder=True)
    clean = generate(DatasetSpec(seed=6, count=4, channels=3, noise_sigma=0.0,
                                 identity_encoder=True, corrupt_patch=False))
    for corrupted, reference in zip(generate(spec), clean):
        diff = np.any(corrupted.feature != reference.feature, axis=0)
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
    with pytest.raises(ValueError):
        DatasetSpec(seed=1, count=1, noise_sigma=-0.1)


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
