import numpy as np
import pytest

from ifr.rng import (
    CounterRng,
    normal_raw_count,
    raw_stream,
    split_keys,
    to_integers,
    to_normal,
    to_uniform,
)


def test_streams_are_reproducible():
    a = CounterRng(123).normal((64,))
    b = CounterRng(123).normal((64,))
    assert np.array_equal(a, b)


def test_raw_stream_is_counter_addressable():
    whole = raw_stream(9, 0, 20)
    tail = raw_stream(9, 5, 15)
    assert np.array_equal(whole[5:], tail)


def test_split_streams_do_not_collide():
    root = CounterRng(5)
    a = root.split(0).uniform((100,))
    b = root.split(1).uniform((100,))
    assert not np.array_equal(a, b)
    # splitting is independent of parent cursor position
    root2 = CounterRng(5)
    root2.uniform((17,))
    assert np.array_equal(root2.split(0).uniform((100,)), a)


def test_uniform_range_and_normal_moments():
    u = CounterRng(2).uniform((50_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    z = CounterRng(3).normal((50_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_integers_cover_range():
    vals = CounterRng(4).integers(2, 7, (2_000,))
    assert set(np.unique(vals)) == {2, 3, 4, 5, 6}


@pytest.mark.parametrize(
    "raw_count,draw,transform",
    [
        (6, lambda rng: rng.uniform((6,)), to_uniform),
        (normal_raw_count(7), lambda rng: rng.normal((7,)), lambda raw: to_normal(raw, 7)),
        (normal_raw_count(8), lambda rng: rng.normal((2, 4)).ravel(), lambda raw: to_normal(raw, 8)),
        (5, lambda rng: rng.integers(3, 13, (5,)), lambda raw: to_integers(raw, 3, 13)),
    ],
    ids=["uniform", "normal-odd", "normal-even", "integers"],
)
def test_array_key_draws_match_split_streams(raw_count, draw, transform):
    seed, tags, cursor = 77, [0, 1, 5, 64, 2**40], 13
    rows = transform(raw_stream(split_keys(seed, tags), cursor, raw_count))
    assert rows.shape[0] == len(tags)
    for tag, row in zip(tags, rows):
        rng = CounterRng(seed).split(tag)
        rng.uniform((cursor,))  # move the cursor to where the rows start
        expected = draw(rng)
        assert row.dtype == expected.dtype
        assert row.tobytes() == expected.tobytes()
