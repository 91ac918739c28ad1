import numpy as np
import pytest

from ifr.rng import CounterRng


def test_streams_are_reproducible():
    a = CounterRng(123).normal((64,))
    b = CounterRng(123).normal((64,))
    assert np.array_equal(a, b)


def test_draws_are_counter_addressable():
    rng = CounterRng(9)
    head, tail = rng.uniform((5,)), rng.uniform((15,))
    assert np.concatenate([head, tail]).tobytes() == CounterRng(9).uniform((20,)).tobytes()


def test_a_one_stream_scalar_draw_is_a_python_number():
    rng = CounterRng(12).split(3)
    assert type(rng.uniform()) is float
    assert type(rng.normal()) is float
    assert type(rng.integers(0, 9)) is int


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
    "draw",
    [
        lambda rng: rng.uniform((6,)),
        lambda rng: rng.normal((7,)),
        lambda rng: rng.normal((2, 4)),
        lambda rng: rng.integers(3, 13, (5,)),
    ],
    ids=["uniform", "normal-odd", "normal-even", "integers"],
)
def test_array_key_draws_match_split_streams(draw):
    seed, tags, cursor = 77, np.array([0, 1, 5, 64, 2**40]), 13
    batch = CounterRng(seed).split(tags)
    batch.uniform((cursor,))  # start the draw at a nonzero cursor
    rows = draw(batch)
    assert rows.shape[0] == len(tags)
    for tag, row in zip(tags, rows):
        rng = CounterRng(seed).split(int(tag))
        rng.uniform((cursor,))
        expected = draw(rng)
        assert row.dtype == expected.dtype and row.shape == expected.shape
        assert row.tobytes() == expected.tobytes()
