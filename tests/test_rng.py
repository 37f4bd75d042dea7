import math

import pytest

from treelets.rng import SplitMix64


def test_stream_is_reproducible():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_known_splitmix64_outputs():
    # reference values for seed 1234567: published test vectors for the
    # Steele/Lea/Flood finalizer
    rng = SplitMix64(1234567)
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert [rng.next_u64() for _ in range(3)] == expected


def test_uniform_range_and_determinism():
    rng = SplitMix64(9)
    xs = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    replay = SplitMix64(9)
    assert xs == [replay.uniform() for _ in range(1000)]


def test_below_bounds():
    rng = SplitMix64(2)
    for n in (1, 2, 3, 7, 1000):
        assert all(0 <= rng.below(n) < n for _ in range(200))


def test_normal_pair_moments():
    rng = SplitMix64(77)
    zs = rng.normals(20000)
    mean = sum(zs) / len(zs)
    var = sum((z - mean) ** 2 for z in zs) / len(zs)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.05
    assert all(math.isfinite(z) for z in zs)


def test_sample_without_replacement_is_a_prefix_of_a_permutation():
    rng = SplitMix64(5)
    sample = rng.sample_without_replacement(10, 10)
    assert sorted(sample) == list(range(10))
    partial = SplitMix64(5).sample_without_replacement(10, 4)
    assert sample[:4] == partial


def test_sample_without_replacement_refuses_a_negative_count():
    """k = -2 returned items[:-2], eight of ten."""
    with pytest.raises(ValueError, match="^cannot sample -2 of 10 without replacement$"):
        SplitMix64(5).sample_without_replacement(10, -2)
    assert SplitMix64(5).sample_without_replacement(10, 0) == []
