import numpy as np
import pytest

from trialtensor.rng import N_SWEEPS, StreamTree


def test_same_key_reproduces():
    tree = StreamTree(1234)
    a = tree.stream(5).standard_normal(8)
    b = tree.stream(5).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    tree = StreamTree(1234)
    indices = [0, 1, 2, 5, 6, 1 << 31, N_SWEEPS]
    draws = [tree.stream(index).standard_normal(8).tobytes() for index in indices]
    assert len(set(draws)) == len(indices)


def test_distinct_seeds_differ():
    a = StreamTree(1).stream(0).standard_normal(4)
    b = StreamTree(2).stream(0).standard_normal(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("index", [-1, N_SWEEPS + 1, 1 << 63])
def test_out_of_range_key_rejected(index):
    # Index 0 is the initial latents and s + 1 is sweep s < N_SWEEPS, so N_SWEEPS is the last stream.
    with pytest.raises(ValueError, match="outside supported range"):
        StreamTree(0).stream(index)


def _fresh(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def test_rekeyed_stream_equals_fresh_generator():
    # Interleaved indices, some taken right after a draw that left a buffered
    # uint32 and unused Philox output behind; each must start clean.
    tree = StreamTree(2**64 - 1)
    for index in [0, 3, 0, N_SWEEPS, 3]:
        got, expected = tree.stream(index), _fresh(tree.seed, index)
        assert np.array_equal(got.standard_normal(5), expected.standard_normal(5))
        assert got.integers(0, 2**32, dtype=np.uint32) == expected.integers(0, 2**32, dtype=np.uint32)
        assert np.array_equal(got.chisquare([3.0, 2.5]), expected.chisquare([3.0, 2.5]))


def test_trees_do_not_alias():
    a, b = StreamTree(7), StreamTree(7)
    stream_a = a.stream(1)
    first = stream_a.standard_normal(3)
    b.stream(2).standard_normal(4)
    rest = stream_a.standard_normal(3)
    expected = _fresh(7, 1).standard_normal(6)
    assert np.array_equal(np.concatenate([first, rest]), expected)


@pytest.mark.parametrize("seed", [-1, 2**64, 7 + 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # Seeds are not reduced modulo 2**64: 7 + 2**64 would alias seed 7.
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        StreamTree(seed)
