import numpy as np
import pytest

from trialtensor.rng import N_SWEEPS, StreamTree, check_seed


def test_same_key_reproduces():
    tree = StreamTree()
    a = tree.stream(1234, 5).standard_normal(8)
    b = tree.stream(1234, 5).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    tree = StreamTree()
    indices = [0, 1, 2, 5, 6, 1 << 31, N_SWEEPS]
    draws = [tree.stream(1234, index).standard_normal(8).tobytes() for index in indices]
    assert len(set(draws)) == len(indices)


def test_distinct_seeds_differ():
    tree = StreamTree()
    a = tree.stream(1, 0).standard_normal(4)
    b = tree.stream(2, 0).standard_normal(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("index", [-1, N_SWEEPS + 1, 1 << 63])
def test_out_of_range_key_rejected(index):
    # Index 0 is the initial latents and s + 1 is sweep s < N_SWEEPS, so N_SWEEPS is the last stream.
    with pytest.raises(ValueError, match="outside supported range"):
        StreamTree().stream(0, index)


def _fresh(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _assert_draws_like(got, expected):
    assert np.array_equal(got.standard_normal(5), expected.standard_normal(5))
    assert got.integers(0, 2**32, dtype=np.uint32) == expected.integers(0, 2**32, dtype=np.uint32)
    assert np.array_equal(got.chisquare([3.0, 2.5]), expected.chisquare([3.0, 2.5]))


def test_rekeyed_stream_equals_fresh_generator():
    # Interleaved indices, some taken right after a draw that left a buffered
    # uint32 and unused Philox output behind; each must start clean.
    tree = StreamTree()
    for index in [0, 3, 0, N_SWEEPS, 3]:
        _assert_draws_like(tree.stream(2**64 - 1, index), _fresh(2**64 - 1, index))


def test_rekeyed_between_seeds_equals_fresh_generator():
    # One tree serves every chain: each re-key, to another seed or back, starts a fresh stream.
    tree = StreamTree()
    for seed, index in [(0, 1), (2**64 - 1, 1), (7, 0), (0, 1), (7, N_SWEEPS), (2**63, 1)]:
        _assert_draws_like(tree.stream(seed, index), _fresh(seed, index))


def test_trees_do_not_alias():
    a, b = StreamTree(), StreamTree()
    stream_a = a.stream(7, 1)
    first = stream_a.standard_normal(3)
    b.stream(7, 2).standard_normal(4)
    rest = stream_a.standard_normal(3)
    expected = _fresh(7, 1).standard_normal(6)
    assert np.array_equal(np.concatenate([first, rest]), expected)


@pytest.mark.parametrize("seed", [-1, 2**64, 7 + 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # Seeds are not reduced modulo 2**64: 7 + 2**64 would alias seed 7.
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        StreamTree().stream(seed, 0)
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        check_seed(seed)


def test_numpy_integer_seeds_are_python_ints():
    seeds = [check_seed(seed) for seed in np.array([0, 2**64 - 1], dtype=np.uint64)]
    assert seeds == [0, 2**64 - 1] and all(type(seed) is int for seed in seeds)
    with pytest.raises(TypeError):
        check_seed(1.0)
