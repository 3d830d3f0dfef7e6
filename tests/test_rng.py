import numpy as np
import pytest

from trialtensor.rng import ROLE_HYPER, ROLE_INIT, ROLE_LATENT, StreamTree


def test_same_key_reproduces():
    tree = StreamTree(1234)
    a = tree.stream(5, ROLE_LATENT, 2).standard_normal(8)
    b = tree.stream(5, ROLE_LATENT, 2).standard_normal(8)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    tree = StreamTree(1234)
    keys = [
        (sweep, role, mode)
        for sweep in (0, 5, 6)
        for role in (ROLE_INIT, ROLE_HYPER, ROLE_LATENT)
        for mode in range(3)
    ]
    draws = {key: tree.stream(*key).standard_normal(8) for key in keys}
    assert len({draw.tobytes() for draw in draws.values()}) == len(keys)


def test_distinct_seeds_differ():
    a = StreamTree(1).stream(0, 0, 0).standard_normal(4)
    b = StreamTree(2).stream(0, 0, 0).standard_normal(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "sweep,role,mode", [(-1, 0, 0), (1 << 32, 0, 0), (0, 16, 0), (0, 0, -1), (0, 0, 3), (0, 0, 1 << 28)]
)
def test_out_of_range_key_rejected(sweep, role, mode):
    with pytest.raises(ValueError):
        StreamTree(0).stream(sweep, role, mode)


def _fresh(seed, sweep, role, mode):
    key = np.array([seed, (sweep << 32) | (role << 28) | mode], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_rekeyed_stream_equals_fresh_generator():
    # Interleaved keys, some taken right after a draw that left a buffered
    # uint32 and unused Philox output behind; each must start clean.
    tree = StreamTree(2**64 - 1)
    keys = [(0, ROLE_INIT, 1), (3, ROLE_LATENT, 2), (0, ROLE_INIT, 1), (1 << 31, ROLE_HYPER, 0), (3, ROLE_LATENT, 2)]
    for key in keys:
        got, expected = tree.stream(*key), _fresh(tree.seed, *key)
        assert np.array_equal(got.standard_normal(5), expected.standard_normal(5))
        assert got.integers(0, 2**32, dtype=np.uint32) == expected.integers(0, 2**32, dtype=np.uint32)
        assert np.array_equal(got.chisquare([3.0, 2.5]), expected.chisquare([3.0, 2.5]))


def test_trees_do_not_alias():
    a, b = StreamTree(7), StreamTree(7)
    stream_a = a.stream(1, ROLE_HYPER, 0)
    first = stream_a.standard_normal(3)
    b.stream(2, ROLE_LATENT, 1).standard_normal(4)
    rest = stream_a.standard_normal(3)
    expected = _fresh(7, 1, ROLE_HYPER, 0).standard_normal(6)
    assert np.array_equal(np.concatenate([first, rest]), expected)


@pytest.mark.parametrize("seed", [-1, 2**64, 7 + 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # Seeds are not reduced modulo 2**64: 7 + 2**64 would alias seed 7.
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        StreamTree(seed)
