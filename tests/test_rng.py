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
