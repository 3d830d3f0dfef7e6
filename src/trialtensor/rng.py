"""Counter-based random number streams for reproducible sampling.

Every block of random draws in the Gibbs sweep comes from its own Philox
stream keyed by ``(seed, sweep, role, mode)``: the initial latents of a
mode, its hyperparameter draw, and the one standard-normal block that
redraws all of its latent rows. The stream identity depends only on that
key, never on how many draws came before it.

Key layout: the seed is the first Philox key word, so seeds are the
integers in ``[0, 2**64)``. The second word holds ``sweep`` in bits 32+,
``role`` in bits 28..31 and ``mode`` in bits 0..1. That bounds a run at
2**32 sweeps, 16 roles and the three tensor modes.
"""

from __future__ import annotations

import operator

import numpy as np

N_SEEDS = 1 << 64  # a seed is one 64-bit Philox key word
_N_MODES = 3
_MAX_ROLE = 1 << 4
N_SWEEPS = 1 << 32  # a sweep number fills the high half of the second key word

# Stream roles.
ROLE_INIT = 0
ROLE_HYPER = 1
ROLE_LATENT = 2


class StreamTree:
    """The independent ``numpy`` streams of one seed, keyed by draw identity.

    A tree owns one Philox generator. :meth:`stream` re-keys it to
    ``[seed, path]`` with a zero counter and an empty buffer, the state of a
    fresh ``Generator(Philox(key=[seed, path]))``, and returns it, so every
    draw matches that fresh generator's. Taking a stream therefore ends the
    tree's previous stream: finish one stream's draws before taking the
    next, and give each chain, or each thread, its own tree.
    """

    __slots__ = ("seed", "_bits", "_generator", "_state")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if not 0 <= seed < N_SEEDS:
            raise ValueError(f"seed {seed} outside [0, 2**64)")
        self.seed = seed
        self._bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._generator = np.random.Generator(self._bits)
        self._state = self._bits.state  # the fresh state; stream() changes only its key

    def stream(self, sweep: int, role: int, mode: int) -> np.random.Generator:
        if not 0 <= sweep < N_SWEEPS:
            raise ValueError(f"sweep {sweep} outside supported range")
        if not 0 <= role < _MAX_ROLE:
            raise ValueError(f"role {role} outside supported range")
        if not 0 <= mode < _N_MODES:
            raise ValueError(f"mode {mode} outside supported range")
        self._state["state"]["key"][1] = (sweep << 32) | (role << 28) | mode
        self._bits.state = self._state
        return self._generator
