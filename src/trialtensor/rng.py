"""Counter-based random number streams for reproducible sampling.

Each chain draws from one Philox stream per step, keyed by
``(seed, index)``: index 0 draws its initial latents and index ``s + 1``
every draw of sweep ``s``. The stream identity depends only on that key,
never on how many draws came before it.

Key layout: the seed is the first Philox key word, so seeds are the
integers in ``[0, 2**64)``; the index is the second, in
``[0, N_SWEEPS]``, which bounds a run at 2**32 sweeps.
"""

from __future__ import annotations

import operator

import numpy as np

N_SEEDS = 1 << 64  # a seed is one 64-bit Philox key word
N_SWEEPS = 1 << 32  # sweeps a run may take; sweep s draws from stream s + 1


class StreamTree:
    """The independent ``numpy`` streams of one seed, keyed by index.

    A tree owns one Philox generator. :meth:`stream` re-keys it to
    ``[seed, index]`` with a zero counter and an empty buffer, the state of
    a fresh ``Generator(Philox(key=[seed, index]))``, and returns it, so
    every draw matches that fresh generator's. Taking a stream therefore
    ends the tree's previous stream: finish one stream's draws before
    taking the next, and give each chain, or each thread, its own tree.
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

    def stream(self, index: int) -> np.random.Generator:
        if not 0 <= index <= N_SWEEPS:
            raise ValueError(f"stream index {index} outside supported range")
        self._state["state"]["key"][1] = index
        self._bits.state = self._state
        return self._generator
