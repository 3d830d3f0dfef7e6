"""Counter-based random number streams for reproducible sampling.

Every block of random draws in the Gibbs sweep comes from its own Philox
stream keyed by ``(seed, sweep, role, mode)``: the initial latents of a
mode, its hyperparameter draw, and the one standard-normal block that
redraws all of its latent rows. The stream identity depends only on that
key, never on how many draws came before it.

Key layout (second Philox key word): ``sweep`` in bits 32+, ``role`` in bits
28..31, ``mode`` in bits 0..1. That bounds a run at 2**32 sweeps, 16 roles
and the three tensor modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_N_MODES = 3
_MAX_ROLE = 1 << 4
_MAX_SWEEP = 1 << 32

# Stream roles.
ROLE_INIT = 0
ROLE_HYPER = 1
ROLE_LATENT = 2


@dataclass(frozen=True)
class StreamTree:
    """Factory of independent ``numpy`` generators keyed by draw identity."""

    seed: int

    def stream(self, sweep: int, role: int, mode: int) -> np.random.Generator:
        if not 0 <= sweep < _MAX_SWEEP:
            raise ValueError(f"sweep {sweep} outside supported range")
        if not 0 <= role < _MAX_ROLE:
            raise ValueError(f"role {role} outside supported range")
        if not 0 <= mode < _N_MODES:
            raise ValueError(f"mode {mode} outside supported range")
        path = (sweep << 32) | (role << 28) | mode
        key = np.array([self.seed & _MASK64, path & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
