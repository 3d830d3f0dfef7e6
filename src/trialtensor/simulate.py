"""Synthetic coupled tensors with known ground truth, for recovery oracles.

The generator draws a low-rank three-way structure and controls, through a
single coupling knob, how much latent structure the evidence layers share
with the outcome layer. The latent dimensions are split in half: the
outcome layer's mode vector lives on the first half and each evidence
layer's own draw lives on the second half, so at coupling 0 the evidence
layers are statistically independent of the outcome layer (they share no
latent dimensions), while at coupling 1 they reproduce its structure
exactly. Meaningful intermediate coupling therefore needs rank >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Mode, ModeIndex, SparseTensor


@dataclass(frozen=True)
class SynthConfig:
    dims: tuple[int, int, int]
    true_rank: int = 8
    noise_sd: float = 0.1
    observed_fraction: float = 0.2
    seed: int = 0
    coupling: float = 0.0

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        if self.true_rank < 1:
            raise ValueError("true_rank must be at least 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if not 0.0 < self.observed_fraction <= 1.0:
            raise ValueError("observed_fraction must be in (0, 1]")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must be in [0, 1]")


def generate(
    config: SynthConfig,
) -> tuple[SparseTensor, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw a rank-R tensor, observe cells independently, add clipped noise.

    Latent components are zero-mean normal with variance ``1/sqrt(R)``, so
    cell products have enough spread to populate [0, 1] after clipping.
    Ground truth is the clipped three-way product; observed values add
    Gaussian noise and clip again. Returns the sparse observations, the
    dense ground truth and the generating latents.
    """
    n_targets, n_indications, n_layers = config.dims
    rank = config.true_rank
    rng = np.random.default_rng(config.seed)
    scale = rank ** -0.25
    targets = rng.normal(0.0, scale, size=(n_targets, rank))
    indications = rng.normal(0.0, scale, size=(n_indications, rank))

    half = max(1, rank // 2)
    layers = np.zeros((n_layers, rank))
    layers[0, :half] = rng.normal(0.0, scale, size=half)
    for k in range(1, n_layers):
        own = np.zeros(rank)
        if half < rank:
            own[half:] = rng.normal(0.0, scale, size=rank - half)
        layers[k] = config.coupling * layers[0] + (1.0 - config.coupling) * own

    product = np.einsum("ir,jr,kr->ijk", targets, indications, layers)
    ground_truth = np.clip(product, 0.0, 1.0)
    noise = rng.normal(0.0, config.noise_sd, size=config.dims) if config.noise_sd else 0.0
    observed_values = np.clip(ground_truth + noise, 0.0, 1.0)
    mask = rng.random(config.dims) < config.observed_fraction

    coords = np.argwhere(mask)
    tensor = SparseTensor(config.dims, coords, observed_values[mask])
    return tensor, ground_truth, (targets, indications, layers)


def synthetic_modes(dims: tuple[int, int, int]) -> tuple[ModeIndex, ModeIndex, ModeIndex]:
    """Placeholder identifiers so synthetic tensors serialize like real ones."""
    n_targets, n_indications, n_layers = dims
    target_ids = tuple(f"T{i:04d}" for i in range(n_targets))
    indication_ids = tuple(f"I{j:04d}" for j in range(n_indications))
    layer_ids = ("outcome",) + tuple(f"evidence_{k}" for k in range(1, n_layers))
    return (
        ModeIndex(Mode.TARGET, target_ids),
        ModeIndex(Mode.INDICATION, indication_ids),
        ModeIndex(Mode.LAYER, layer_ids),
    )
