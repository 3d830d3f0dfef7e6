"""Gibbs-sampled Bayesian factorization of the rank-3 observation tensor.

The model places a Gaussian likelihood with fixed precision ``alpha`` on each
observed cell, whose mean is the three-way latent product
``sum_d U[i,d] * V[j,d] * W[k,d]``. Each mode's latent rows get a Gaussian
prior whose mean and precision carry a conjugate Gaussian-Wishart hyperprior,
so the full conditional of every quantity is available in closed form and
one sweep samples, per mode: hyperparameters, then all latent rows.

Given the other two modes, the latent rows of a mode are independent, so
each mode is redrawn by one stacked Cholesky solve over all of its rows,
its triangular solves taken in 8-column panels. The per-row Grams come
from the other modes' latent products, one stacked product per run of
entities with equal cell counts; what does not change between sweeps (the
runs themselves, the inverse Wishart scale, the Bartlett lower-triangle
indices) is computed once. Randomness comes from counter-based streams
keyed by ``(seed, sweep, role, mode)`` (see :mod:`trialtensor.rng`).

The model is the list of ``(U, V, W)`` triples :func:`run` retains; a
checkpoint stores exactly them, and :func:`predict_slice` scores a layer.
"""

from __future__ import annotations

import bisect
import functools
import json
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .io import atomic_write, float_rows, read_json, read_text
from .rng import ROLE_HYPER, ROLE_INIT, ROLE_LATENT, StreamTree
from .tensor import SparseTensor

_JITTER_REL = 1e-6
# Largest block of other-mode products ``q`` gathered at once, in doubles:
# 1 MiB, so 4096 cells at D=32. A single larger entity is one block.
_BLOCK_DOUBLES = 2**17
# Column width of the blocked triangular solves in ``_solve_draw``.
_PANEL = 8


@dataclass(frozen=True, eq=False)
class Hyperprior:
    """Gaussian-Wishart hyperprior shared by all three modes.

    ``precision_scale`` is the Wishart scale matrix and ``dof`` its degrees
    of freedom; ``mean_strength`` scales how strongly the prior mean ties
    down the sampled per-mode mean. ``scale_inverse``, the inverse of
    ``precision_scale`` that every posterior draw starts from, is computed
    once here.

    Two priors are equal when their arrays hold equal values and their
    scalars compare equal. A prior holds arrays, so it is not hashable.
    """

    mean: np.ndarray
    mean_strength: float
    precision_scale: np.ndarray
    dof: float
    scale_inverse: np.ndarray = field(init=False, repr=False)

    __hash__ = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        # A read-only copy, so the inverse cached below cannot go stale.
        scale = np.array(self.precision_scale, dtype=np.float64)
        scale.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision_scale", scale)
        n_latent = mean.shape[0]
        if scale.shape != (n_latent, n_latent):
            raise ValueError("precision_scale shape does not match mean length")
        if not np.allclose(scale, scale.T):
            raise NumericalError("scale matrix not SPD: not symmetric")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("scale matrix not SPD") from exc
        if self.dof < n_latent:
            raise ValueError(f"dof {self.dof} below latent dimension {n_latent}")
        if self.mean_strength <= 0:
            raise ValueError("mean_strength must be positive")
        inverse = np.linalg.inv(scale)
        inverse.flags.writeable = False
        object.__setattr__(self, "scale_inverse", inverse)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hyperprior):
            return NotImplemented
        return bool(
            self.mean_strength == other.mean_strength
            and self.dof == other.dof
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.precision_scale, other.precision_scale)
        )

    @property
    def n_latent(self) -> int:
        return int(self.mean.shape[0])

    @classmethod
    def default(cls, n_latent: int) -> "Hyperprior":
        return cls(
            mean=np.zeros(n_latent),
            mean_strength=2.0,
            precision_scale=np.eye(n_latent),
            dof=float(n_latent),
        )


@dataclass
class ModeParams:
    """Per-mode Gaussian prior on latent rows: Normal(mean, precision^-1)."""

    mean: np.ndarray
    precision: np.ndarray


@dataclass
class ModelState:
    """Latent matrices plus per-mode priors; owned by the sampling loop."""

    latents: list[np.ndarray]
    params: list[ModeParams]
    alpha: float
    n_latent: int
    seed: int
    hyperprior: Hyperprior
    sweep: int = 0

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(mat.shape[0] for mat in self.latents)


@dataclass(frozen=True)
class SamplerSchedule:
    """Burn-in, post-burn-in sweep count, and thinning interval."""

    burnin: int = 500
    samples: int = 3500
    thin: int = 350

    def __post_init__(self):
        if self.burnin < 0 or self.samples < 1 or self.thin < 1:
            raise ValueError(f"invalid schedule {self}")

    @property
    def retained(self) -> int:
        return self.samples // self.thin


def init_model(
    dims: Sequence[int],
    n_latent: int,
    hyperprior: Hyperprior | None = None,
    alpha: float = 5.0,
    seed: int = 0,
) -> ModelState:
    """Fresh model state: latents i.i.d. standard normal, identity priors."""
    if n_latent < 1:
        raise ValueError("n_latent must be at least 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if hyperprior is None:
        hyperprior = Hyperprior.default(n_latent)
    if hyperprior.n_latent != n_latent:
        raise ValueError("hyperprior dimension does not match n_latent")
    tree = StreamTree(seed)
    latents = [
        tree.stream(0, ROLE_INIT, mode).standard_normal((int(dims[mode]), n_latent))
        for mode in range(3)
    ]
    params = [
        ModeParams(mean=hyperprior.mean.copy(), precision=np.eye(n_latent)) for _ in range(3)
    ]
    return ModelState(
        latents=latents,
        params=params,
        alpha=float(alpha),
        n_latent=n_latent,
        seed=seed,
        hyperprior=hyperprior,
    )


# --------------------------------------------------------------------------
# Elementary draws.

def sample_wishart(scale: np.ndarray, dof: float, rng: np.random.Generator) -> np.ndarray:
    """Draw from Wishart(scale, dof) by the Bartlett decomposition.

    With ``L = chol(scale)`` and ``A`` lower triangular having
    ``A[i, i] ~ sqrt(chi2(dof - i))`` and standard-normal entries below the
    diagonal, ``L A A' L'`` is Wishart-distributed. The draw order (diagonal
    first, then the strictly-lower entries row-major) is part of the
    determinism contract.
    """
    scale = np.asarray(scale, dtype=np.float64)
    dim = scale.shape[0]
    if dof < dim:
        raise ValueError(f"degrees of freedom {dof} below dimension {dim}")
    try:
        lower = np.linalg.cholesky(scale)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("scale matrix not SPD") from exc
    return _bartlett(lower, dof, rng)


def _bartlett(root: np.ndarray, dof: float, rng: np.random.Generator) -> np.ndarray:
    # Wishart(root @ root', dof) for any square root, triangular or not.
    dim = root.shape[0]
    bartlett = np.zeros((dim, dim))
    bartlett[np.diag_indices(dim)] = np.sqrt(rng.chisquare(dof - np.arange(dim)))
    if dim > 1:
        tril = _strict_lower(dim)
        bartlett[tril] = rng.standard_normal(len(tril[0]))
    factor = root @ bartlett
    sample = factor @ factor.T
    return (sample + sample.T) / 2.0


@functools.lru_cache(maxsize=None)
def _strict_lower(dim: int) -> tuple[np.ndarray, np.ndarray]:
    # Row-major strictly-lower indices, shared by every draw of this size.
    rows, cols = np.tril_indices(dim, k=-1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def sample_mvn(mean: np.ndarray, precision: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw from Normal(mean, precision^-1) without forming the inverse.

    Uses the Cholesky factor of the precision and a single solve: if
    ``precision = L L'`` and ``z`` is standard normal, then
    ``mean + solve(L', z)`` has covariance ``precision^-1``.
    """
    mean = np.asarray(mean, dtype=np.float64)
    try:
        lower = np.linalg.cholesky(np.asarray(precision, dtype=np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("precision not SPD") from exc
    z = rng.standard_normal(mean.shape[0])
    return mean + np.linalg.solve(lower.T, z)


def _jittered(mat: np.ndarray) -> np.ndarray:
    # Jitter policy: one retry with 1e-6 * (trace / dim) added to the diagonal.
    dim = mat.shape[0]
    eps = _JITTER_REL * float(np.trace(mat)) / dim
    if eps <= 0.0:
        eps = _JITTER_REL
    return mat + eps * np.eye(dim)


def _cholesky(mats: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a ``(D, D)`` matrix or of each in an ``(n, D, D)`` stack.

    Only the matrices whose factorization fails get the jitter retry; a
    second failure raises :class:`NumericalError`.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        if mats.ndim == 3:
            return np.stack([_cholesky(mat, what) for mat in mats])
    try:
        return np.linalg.cholesky(_jittered(mats))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} not SPD after jitter") from exc


def _solve_draw(lower: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``x = L'^-1 (L^-1 b + z)`` for each lower factor ``L`` of an ``(n, D, D)`` stack.

    Both triangular solves run by blocks of ``_PANEL`` columns: each
    diagonal panel stack goes through ``np.linalg.solve`` and each
    off-diagonal update is one stacked matmul, so the LU work per row is
    that of ``D / _PANEL`` small panels instead of one ``D x D`` matrix. At
    ``D <= _PANEL`` this is exactly the two whole-matrix solves.
    """
    dim = lower.shape[1]
    panels = [slice(start, min(start + _PANEL, dim)) for start in range(0, dim, _PANEL)]
    half = np.empty(rhs.shape + (1,))
    for panel in panels:
        part = rhs[:, panel, None]
        if panel.start:
            part = part - lower[:, panel, : panel.start] @ half[:, : panel.start]
        half[:, panel] = np.linalg.solve(lower[:, panel, panel], part)
    half += z[..., None]
    upper = lower.transpose(0, 2, 1)
    rows = np.empty_like(half)
    for panel in reversed(panels):
        part = half[:, panel]
        if panel.stop < dim:
            part = part - upper[:, panel, panel.stop :] @ rows[:, panel.stop :]
        rows[:, panel] = np.linalg.solve(upper[:, panel, panel], part)
    return rows[..., 0]


def sample_mode_hyperparams(
    latents: np.ndarray, hyperprior: Hyperprior, rng: np.random.Generator
) -> ModeParams:
    """Gaussian-Wishart posterior draw given one mode's latent rows.

    Conjugate update: with ``n`` rows, sample mean ``xbar`` and centered
    scatter ``n * S``, the posterior has strength ``beta0 + n``, degrees of
    freedom ``dof0 + n``, mean ``(beta0 * mu0 + n * xbar) / (beta0 + n)``
    and inverse scale
    ``W0^-1 + n * S + (beta0 * n / (beta0 + n)) (xbar - mu0)(xbar - mu0)'``.
    Precision is drawn from the Wishart, then the mean conditionally on it.
    """
    latents = np.asarray(latents, dtype=np.float64)
    n_rows = latents.shape[0]
    if n_rows < 1:
        raise ValueError("empty mode: cannot update hyperparameters")
    beta0 = hyperprior.mean_strength
    mu0 = hyperprior.mean
    xbar = latents.mean(axis=0)
    centered = latents - xbar
    scatter = centered.T @ centered
    beta_post = beta0 + n_rows
    dof_post = hyperprior.dof + n_rows
    mean_post = (beta0 * mu0 + n_rows * xbar) / beta_post
    dev = xbar - mu0
    scale_inv = hyperprior.scale_inverse + scatter + (beta0 * n_rows / beta_post) * np.outer(dev, dev)
    scale_inv = (scale_inv + scale_inv.T) / 2.0
    # With scale_inv = L L', the posterior scale is R R' for R = L'^-1.
    inv_lower = _cholesky(scale_inv, "posterior inverse scale")
    root = np.linalg.inv(inv_lower).T
    precision = _bartlett(root, dof_post, rng)
    mean = sample_mvn(mean_post, beta_post * precision, rng)
    return ModeParams(mean=mean, precision=precision)


def row_posterior(
    prior_precision: np.ndarray,
    prior_mean: np.ndarray,
    alpha: float,
    q_rows: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian conditional of one latent row given its observed cells.

    ``q_rows`` holds, per observed cell, the elementwise product of the other
    two modes' latent vectors. Posterior precision is
    ``prior_precision + alpha * sum(q q')`` and the posterior mean solves it
    against ``prior_precision @ prior_mean + alpha * sum(value * q)``.

    This is the one-row reference for :func:`sample_mode_latents`, which
    forms the same quantities for a whole mode at once.
    """
    precision = prior_precision + alpha * (q_rows.T @ q_rows)
    precision = (precision + precision.T) / 2.0
    rhs = prior_precision @ prior_mean + alpha * (q_rows.T @ values)
    try:
        mean = np.linalg.solve(precision, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("row posterior precision is singular") from exc
    return precision, mean


_OTHER_MODES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def sample_mode_latents(
    state: ModelState,
    tensor: SparseTensor,
    mode: int,
    tree: StreamTree,
) -> np.ndarray:
    """Redraw every latent row of one mode from its full conditional.

    Rows are conditionally independent given the other two modes. The
    Grams ``q'q`` and right-hand sides ``q'y`` (``q`` as in
    :func:`row_posterior`) are built in the tensor's (cell count, entity id)
    order (:meth:`SparseTensor.count_runs`): ``q`` is gathered for a block of
    whole entities at a time, at most ``_BLOCK_DOUBLES`` values unless one
    entity alone needs more, and each stretch of equal-count entities in a
    block is one stacked ``(m, c, D)`` product, so no Python loop runs per
    entity. Then, for the whole mode at once, the prior is added, the
    posterior precisions ``L L'`` are factored, and with one standard-normal
    block ``z`` from the (sweep, mode) stream the rows are
    ``x = L'^-1 (L^-1 b + z)``, solved in panels by :func:`_solve_draw`. An
    entity with no cells has a zero Gram, so its row is drawn from the mode
    prior.
    """
    if state.dims != tensor.dims:
        raise DataError(f"state dims {state.dims} do not match tensor dims {tensor.dims}")
    runs = tensor.count_runs(mode)
    lat_a, lat_b = (state.latents[other] for other in _OTHER_MODES[mode])
    n_entities, n_latent = state.latents[mode].shape
    # Every row in (cell count, entity id) order until the final scatter.
    grams = np.empty((n_entities, n_latent, n_latent))
    rhs = np.empty((n_entities, n_latent))
    budget = max(1, _BLOCK_DOUBLES // n_latent)  # cells per block
    offsets = runs.offsets.tolist()
    starts = runs.starts.tolist()
    # Blocks reuse two buffers, as a fresh large array per block costs page
    # faults. The dims check above keeps every index in range, so "clip"
    # never clips; it only spares numpy's buffered bounds check.
    block_cells = min(offsets[-1], max(budget, offsets[-1] - offsets[-2]))
    q_buffer, b_buffer = np.empty((2, block_cells, n_latent))
    first = 0
    while first < n_entities:
        # A block: the most whole entities within budget, at least one.
        base = offsets[first]
        end = max(first + 1, bisect.bisect_right(offsets, base + budget) - 1)
        cells = slice(base, offsets[end])
        q_block = np.take(lat_a, runs.index_a[cells], axis=0, out=q_buffer[: cells.stop - base], mode="clip")
        q_block *= np.take(lat_b, runs.index_b[cells], axis=0, out=b_buffer[: cells.stop - base], mode="clip")
        y_block = runs.values[cells]
        # One stacked product per stretch of equal-count entities in the block.
        cuts = starts[bisect.bisect_right(starts, first) : bisect.bisect_left(starts, end)]
        for lo, hi in zip([first, *cuts], [*cuts, end]):
            piece = slice(offsets[lo] - base, offsets[hi] - base)
            count = (offsets[hi] - offsets[lo]) // (hi - lo)
            q = q_block[piece].reshape(hi - lo, count, n_latent)
            q_t = q.transpose(0, 2, 1)
            grams[lo:hi] = q_t @ q
            rhs[lo:hi] = (q_t @ y_block[piece].reshape(hi - lo, count, 1))[..., 0]
        first = end
    params = state.params[mode]
    grams *= state.alpha
    grams += params.precision
    rhs *= state.alpha
    rhs += params.precision @ params.mean
    lower = _cholesky(grams, "row posterior precision")
    z = tree.stream(state.sweep, ROLE_LATENT, mode).standard_normal((n_entities, n_latent))
    rows = np.empty_like(rhs)
    rows[runs.entities] = _solve_draw(lower, rhs, z[runs.entities])
    return rows


def gibbs_step(state: ModelState, tensor: SparseTensor, tree: StreamTree) -> ModelState:
    """One full sweep: per mode (target, indication, layer order),
    sample hyperparameters, then every latent row of that mode."""
    if state.dims != tensor.dims:
        raise DataError(f"state dims {state.dims} do not match tensor dims {tensor.dims}")
    for mode in range(3):
        rng = tree.stream(state.sweep, ROLE_HYPER, mode)
        state.params[mode] = sample_mode_hyperparams(state.latents[mode], state.hyperprior, rng)
        state.latents[mode] = sample_mode_latents(state, tensor, mode, tree)
    state.sweep += 1
    return state


# --------------------------------------------------------------------------
# Retained samples and prediction.

Sample = tuple[np.ndarray, np.ndarray, np.ndarray]


def run(state: ModelState, tensor: SparseTensor, schedule: SamplerSchedule) -> list[Sample]:
    """Burn in, then sample, retaining every ``thin``-th post-burn-in sweep.

    Sweeps are numbered 1-based after burn-in and a sweep is retained when
    its number is an exact multiple of ``thin``, so the retained count is
    ``schedule.retained == samples // thin``. Returns the retained
    ``(U, V, W)`` latent triples in retention order; :func:`gibbs_step`
    assigns fresh arrays, so later sweeps never alter a retained triple.
    """
    if schedule.retained == 0:
        raise ValueError(
            f"schedule retains no samples (samples={schedule.samples} < thin={schedule.thin})"
        )
    tree = StreamTree(state.seed)
    for _ in range(schedule.burnin):
        gibbs_step(state, tensor, tree)
    samples = []
    for sweep_number in range(1, schedule.samples + 1):
        gibbs_step(state, tensor, tree)
        if sweep_number % schedule.thin == 0:
            samples.append(tuple(state.latents))
    return samples


def predict_slice(samples: Sequence[Sample], layer: int) -> np.ndarray:
    """Mean over retained samples of one clamped ``(n_targets, n_indications)`` slice.

    Each sample contributes ``clip(U diag(W[layer]) V', 0, 1)``, one GEMM,
    summed in retention order and divided by the sample count.
    """
    n_layers = samples[0][2].shape[0] if samples else 0
    if not 0 <= layer < n_layers:
        raise DataError(f"layer {layer} out of range for {n_layers} layers in {len(samples)} samples")
    total = np.zeros((samples[0][0].shape[0], samples[0][1].shape[0]))
    for targets, indications, layers in samples:
        scores = (targets * layers[layer]) @ indications.T
        total += np.clip(scores, 0.0, 1.0, out=scores)
    return total / len(samples)


# --------------------------------------------------------------------------
# Checkpoints: per mode, one TSV stacking its retained latents; a JSON manifest.

_CHECKPOINT_FILES = ("targets.tsv", "indications.tsv", "layers.tsv")


def save_checkpoint(
    directory: str | Path,
    samples: Sequence[Sample],
    state: ModelState,
    schedule: SamplerSchedule,
) -> None:
    directory = Path(directory)
    for mode, filename in enumerate(_CHECKPOINT_FILES):
        with atomic_write(directory / filename) as handle:
            for sample in samples:
                handle.write(float_rows(sample[mode]))
    manifest = {
        "n_latent": state.n_latent,
        "alpha": state.alpha,
        "burnin": schedule.burnin,
        "samples": schedule.samples,
        "thin": schedule.thin,
        "seed": state.seed,
        "retained": len(samples),
    }
    with atomic_write(directory / "manifest.json") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_stack(path: Path, retained: int, n_latent: int) -> np.ndarray:
    """One checkpoint TSV as a ``(retained, n, n_latent)`` array of finite floats."""
    with read_text(path) as handle:
        lines = handle.read().splitlines()
    try:
        stack = np.array([[float(v) for v in line.split("\t")] for line in lines])
    except ValueError as exc:  # a non-numeric field or rows of unequal length
        raise DataError(f"{path}: {exc}") from exc
    if retained < 1 or stack.ndim != 2 or stack.shape[1] != n_latent or len(lines) % retained:
        raise DataError(f"{path}: shape {stack.shape} is not {retained} stacked samples x n x {n_latent}")
    if not np.isfinite(stack).all():
        raise DataError(f"{path}: non-finite latent value")
    return stack.reshape(retained, -1, n_latent)


def load_checkpoint(directory: str | Path) -> tuple[list[Sample], Mapping]:
    """The retained samples and the manifest of a checkpoint directory.

    ``predict_slice(samples, 0)`` rebuilds the scores that ``train`` wrote
    to ``predictions.tsv``, bit for bit.
    """
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    try:
        retained, n_latent = (operator.index(manifest[key]) for key in ("retained", "n_latent"))
    except (KeyError, TypeError) as exc:
        raise DataError(f"{directory}: manifest needs integer 'retained' and 'n_latent'") from exc
    stacks = [_read_stack(directory / name, retained, n_latent) for name in _CHECKPOINT_FILES]
    return list(zip(*stacks)), manifest
