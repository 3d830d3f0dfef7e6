"""Gibbs-sampled Bayesian factorization of the rank-3 observation tensor.

The model places a Gaussian likelihood with fixed precision ``alpha`` on each
observed cell, whose mean is the three-way latent product
``sum_d U[i,d] * V[j,d] * W[k,d]``. Each mode's latent rows get a Gaussian
prior whose mean and precision carry a conjugate Gaussian-Wishart hyperprior,
so the full conditional of every quantity is available in closed form and
one sweep samples, per mode: hyperparameters, then all latent rows.

A :class:`ModelState` holds one or more independent chains that advance in
lock-step over the block-diagonal union of their training tensors
(:func:`~trialtensor.tensor.block_union`): each sweep draws each mode once
for every chain. Given the other two modes, the latent rows of a mode are
independent, so each mode is redrawn by one stacked Cholesky solve over the
rows of all chains, its triangular solves taken in 8-column panels. The
per-row Grams come from the other modes' latent products, one stacked
product per run of entities with equal cell counts across the union; each
chain adds its own prior to its contiguous rows. The hyperparameter draw
keeps each chain's mean, scatter and random draws separate and stacks the
factorizations and products. What does not change between sweeps (the
runs themselves, the inverse Wishart scale, the Bartlett lower-triangle
indices) is computed once. Every chain's randomness comes from its own
counter-based streams keyed by ``(seed, sweep, role, mode)`` (see
:mod:`trialtensor.rng`), so a chain draws the same numbers alone or in a
batch. A single chain is the one-chain case of the same code.

The model is the list of ``(U, V, W)`` triples :func:`run` retains for a
chain; a checkpoint stores exactly them, and :func:`predict_slice` scores a
layer.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .io import atomic_write, float_rows, read_json, read_text, write_json
from .rng import ROLE_HYPER, ROLE_INIT, ROLE_LATENT, StreamTree
from .tensor import CountRuns, SparseTensor, block_union

_JITTER_REL = 1e-6
# Largest block of other-mode products ``q`` gathered at once, in doubles:
# 256 KiB, so 1024 cells at D=32 or 4096 at D=8 (two such buffers). A
# single larger entity is one block.
_BLOCK_DOUBLES = 2**15
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
    """Each chain's Gaussian prior on one mode's latent rows: Normal(mean, precision^-1).

    ``mean`` is ``(n_chains, D)`` and ``precision`` ``(n_chains, D, D)``.
    """

    mean: np.ndarray
    precision: np.ndarray


@dataclass
class ModelState:
    """Latent rows and per-mode priors of chains sampled in lock-step.

    Chain ``c`` owns rows ``offsets[c, mode]:offsets[c + 1, mode]`` of
    ``latents[mode]`` (chain-major), entry ``c`` of each ``params[mode]``
    and the random streams of ``seeds[c]``. ``dims`` are those of the
    chains' :func:`~trialtensor.tensor.block_union`.
    """

    latents: list[np.ndarray]
    params: list[ModeParams]
    alpha: float
    n_latent: int
    seeds: tuple[int, ...]
    offsets: np.ndarray
    hyperprior: Hyperprior
    sweep: int = 0

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(mat.shape[0] for mat in self.latents)

    def chain_latents(self) -> list[Sample]:
        """Each chain's current ``(U, V, W)``, as views of ``latents``."""
        return list(zip(*(np.split(mat, self.offsets[1:-1, mode]) for mode, mat in enumerate(self.latents))))


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


def init_chains(
    chain_dims: Sequence[Sequence[int]],
    n_latent: int,
    seeds: Sequence[int],
    hyperprior: Hyperprior | None = None,
    alpha: float = 5.0,
) -> ModelState:
    """Fresh state of one chain per ``(dims, seed)``: latents i.i.d. standard normal, identity priors."""
    if n_latent < 1:
        raise ValueError("n_latent must be at least 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(chain_dims) != len(seeds) or not seeds:
        raise ValueError(f"need one seed per chain, got {len(seeds)} for {len(chain_dims)} chains")
    if hyperprior is None:
        hyperprior = Hyperprior.default(n_latent)
    if hyperprior.n_latent != n_latent:
        raise ValueError("hyperprior dimension does not match n_latent")
    seeds = tuple(int(seed) for seed in seeds)
    offsets = np.zeros((len(seeds) + 1, 3), dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(chain_dims, dtype=np.int64).reshape(-1, 3), axis=0)
    offsets.flags.writeable = False
    latents = [
        np.concatenate([
            StreamTree(seed).stream(0, ROLE_INIT, mode).standard_normal((int(dims[mode]), n_latent))
            for seed, dims in zip(seeds, chain_dims)
        ])
        for mode in range(3)
    ]
    params = [
        ModeParams(
            mean=np.tile(hyperprior.mean, (len(seeds), 1)),
            precision=np.tile(np.eye(n_latent), (len(seeds), 1, 1)),
        )
        for _ in range(3)
    ]
    return ModelState(
        latents=latents,
        params=params,
        alpha=float(alpha),
        n_latent=n_latent,
        seeds=seeds,
        offsets=offsets,
        hyperprior=hyperprior,
    )


# --------------------------------------------------------------------------
# Elementary draws. The sweep draws its hyperparameters stacked over chains
# and does not call ``sample_wishart`` or ``sample_mvn``; they share its
# ``_draw_bartlett``, ``_wishart`` and ``_mvn``, so holding these single
# draws to their analytic moments checks that arithmetic in distribution.

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
    bartlett = np.zeros((dim, dim))
    _draw_bartlett(bartlett, dof, rng)
    return _wishart(lower, bartlett)


def _draw_bartlett(out: np.ndarray, dof: float, rng: np.random.Generator) -> None:
    # Fill a zeroed (D, D) Bartlett factor: the diagonal, then the strict lower triangle.
    dim = out.shape[0]
    np.fill_diagonal(out, np.sqrt(rng.chisquare(dof - np.arange(dim))))
    if dim > 1:
        tril = _strict_lower(dim)
        out[tril] = rng.standard_normal(len(tril[0]))


def _wishart(root: np.ndarray, bartlett: np.ndarray) -> np.ndarray:
    # Wishart(root @ root', dof) for any square root, triangular or not; stacks too.
    factor = root @ bartlett
    sample = factor @ np.swapaxes(factor, -1, -2)
    return (sample + np.swapaxes(sample, -1, -2)) / 2.0


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
    return _mvn(mean, np.asarray(precision, dtype=np.float64), rng.standard_normal(mean.shape[0]))


def _mvn(mean: np.ndarray, precision: np.ndarray, z: np.ndarray) -> np.ndarray:
    # mean + L'^-1 z for precision = L L'; stacks of (..., D) means too.
    try:
        lower = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("precision not SPD") from exc
    return mean + np.linalg.solve(np.swapaxes(lower, -1, -2), z[..., None])[..., 0]


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
    blocks: Sequence[np.ndarray], hyperprior: Hyperprior, rngs: Sequence[np.random.Generator]
) -> ModeParams:
    """Gaussian-Wishart posterior draw of each chain given its rows of one mode.

    ``blocks[c]`` holds chain ``c``'s latent rows and ``rngs[c]`` is its
    stream. Conjugate update: with ``n`` rows, sample mean ``xbar`` and
    centered scatter ``n * S``, the posterior has strength ``beta0 + n``,
    degrees of freedom ``dof0 + n``, mean
    ``(beta0 * mu0 + n * xbar) / (beta0 + n)`` and inverse scale
    ``W0^-1 + n * S + (beta0 * n / (beta0 + n)) (xbar - mu0)(xbar - mu0)'``.
    Precision is drawn from the Wishart, then the mean conditionally on it.
    Each chain's mean, scatter and draws (Bartlett diagonal, its lower
    triangle, then the mean's normals) are its own; the Cholesky factors,
    inverses, Wishart products and mean solves are stacked over chains.
    Returns the ``(n_chains, D)`` means and ``(n_chains, D, D)`` precisions.
    """
    dim = hyperprior.n_latent
    beta0 = hyperprior.mean_strength
    mu0 = hyperprior.mean
    scale_inv = np.empty((len(blocks), dim, dim))
    mean_post = np.empty((len(blocks), dim))
    beta_post = np.empty(len(blocks))
    bartlett = np.zeros((len(blocks), dim, dim))
    z = np.empty((len(blocks), dim))
    for chain, (latents, rng) in enumerate(zip(blocks, rngs, strict=True)):
        latents = np.asarray(latents, dtype=np.float64)
        n_rows = latents.shape[0]
        if n_rows < 1:
            raise ValueError("empty mode: cannot update hyperparameters")
        xbar = latents.mean(axis=0)
        centered = latents - xbar
        scatter = centered.T @ centered
        beta_post[chain] = beta0 + n_rows
        mean_post[chain] = (beta0 * mu0 + n_rows * xbar) / beta_post[chain]
        dev = xbar - mu0
        scale_inv[chain] = hyperprior.scale_inverse + scatter + (beta0 * n_rows / beta_post[chain]) * np.outer(dev, dev)
        _draw_bartlett(bartlett[chain], hyperprior.dof + n_rows, rng)
        z[chain] = rng.standard_normal(dim)
    scale_inv = (scale_inv + scale_inv.transpose(0, 2, 1)) / 2.0
    # With scale_inv = L L', the posterior scale is R R' for R = L'^-1.
    inv_lower = _cholesky(scale_inv, "posterior inverse scale")
    root = np.linalg.inv(inv_lower).transpose(0, 2, 1)
    precision = _wishart(root, bartlett)
    mean = _mvn(mean_post, beta_post[:, None, None] * precision, z)
    return ModeParams(mean=mean, precision=precision)


_OTHER_MODES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def _grams(runs: CountRuns, lat_a: np.ndarray, lat_b: np.ndarray, n_entities: int) -> tuple[np.ndarray, np.ndarray]:
    """The Grams ``q'q`` and right-hand sides ``q'y`` of every entity of a mode, in entity order.

    ``runs`` is the mode's :meth:`SparseTensor.count_runs` layout. ``q`` is
    gathered for a block of whole entities at a time, at most
    ``_BLOCK_DOUBLES`` values unless one entity alone needs more, and each
    stretch of equal-count entities in a block is one stacked ``(m, c, D)``
    product, scattered to entity order. Each entity's cells are summed in
    the same order whatever the block, so its Gram does not depend on the
    blocks. The block buffers are freed on return, before the caller
    factors the Grams.
    """
    n_latent = lat_a.shape[1]
    grams = np.empty((n_entities, n_latent, n_latent))
    rhs = np.empty((n_entities, n_latent))
    budget = max(1, _BLOCK_DOUBLES // n_latent)  # cells per block
    offsets = runs.offsets.tolist()
    starts = runs.starts.tolist()
    # Blocks reuse two buffers, as a fresh large array per block costs page
    # faults. The caller's dims check keeps every index in range, so "clip"
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
            entities = runs.entities[lo:hi]
            grams[entities] = q_t @ q
            rhs[entities] = (q_t @ y_block[piece].reshape(hi - lo, count, 1))[..., 0]
        first = end
    return grams, rhs


def sample_mode_latents(state: ModelState, tensor: SparseTensor, mode: int) -> np.ndarray:
    """Redraw every latent row of one mode, for every chain, from its full conditional.

    ``tensor`` is the chains' :func:`~trialtensor.tensor.block_union`. Rows
    are conditionally independent given the other two modes: a row's
    posterior precision is ``P + alpha * sum(q q')`` and its mean solves it
    against ``P m + alpha * sum(y q)``, where ``q`` is the elementwise
    product of the other two modes' rows at an observed cell with value
    ``y`` and ``(m, P)`` is the chain's prior. :func:`_grams` builds every
    ``q'q`` and ``q'y`` of the union at once, with no Python loop per
    entity. Entity order is chain-major, so each chain then adds its prior
    to its contiguous rows and draws its standard-normal block ``z`` from
    its (sweep, mode) stream. For all rows at once the posterior precisions
    ``L L'`` are factored and ``x = L'^-1 (L^-1 b + z)`` is solved in
    panels by :func:`_solve_draw`. An entity with no cells has a zero Gram,
    so its row is drawn from its chain's prior.
    """
    if state.dims != tensor.dims:
        raise DataError(f"state dims {state.dims} do not match tensor dims {tensor.dims}")
    runs = tensor.count_runs(mode)
    lat_a, lat_b = (state.latents[other] for other in _OTHER_MODES[mode])
    n_entities, n_latent = state.latents[mode].shape
    grams, rhs = _grams(runs, lat_a, lat_b, n_entities)
    params = state.params[mode]
    grams *= state.alpha
    rhs *= state.alpha
    z = np.empty_like(rhs)
    bounds = state.offsets[:, mode].tolist()
    for chain, seed in enumerate(state.seeds):
        rows = slice(bounds[chain], bounds[chain + 1])
        grams[rows] += params.precision[chain]
        rhs[rows] += params.precision[chain] @ params.mean[chain]
        StreamTree(seed).stream(state.sweep, ROLE_LATENT, mode).standard_normal(out=z[rows])
    lower = _cholesky(grams, "row posterior precision")
    return _solve_draw(lower, rhs, z)


def gibbs_step(state: ModelState, tensor: SparseTensor) -> ModelState:
    """One lock-step sweep of every chain over their union ``tensor``: per
    mode (target, indication, layer order), sample each chain's
    hyperparameters, then every latent row of that mode."""
    if state.dims != tensor.dims:
        raise DataError(f"state dims {state.dims} do not match tensor dims {tensor.dims}")
    for mode in range(3):
        rngs = [StreamTree(seed).stream(state.sweep, ROLE_HYPER, mode) for seed in state.seeds]
        blocks = np.split(state.latents[mode], state.offsets[1:-1, mode])
        state.params[mode] = sample_mode_hyperparams(blocks, state.hyperprior, rngs)
        state.latents[mode] = sample_mode_latents(state, tensor, mode)
    state.sweep += 1
    return state


# --------------------------------------------------------------------------
# Retained samples and prediction.

Sample = tuple[np.ndarray, np.ndarray, np.ndarray]


def run(
    state: ModelState, tensors: Sequence[SparseTensor], schedule: SamplerSchedule
) -> list[list[Sample]]:
    """Burn in, then sample every chain in lock-step, retaining every ``thin``-th post-burn-in sweep.

    ``tensors[c]`` is chain ``c``'s training tensor. Sweeps are numbered
    1-based after burn-in and a sweep is retained when its number is an
    exact multiple of ``thin``, so the retained count is
    ``schedule.retained == samples // thin``. Returns, per chain, its
    retained ``(U, V, W)`` latent triples in retention order, the same
    arrays a run of that chain alone returns; :func:`gibbs_step` assigns
    fresh arrays, so later sweeps never alter a retained triple.
    """
    if schedule.retained == 0:
        raise ValueError(
            f"schedule retains no samples (samples={schedule.samples} < thin={schedule.thin})"
        )
    chain_dims = [tuple(dims) for dims in np.diff(state.offsets, axis=0).tolist()]
    if chain_dims != [tensor.dims for tensor in tensors]:
        raise DataError(f"chain dims {chain_dims} do not match tensor dims {[t.dims for t in tensors]}")
    tensor = block_union(tensors)
    for _ in range(schedule.burnin):
        gibbs_step(state, tensor)
    retained = []
    for sweep_number in range(1, schedule.samples + 1):
        gibbs_step(state, tensor)
        if sweep_number % schedule.thin == 0:
            retained.append(state.chain_latents())
    return [list(samples) for samples in zip(*retained)]


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
    (seed,) = state.seeds  # a checkpoint holds one chain
    for mode, filename in enumerate(_CHECKPOINT_FILES):
        with atomic_write(directory / filename) as handle:
            for sample in samples:
                handle.writelines(float_rows(sample[mode]))
    manifest = {
        "n_latent": state.n_latent,
        "alpha": state.alpha,
        "burnin": schedule.burnin,
        "samples": schedule.samples,
        "thin": schedule.thin,
        "seed": seed,
        "retained": len(samples),
    }
    write_json(directory / "manifest.json", manifest)


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
