"""Gibbs-sampled Bayesian factorization of the rank-3 observation tensor.

The model places a Gaussian likelihood with fixed precision ``alpha`` on each
observed cell, whose mean is the three-way latent product
``sum_d U[i,d] * V[j,d] * W[k,d]``. Each mode's latent rows get a Gaussian
prior ``Normal(mu, Lambda^-1)``, and ``(mu, Lambda)`` get one fixed
conjugate Gaussian-Wishart prior, the BPMF default of Salakhutdinov &
Mnih (2008): ``mu0 = 0``, ``beta0 = 2``, ``W0 = I`` and ``nu0 = D``
(:func:`sample_mode_hyperparams` gives the conjugate update and how
``(mu, Lambda)`` are drawn from one factorization). So the full conditional
of every quantity is available in closed form and one sweep samples, per
mode, hyperparameters from the mode's current rows, then all of its latent
rows given them. A mode's
hyperparameters read only its own rows, which the sweep has not redrawn
before that mode's turn, so the sweep draws all three modes' priors first,
in one stacked call. The priors live only within the sweep, so a chain's
state is its latent rows alone.

A :class:`ModelState` holds one or more independent chains that advance in
lock-step over the block-diagonal union of their training tensors: their
latent rows, stacked chain-major, each chain's seed, and the row offsets
that address each chain's rows. :func:`count_runs` lays out the union's
cells of each mode once per :func:`run`, and every sweep reads that
layout. Each sweep draws each mode once for every chain. Given
the other two modes, the latent rows of a mode are independent, so each
mode is redrawn by one stacked Cholesky factorization and one forward and
back substitution over the rows of all chains. Each row's Gram and
right-hand side are one ``(D + 1, D)`` product ``[q | y]' q`` of its cells'
other-mode latent products ``q`` and values ``y``, both scaled by
``sqrt(alpha)``, stacked per run of equal-count entities across the union
in that count-run order, and no gather outgrows a fixed block of cells.
Each row's chain prior is added through a chain index, and the drawn rows
return to entity order once. The hyperparameter draw keeps only each
chain's scatter product of each mode in a loop; the means, posterior
inverse scales, Bartlett factors, factorizations, products and solves are
stacked over modes and chains. Every Cholesky factor comes from
:func:`_cholesky`, which raises :class:`~trialtensor.errors.NumericalError`
for a matrix that is not SPD after one jitter retry or whose factor is not
finite. The draw functions draw nothing: they are deterministic
functions of the noise they are given.
:func:`_sweep_noise` draws each chain's noise for a sweep from its stream
``(seed, sweep + 1)`` of one :class:`~trialtensor.rng.StreamTree`, re-keyed
chain by chain, and every stacked step treats each row or chain alone, so a
chain draws the same numbers alone or in a batch. A single chain is the
one-chain case of the same code.

:func:`run` starts one chain per training tensor with :func:`init_chains`
and samples them together. The model is the list of ``(U, V, W)`` triples
it retains for a chain; a checkpoint stores exactly them, and
:func:`predict_slice` scores a layer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .io import check, float_rows, read_header, read_json, read_tsv, write_json, write_tsv
from .rng import N_SWEEPS, StreamTree, check_seed
from .tensor import SparseTensor

_JITTER_REL = 1e-6
# Strength beta0 with which the Gaussian-Wishart prior's zero mean ties down each mode's mean.
_BETA0 = 2.0
# Largest block of other-mode products ``q`` gathered at once, in doubles:
# 256 KiB, so 1024 cells at D=32 or 4096 at D=8 (two such buffers, each with
# one more column, for ``y``). A larger entity is gathered in chunks of that many cells.
_BLOCK_DOUBLES = 2**15
# Each mode's two other modes, lower mode first: whose coordinates are a
# mode's CountRuns.index_a and index_b.
OTHER_MODES = ((1, 2), (0, 2), (0, 1))


@dataclass
class ModelState:
    """Latent rows of chains sampled in lock-step, and their seeds.

    Chain ``c`` owns rows ``offsets[c, mode]:offsets[c + 1, mode]`` of
    ``latents[mode]`` (chain-major) and the random streams of seed
    ``seeds[c]``. ``dims`` are the sums of the chains' dims.
    """

    latents: list[np.ndarray]
    alpha: float
    seeds: tuple[int, ...]
    offsets: np.ndarray
    sweep: int = 0

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(mat.shape[0] for mat in self.latents)

    @property
    def n_latent(self) -> int:
        return self.latents[0].shape[1]

    def chain_latents(self) -> list[Sample]:
        """Each chain's current ``(U, V, W)``, as views of ``latents``."""
        bounds = self.offsets.tolist()
        return [tuple(mat[lo[m] : hi[m]] for m, mat in enumerate(self.latents)) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class SamplerSchedule:
    """Burn-in, post-burn-in sweep count, and thinning interval; at least one sample, at most ``N_SWEEPS`` sweeps."""

    burnin: int = 500
    samples: int = 3500
    thin: int = 350

    def __post_init__(self):
        if self.burnin < 0 or self.samples < 1 or self.thin < 1:
            raise ValueError(f"invalid schedule {self}")
        if self.samples < self.thin:
            raise ValueError(f"schedule retains no samples (samples={self.samples} < thin={self.thin})")
        if self.burnin + self.samples > N_SWEEPS:
            raise ValueError(f"schedule of {self.burnin + self.samples} sweeps is over the 2**32 the streams allow")

    @property
    def retained(self) -> int:
        return self.samples // self.thin


def init_chains(
    chain_dims: Sequence[Sequence[int]],
    n_latent: int,
    seeds: Sequence[int],
    alpha: float = 5.0,
) -> ModelState:
    """Fresh state of one chain per ``(dims, seed)``: latents i.i.d. standard normal.

    ``seeds`` is any sequence of integers in ``[0, 2**64)``, a numpy array
    too; a seed outside that range raises ``ValueError`` before any draw.
    """
    if n_latent < 1:
        raise ValueError("n_latent must be at least 1")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    seeds = tuple(map(check_seed, seeds))
    if len(chain_dims) != len(seeds) or not seeds:
        raise ValueError(f"need one seed per chain, got {len(seeds)} for {len(chain_dims)} chains")
    offsets = np.zeros((len(seeds) + 1, 3), dtype=np.int64)
    offsets[1:] = np.cumsum(np.asarray(chain_dims, dtype=np.int64).reshape(-1, 3), axis=0)
    offsets.flags.writeable = False
    latents = [np.empty((int(rows), n_latent)) for rows in offsets[-1]]
    bounds, tree = offsets.tolist(), StreamTree()
    for chain, seed in enumerate(seeds):  # a chain's rows of each mode in turn, from its stream 0
        rng = tree.stream(seed, 0)
        for mode, mat in enumerate(latents):
            rng.standard_normal(out=mat[bounds[chain][mode] : bounds[chain + 1][mode]])
    return ModelState(latents=latents, alpha=float(alpha), seeds=seeds, offsets=offsets)


def _cholesky(mats: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a ``(D, D)`` matrix or of each in an ``(n, D, D)`` stack.

    Only the matrices whose factorization fails get the jitter retry, one
    retry with ``1e-6 * trace / D`` added to the diagonal; a second failure
    raises :class:`NumericalError`, and so does a factor with a non-finite
    diagonal. LAPACK raises nothing for a NaN matrix, but a non-finite
    entry anywhere in the lower triangle it reads either fails the
    factorization or reaches the factor's diagonal, so only the diagonal
    is checked.
    """
    try:
        lower = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        if mats.ndim == 3:
            return np.stack([_cholesky(mat, what) for mat in mats])
        dim = mats.shape[0]
        eps = _JITTER_REL * float(np.trace(mats)) / dim
        try:
            lower = np.linalg.cholesky(mats + (eps if eps > 0.0 else _JITTER_REL) * np.eye(dim))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{what} not SPD after jitter") from exc
    if not np.isfinite(np.diagonal(lower, axis1=-2, axis2=-1)).all():
        raise NumericalError(f"{what} has a non-finite Cholesky factor")
    return lower


def _solve_draw(lower: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``x = L'^-1 (L^-1 b + z)`` for each lower factor ``L`` of an ``(n, D, D)`` stack.

    Forward, then back substitution, one column at a time over the whole
    stack: each step is one ``einsum`` of every row's solved part with its
    factor's row, then one subtraction and one division. Each row's
    arithmetic depends on that row alone, so a row solved in a stack equals
    the row solved alone, bit for bit.
    """
    dim = lower.shape[1]
    rows = rhs.copy()  # each column is overwritten by its solution
    for col in range(dim):
        done = np.einsum("nk,nk->n", lower[:, col, :col], rows[:, :col])
        rows[:, col] = (rows[:, col] - done) / lower[:, col, col]
    rows += z
    for col in reversed(range(dim)):
        done = np.einsum("nk,nk->n", lower[:, col + 1 :, col], rows[:, col + 1 :])
        rows[:, col] = (rows[:, col] - done) / lower[:, col, col]
    return rows


def sample_mode_hyperparams(
    latents: np.ndarray, bounds: np.ndarray, chi: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-Wishart posterior draw of each chain given its rows, a deterministic function of its noise.

    ``latents`` holds the rows of every chain, chain-major; chain ``c``
    owns rows ``bounds[c]:bounds[c + 1]``, with ``bounds[0] == 0`` and
    ``bounds[-1] == len(latents)``. Its noise is ``chi[c]``, chi-square
    draws with ``nu_n - i`` degrees of freedom for the Bartlett diagonal
    ``i = 0 .. D - 1``, and ``normals[c]``, standard normals holding the
    Bartlett lower triangle (row-major) and then the mean's ``z``.
    Conjugate update under the fixed prior (``mu0 = 0``,
    ``beta0 = 2``, ``W0 = I``, ``nu0 = D``): with ``n`` rows, sample mean
    ``xbar`` and centered scatter ``n * S``, the posterior has strength
    ``beta_n = 2 + n``, degrees of freedom ``nu_n = D + n``, mean
    ``mu_n = n * xbar / beta_n`` and inverse scale
    ``W_n^-1 = I + n * S + (2 * n / beta_n) xbar xbar'``. The precision
    ``Lambda`` is drawn from ``Wishart(W_n, nu_n)``, then the mean from
    ``Normal(mu_n, (beta_n * Lambda)^-1)`` through the same factors: with
    ``W_n^-1 = L L'`` and Bartlett factor ``B``, ``Lambda = A A'`` for
    ``A = L'^-1 B``, so ``mu = mu_n + A'^-1 z / sqrt(beta_n)``, that is
    ``mu_n + L B'^-1 z / sqrt(beta_n)``, has covariance
    ``(A A')^-1 / beta_n = (beta_n * Lambda)^-1`` with no second
    factorization.
    Only each chain's scatter product is taken chain by chain; the means,
    inverse scales, Bartlett factors, factorizations, inverses, Wishart
    products and triangular solves are stacked over chains, so the chains
    may be any mix of chains and modes.
    Returns the prior ``(means, precisions)`` for :func:`sample_mode_latents`,
    ``(n_chains, D)`` and ``(n_chains, D, D)``.
    """
    counts = np.diff(bounds)
    if not (counts >= 1).all():
        raise ValueError("empty mode: cannot update hyperparameters")
    dim = latents.shape[1]
    xbar = np.add.reduceat(latents, bounds[:-1], axis=0) / counts[:, None]
    centered = latents - np.repeat(xbar, counts, axis=0)
    scatter = np.empty((len(counts), dim, dim))
    for chain, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        np.matmul(centered[lo:hi].T, centered[lo:hi], out=scatter[chain])
    lower_rows, lower_cols = np.tril_indices(dim, k=-1)
    beta_post = _BETA0 + counts
    scale_inv = np.eye(dim) + scatter + (_BETA0 * counts / beta_post)[:, None, None] * (
        xbar[:, :, None] * xbar[:, None, :]
    )
    scale_inv = (scale_inv + scale_inv.transpose(0, 2, 1)) / 2.0
    # With scale_inv = L L', Lambda = A A' for A = L'^-1 B.
    inv_lower = _cholesky(scale_inv, "posterior inverse scale")
    bartlett = np.zeros((len(counts), dim, dim))
    bartlett[:, np.arange(dim), np.arange(dim)] = np.sqrt(chi)
    bartlett[:, lower_rows, lower_cols] = normals[:, : len(lower_rows)]
    factor = np.linalg.inv(inv_lower).transpose(0, 2, 1) @ bartlett
    precision = factor @ factor.transpose(0, 2, 1)
    precision = (precision + precision.transpose(0, 2, 1)) / 2.0
    shift = inv_lower @ np.linalg.solve(bartlett.transpose(0, 2, 1), normals[:, len(lower_rows) :, None])
    mean = counts[:, None] * xbar / beta_post[:, None] + shift[..., 0] / np.sqrt(beta_post)[:, None]
    return mean, precision


class CountRuns(NamedTuple):
    """One mode's cells laid out by entity, entities in (cell count, id) order.

    ``entities`` holds the sorted entity ids; the cells of ``entities[e]``
    are ``offsets[e]:offsets[e + 1]`` of ``index_a``, ``index_b`` (their
    coordinates in the two other modes, lower mode first) and ``values``,
    in coordinate order. Runs of equal-count entities start at the
    positions in ``starts``, which ends with ``len(entities)``; entities
    without cells form the first run when there are any.
    """

    entities: np.ndarray
    offsets: np.ndarray
    starts: np.ndarray
    index_a: np.ndarray
    index_b: np.ndarray
    values: np.ndarray


def count_runs(tensors: Sequence[SparseTensor], offsets: np.ndarray) -> tuple[CountRuns, CountRuns, CountRuns]:
    """Each mode's :class:`CountRuns` of the block-diagonal union of the chains' training ``tensors``.

    Chain ``c``'s entity ``e`` of each mode is union entity
    ``offsets[c, mode] + e``, with ``offsets`` those of the chains'
    :class:`ModelState`. No cell links two chains, the chains' entities
    follow chain order and each tensor keeps its cells in coordinate order,
    so the chain-major concatenation of the shifted cells is already the
    union in coordinate order: each union entity holds exactly its chain
    entity's cells, in the same order.
    """
    coords = np.concatenate([tensor.coords + offset for tensor, offset in zip(tensors, offsets)])
    values = np.concatenate([tensor.values for tensor in tensors])
    layout = []
    for mode, (other_a, other_b) in enumerate(OTHER_MODES):
        counts = np.bincount(coords[:, mode], minlength=offsets[-1, mode])
        entities = np.argsort(counts, kind="stable")
        rank = np.empty_like(entities)
        rank[entities] = np.arange(entities.size)
        # Cells by their entity's rank; each entity's cells stay in coordinate order.
        cells = np.argsort(rank[coords[:, mode]], kind="stable")
        sorted_counts = counts[entities]
        cell_offsets = np.concatenate([[0], np.cumsum(sorted_counts)])
        starts = np.concatenate([[0], np.flatnonzero(np.diff(sorted_counts)) + 1, [len(entities)]])
        runs = CountRuns(entities, cell_offsets, starts, coords[cells, other_a], coords[cells, other_b], values[cells])
        for array in runs:
            array.flags.writeable = False
        layout.append(runs)
    return tuple(layout)


def _row_posteriors(
    state: ModelState, runs: CountRuns, mode: int, prior: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's posterior precision ``P + alpha q'q`` and right-hand side ``P m + alpha q'y``, in count-run order.

    ``runs`` is the mode's :func:`count_runs` layout, so row
    ``r`` of each result belongs to entity ``runs.entities[r]``. Each cell
    is gathered as a row ``[q | y]``, both scaled by ``sqrt(alpha)``, in
    blocks of whole entities of at most ``_BLOCK_DOUBLES // D`` cells; each
    stretch of equal-count entities in a block is one stacked product
    ``[q | y]' q`` written into its rows' ``(D + 1, D)`` systems, the Gram
    above the right-hand side. An entity over the budget is gathered in
    budget-sized chunks from its first cell, their products summed in
    order, so no row depends on the blocks or the other chains. Each row
    then gets its chain's ``(P, P m)`` from ``prior = (means, precisions)``
    through its chain index. Returns two views of the systems.
    """
    root_alpha = np.sqrt(state.alpha)
    other_a, other_b = OTHER_MODES[mode]
    n_entities, n_latent = state.latents[mode].shape
    # The other modes' rows with a zero spare column, which each gathered block fills with y. Both
    # carry it, so a block's product is one contiguous multiply, not a strided loop per row.
    lat_a, lat_b = (np.zeros((state.dims[other], n_latent + 1)) for other in (other_a, other_b))
    np.multiply(state.latents[other_a], root_alpha, out=lat_a[:, :n_latent])
    lat_b[:, :n_latent] = state.latents[other_b]
    means, precisions = prior
    prior_rhs = np.matmul(precisions, means[..., None])[..., 0]
    chain = np.searchsorted(state.offsets[:, mode], runs.entities, side="right") - 1
    systems = np.empty((n_entities, n_latent + 1, n_latent))
    grams, rhs = systems[:, :n_latent], systems[:, n_latent]
    budget = max(1, _BLOCK_DOUBLES // n_latent)  # cells per block
    offsets, starts = runs.offsets.tolist(), runs.starts.tolist()
    # Blocks reuse two buffers: a fresh large array per block costs page faults. The caller's
    # dims check keeps every index in range, so "clip" never clips; it spares a buffered check.
    qy_buffer, b_buffer = np.empty((2, min(budget, offsets[-1]), n_latent + 1))

    def gather(lo: int, hi: int) -> np.ndarray:
        # The rows [q | sqrt(alpha) y] of cells lo:hi.
        qy = np.take(lat_a, runs.index_a[lo:hi], axis=0, out=qy_buffer[: hi - lo], mode="clip")
        qy *= np.take(lat_b, runs.index_b[lo:hi], axis=0, out=b_buffer[: hi - lo], mode="clip")
        np.multiply(runs.values[lo:hi], root_alpha, out=qy[:, n_latent])
        return qy

    first = 0
    while first < n_entities:
        # A block: the most whole entities within budget, or one entity over it.
        base = offsets[first]
        end = max(first + 1, bisect.bisect_right(offsets, base + budget) - 1)
        if offsets[end] - base > budget:
            chunks = (gather(lo, min(lo + budget, offsets[end])) for lo in range(base, offsets[end], budget))
            systems[first] = sum(np.matmul(qy.T, qy[:, :n_latent]) for qy in chunks)
        else:
            qy_block = gather(base, offsets[end])
            # One stacked product per stretch of equal-count entities in the block.
            cuts = starts[bisect.bisect_right(starts, first) : bisect.bisect_left(starts, end)]
            for lo, hi in zip([first, *cuts], [*cuts, end]):
                count = (offsets[hi] - offsets[lo]) // (hi - lo)  # not -1: a stretch may hold no cells
                qy = qy_block[offsets[lo] - base : offsets[hi] - base].reshape(hi - lo, count, n_latent + 1)
                np.matmul(qy.transpose(0, 2, 1), qy[..., :n_latent], out=systems[lo:hi])
        grams[first:end] += precisions[chain[first:end]]
        rhs[first:end] += prior_rhs[chain[first:end]]
        first = end
    return grams, rhs


def sample_mode_latents(
    state: ModelState, runs: Sequence[CountRuns], mode: int, prior: tuple[np.ndarray, np.ndarray], z: np.ndarray
) -> np.ndarray:
    """Redraw every latent row of one mode, for every chain, from its full conditional.

    ``runs`` is the chains' :func:`count_runs` layout and
    ``prior`` the ``(means, precisions)`` that
    :func:`sample_mode_hyperparams` drew for this mode in the same sweep. Rows
    are conditionally independent given the other two modes: a row's
    posterior precision is ``P + alpha * sum(q q')`` and its mean solves it
    against ``P m + alpha * sum(y q)``, where ``q`` is the elementwise
    product of the other two modes' rows at an observed cell with value
    ``y`` and ``(m, P)`` is the chain's prior. :func:`_row_posteriors`
    builds every row's system of the union in count-run order; ``z`` holds
    each row's standard normals, in entity order. For all rows at once the
    precisions ``L L'`` are factored and ``x = L'^-1 (L^-1 b + z)`` is
    solved in :func:`_solve_draw`; the rows then return to entity order.
    An entity with no cells has a zero Gram, so its row is drawn from its
    chain's prior. State dims unlike the layout's entity counts raise
    :class:`DataError` first.
    """
    counts = tuple(len(mode_runs.entities) for mode_runs in runs)
    if state.dims != counts:
        raise DataError(f"state dims {state.dims} do not match the layout's entity counts {counts}")
    entities = runs[mode].entities
    grams, rhs = _row_posteriors(state, runs[mode], mode, prior)
    lower = _cholesky(grams, "row posterior precision")
    rows = np.empty_like(rhs)
    rows[entities] = _solve_draw(lower, rhs, z[entities])
    return rows


def _sweep_noise(state: ModelState) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every chain's random draws for sweep ``state.sweep``, from its stream ``state.sweep + 1``.

    Returns, per mode and chain, the prior's chi-squares ``(3, n_chains, D)``
    and normals ``(3, n_chains, D(D-1)/2 + D)`` in the layout
    :func:`sample_mode_hyperparams` reads, and per mode the standard normals
    of every latent row, chain-major like ``state.latents``. A chain draws,
    in order, its chi-squares of all three modes, its three priors' normals,
    then each mode's row normals, so its draws depend only on its seed, the
    sweep and its dims.
    """
    dim = state.n_latent
    chi_dof = (dim + np.diff(state.offsets, axis=0).T)[..., None] - np.arange(dim)
    chi = np.empty(chi_dof.shape)
    normals = np.empty(chi.shape[:2] + (dim * (dim + 1) // 2,))  # each Bartlett lower triangle, then z
    z = [np.empty_like(mat) for mat in state.latents]
    bounds, tree = state.offsets.tolist(), StreamTree()
    for chain, seed in enumerate(state.seeds):
        rng = tree.stream(seed, state.sweep + 1)
        chi[:, chain] = rng.chisquare(chi_dof[:, chain])
        normals[:, chain] = rng.standard_normal((3, normals.shape[2]))
        for mode in range(3):
            rng.standard_normal(out=z[mode][bounds[chain][mode] : bounds[chain + 1][mode]])
    return chi, normals, z


def gibbs_step(state: ModelState, runs: Sequence[CountRuns]) -> ModelState:
    """One lock-step sweep of every chain over their :func:`count_runs` layout ``runs``, from :func:`_sweep_noise`.

    One :func:`sample_mode_hyperparams` call draws every chain's prior of all
    three modes, over their rows concatenated with ``(mode, chain)`` bounds;
    then each mode in turn has its rows redrawn given its prior. A layout
    of other entity counts fails the first mode's :func:`sample_mode_latents`,
    so it changes no row.
    """
    chi, normals, z = _sweep_noise(state)
    n_chains = len(state.seeds)
    first_rows = np.cumsum(state.dims) - state.dims  # each mode's first row in the concatenation
    bounds = np.append(0, (state.offsets[1:] + first_rows).T)
    means, precisions = sample_mode_hyperparams(
        np.concatenate(state.latents), bounds, chi.reshape(3 * n_chains, -1), normals.reshape(3 * n_chains, -1)
    )
    for mode in range(3):
        chains = slice(mode * n_chains, (mode + 1) * n_chains)
        state.latents[mode] = sample_mode_latents(state, runs, mode, (means[chains], precisions[chains]), z[mode])
    state.sweep += 1
    return state


# --------------------------------------------------------------------------
# Retained samples and prediction.

Sample = tuple[np.ndarray, np.ndarray, np.ndarray]


def run(
    tensors: Iterable[SparseTensor], n_latent: int, seeds: Sequence[int], alpha: float, schedule: SamplerSchedule
) -> list[list[Sample]]:
    """Burn in, then sample every chain in lock-step, retaining every ``thin``-th post-burn-in sweep.

    The ``c``-th of ``tensors`` is chain ``c``'s training tensor and
    ``seeds[c]`` its seed; :func:`init_chains` starts the chains with
    ``n_latent`` and the observation precision ``alpha``, and raises its
    ``ValueError`` for a seed count unlike the tensor count. The chains'
    cells are laid out once, by :func:`count_runs`. Sweeps are
    numbered 1-based after burn-in and a sweep is retained when its number
    is an exact multiple of ``thin``, so the retained count is
    ``schedule.retained == samples // thin``. Returns, per chain, its
    retained ``(U, V, W)`` latent triples in retention order, the same
    arrays a run of that chain alone returns; :func:`gibbs_step` assigns
    fresh arrays, so later sweeps never alter a retained triple.
    """
    tensors = list(tensors)
    state = init_chains([tensor.dims for tensor in tensors], n_latent, seeds, alpha)
    runs = count_runs(tensors, state.offsets)
    del tensors  # the runs hold the cells; tensors a caller passed as a generator are freed now
    for _ in range(schedule.burnin):
        gibbs_step(state, runs)
    retained = []
    for sweep_number in range(1, schedule.samples + 1):
        gibbs_step(state, runs)
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


def _latent_columns(n_latent: int) -> list[str]:
    """The header of a checkpoint TSV: one column per latent dimension."""
    return [f"latent_{d}" for d in range(n_latent)]


def save_checkpoint(
    directory: str | Path,
    samples: Sequence[Sample],
    seed: int,
    alpha: float,
    schedule: SamplerSchedule,
) -> None:
    """Write one chain's retained samples, drawn with ``seed``, ``alpha`` and ``schedule``, as a checkpoint."""
    directory = Path(directory)
    n_latent = samples[0][0].shape[1]
    header = _latent_columns(n_latent)
    for mode, filename in enumerate(_CHECKPOINT_FILES):
        write_tsv(directory / filename, header, (text for sample in samples for text in float_rows(sample[mode])))
    manifest = {
        "n_latent": n_latent,
        "alpha": alpha,
        "burnin": schedule.burnin,
        "samples": schedule.samples,
        "thin": schedule.thin,
        "seed": seed,
        "retained": len(samples),
    }
    write_json(directory / "manifest.json", manifest)


def load_checkpoint(directory: str | Path) -> tuple[list[Sample], Mapping]:
    """The retained samples and the manifest of a checkpoint directory.

    ``predict_slice(samples, 0)`` rebuilds the scores that ``train`` wrote
    to ``predictions.tsv``, bit for bit.
    """
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    retained, n_latent = (manifest.get(key) if isinstance(manifest, dict) else None for key in ("retained", "n_latent"))
    if type(retained) is not int or type(n_latent) is not int:  # JSON true, 2.0 and "2" are not counts
        raise DataError(f"{directory}: manifest needs integer 'retained' and 'n_latent'")
    if retained < 1 or n_latent < 1:
        raise DataError(f"{directory}: manifest 'retained' and 'n_latent' must be at least 1")
    stacks = []
    for path in (directory / name for name in _CHECKPOINT_FILES):
        # Counted first, so a huge n_latent never becomes a list of names.
        if len(header := read_header(path)) != n_latent or header != _latent_columns(n_latent):
            raise DataError(f"{path}: the header is not the {n_latent} columns latent_0 to latent_{n_latent - 1}")
        *columns, lines = read_tsv(path, dict.fromkeys(header, float))
        if not len(lines) or len(lines) % retained:
            raise DataError(f"{path}: {len(lines)} rows are not {retained} stacked samples of at least one row")
        stack = np.column_stack(columns)
        check(path, lines, np.isfinite(stack).all(axis=1), lambda r: f"non-finite latent value in {stack[r].tolist()}")
        stacks.append(stack.reshape(retained, -1, n_latent))
    return list(zip(*stacks)), manifest
