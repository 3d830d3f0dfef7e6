import copy
import dataclasses
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import solve_triangular
from hypothesis import strategies as st

from trialtensor import DataError, NumericalError, SamplerSchedule, SparseTensor, load_checkpoint, predict_slice, run
from trialtensor import sampler
from trialtensor.sampler import (
    gibbs_step, init_chains, sample_mode_hyperparams, sample_mode_latents, save_checkpoint,
)
from trialtensor.rng import N_SWEEPS, StreamTree

from conftest import BYTE_EDITS, EDITS, FIXTURE_ENTRIES, splice, tensor_from_entries


def _rng(seed=0):
    return np.random.default_rng(seed)


def chain_offsets(tensors):
    """The ``ModelState.offsets`` of chains with these tensors' dims: running sums from 0."""
    return np.cumsum([(0, 0, 0)] + [tensor.dims for tensor in tensors], axis=0)


def layout(*tensors):
    """Each mode's count runs of the chains with training ``tensors``, as ``run`` lays them out."""
    return sampler.count_runs(tensors, chain_offsets(tensors))


def block_union(tensors):
    """Oracle of the chains' union: one validated tensor, chain ``c``'s entities shifted by its offsets.

    The blocks go in last chain first, so only the tensor's own sort puts the cells in coordinate order.
    """
    offsets = chain_offsets(tensors)
    coords = np.concatenate([tensor.coords + offset for tensor, offset in zip(tensors, offsets)][::-1])
    return SparseTensor(offsets[-1], coords, np.concatenate([tensor.values for tensor in tensors][::-1]))


class TestInitModel:
    def test_latent_shapes(self):
        state = init_chains([(3, 2, 4)], 32, [0])
        assert state.latents[0].shape == (3, 32)
        assert state.latents[1].shape == (2, 32)
        assert state.latents[2].shape == (4, 32)
        assert state.n_latent == 32

    def test_deterministic(self):
        a = init_chains([(5, 4, 3)], 8, [9])
        b = init_chains([(5, 4, 3)], 8, [9])
        for mat_a, mat_b in zip(a.latents, b.latents):
            assert np.array_equal(mat_a, mat_b)

    def test_column_means_near_zero(self):
        # Monte Carlo check of the standard-normal initializer.
        state = init_chains([(10_000, 2, 2)], 4, [3])
        means = state.latents[0].mean(axis=0)
        assert np.all(np.abs(means) < 4.0 / np.sqrt(10_000))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_chains([(2, 2, 2)], 0, [0])
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                init_chains([(2, 2, 2)], 4, [0], alpha=alpha)

    @pytest.mark.parametrize("seed", [-1, 2**64, 7 + 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            init_chains([(3, 2, 2), (3, 2, 2)], 2, [0, seed])

    def test_largest_seed_accepted(self):
        state = init_chains([(3, 2, 2)], 2, [2**64 - 1])
        assert state.seeds == (2**64 - 1,)

    def test_numpy_seed_array(self):
        state = init_chains([(3, 2, 2), (2, 2, 3)], 2, np.array([1, 2]))
        assert state.seeds == (1, 2) and all(type(seed) is int for seed in state.seeds)
        expected = init_chains([(3, 2, 2), (2, 2, 3)], 2, [1, 2])
        assert all(np.array_equal(a, b) for a, b in zip(state.latents, expected.latents, strict=True))

    def test_every_seed_checked_before_any_draw(self, monkeypatch):
        taken = []
        stream = StreamTree.stream
        monkeypatch.setattr(StreamTree, "stream", lambda tree, *key: taken.append(key) or stream(tree, *key))
        with pytest.raises(ValueError, match=r"seed 18446744073709551616 outside \[0, 2\*\*64\)"):
            init_chains([(3, 2, 2), (3, 2, 2)], 2, np.array([0, 2**64], dtype=object))
        assert taken == []

    def test_one_stream_tree_for_all_chains(self, monkeypatch):
        built = []

        class CountedTree(StreamTree):
            __slots__ = ()

            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(sampler, "StreamTree", CountedTree)
        state = init_chains([(3, 2, 2)] * 1000, 2, range(1000))
        assert len(built) == 1
        gibbs_step(state, layout(*[tensor_from_entries((3, 2, 2), [(0, 0, 0, 0.5)])] * 1000))
        assert len(built) == 2

    def test_state_is_plain_data(self, tiny_tensor):
        # The state holds no random generator, so a deep copy continues exactly like the original.
        assert [field.name for field in dataclasses.fields(sampler.ModelState)] == [
            "latents", "alpha", "seeds", "offsets", "sweep"
        ]
        state = init_chains([tiny_tensor.dims], 3, [4])
        for _ in range(2):
            gibbs_step(state, layout(tiny_tensor))
        copied = copy.deepcopy(state)
        for _ in range(3):
            gibbs_step(state, layout(tiny_tensor))
            gibbs_step(copied, layout(tiny_tensor))
        assert copied.sweep == state.sweep == 5
        assert all(np.array_equal(a, b) for a, b in zip(copied.latents, state.latents, strict=True))


BETA0 = 2.0  # the model's fixed prior: mu0 = 0, beta0 = 2, W0 = I, nu0 = D


def posterior_moments(rows):
    """``(beta_n, nu_n, mu_n, W_n)`` of one mode's rows under the fixed prior, written out here.

    ``W_n = (I + n S + (beta0 n / beta_n) xbar xbar')^-1`` and ``nu_n = D + n``.
    """
    n_rows, dim = rows.shape
    xbar = rows.mean(axis=0)
    beta_n = BETA0 + n_rows
    scatter = (rows - xbar).T @ (rows - xbar)
    w_n = np.linalg.inv(np.eye(dim) + scatter + (BETA0 * n_rows / beta_n) * np.outer(xbar, xbar))
    return beta_n, dim + n_rows, n_rows * xbar / beta_n, w_n


def prior_noise(rngs, bounds, dim):
    """Each chain's prior noise ``(chi, normals)``, drawn from its generator in turn: the chi-squares, then the normals."""
    chi, normals = [], []
    for rng, count in zip(rngs, np.diff(bounds).tolist()):
        chi.append(rng.chisquare(dim + count - np.arange(dim)))
        normals.append(rng.standard_normal(dim * (dim + 1) // 2))
    return np.array(chi), np.array(normals)


def stacked_draws(rows, n_chains, seed):
    """The sweep's draw ``(means, precisions)`` for ``n_chains`` chains that each hold ``rows`` and share one stream."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 1 << 28]))
    bounds = np.arange(n_chains + 1) * len(rows)
    noise = prior_noise([rng] * n_chains, bounds, rows.shape[1])
    return sample_mode_hyperparams(np.tile(rows, (n_chains, 1)), bounds, *noise)


def whitened_residuals(means, precisions, beta_n, mu_n):
    """``L'(mu - mu_n)`` per chain, with ``beta_n * Lambda = L L'``: standard normal if the draw is right."""
    lower = np.linalg.cholesky(beta_n * precisions)
    return np.einsum("cij,ci->cj", lower, means - mu_n)


def wishart_se(w_n, nu_n, n_draws):
    """Monte Carlo se of the mean of ``n_draws`` Wishart(W, nu) draws: ``Var(L_ij) = nu (W_ij^2 + W_ii W_jj)``."""
    return np.sqrt(nu_n * (w_n**2 + np.outer(np.diag(w_n), np.diag(w_n))) / n_draws)


class TestSampleWishart:
    def test_samples_are_spd(self):
        rows = _rng(1).normal(0.5, 1.0, (5, 3))
        for precision in stacked_draws(rows, 200, 1)[1]:
            np.linalg.cholesky(precision)  # raises if not SPD

    def test_identity_moments_d2(self):
        # Rows at the prior mean leave W_n = I, so the precision is Wishart(I, 2 + 3).
        n = 20_000
        rows = np.zeros((3, 2))
        _, nu_n, _, w_n = posterior_moments(rows)
        assert nu_n == 5 and np.array_equal(w_n, np.eye(2))
        mean = stacked_draws(rows, n, 2)[1].mean(axis=0)
        se = wishart_se(w_n, nu_n, n)
        assert np.all(np.abs(mean - 5.0 * np.eye(2)) < 3 * se)

    def test_scalar_chi_square_moments(self):
        n = 20_000
        rows = np.array([[0.5], [-0.5]])  # xbar 0, n S = 0.5, so W_n = 1 / 1.5 and nu_n = 3
        draws = stacked_draws(rows, n, 3)[1][:, 0, 0]
        scale = 1.0 / 1.5
        # W_n * chi2(3): mean 3 W_n, variance 6 W_n^2
        assert abs(draws.mean() - 3.0 * scale) < 3 * np.sqrt(6.0 * scale**2 / n)
        assert abs(draws.var() - 6.0 * scale**2) < 0.15 * 6.0 * scale**2


class TestSampleMvn:
    def test_identity_covariance(self):
        n = 20_000
        rows = _rng(4).normal(0.8, 0.5, (4, 2))
        beta_n, _, mu_n, _ = posterior_moments(rows)
        residuals = whitened_residuals(*stacked_draws(rows, n, 4), beta_n, mu_n)
        cov = np.cov(residuals.T)
        se = 3.0 / np.sqrt(n)
        assert np.all(np.abs(cov - np.eye(2)) < 3 * se + 0.01)
        assert np.all(np.abs(residuals.mean(axis=0)) < 3.0 / np.sqrt(n))

    def test_correlated_precision(self):
        # Marginally over Lambda, mu - mu_n has covariance E[(beta_n Lambda)^-1] = W_n^-1 / (beta_n (nu_n - D - 1)).
        n = 20_000
        rows = _rng(5).multivariate_normal([0.3, -0.6], [[9.0, 8.1], [8.1, 9.0]], size=8)
        beta_n, nu_n, mu_n, w_n = posterior_moments(rows)
        expected = np.linalg.inv(w_n) / (beta_n * (nu_n - 2 - 1))
        assert abs(expected[0, 1]) > 0.5 * np.sqrt(expected[0, 0] * expected[1, 1])
        cov = np.cov((stacked_draws(rows, n, 5)[0] - mu_n).T)
        assert np.all(np.abs(cov - expected) < 0.05 * np.sqrt(np.outer(np.diag(expected), np.diag(expected))))

    def test_concentration_at_high_precision(self):
        # Many rows at one point: beta_n * Lambda is about n^2, so the mean sits on mu_n.
        rows = np.tile([0.4, -0.2], (2000, 1))
        _, _, mu_n, _ = posterior_moments(rows)
        draws = stacked_draws(rows, 500, 6)[0]
        within = np.all(np.abs(draws - mu_n) < 0.005, axis=1)
        assert within.mean() >= 0.99


def hyperparams_reference(latents, chi, normals):
    """Gaussian-Wishart posterior draw under the fixed prior, written out with ``solve_triangular``.

    ``chi`` sets the Bartlett diagonal; ``normals`` holds the Bartlett lower
    triangle, then the mean's normal block ``z``. With ``W_n^-1 = L L'``,
    ``Lambda = A A'`` for ``A = L'^-1 B``, and the mean is
    ``mu_n + L B'^-1 z / sqrt(beta_n)``.
    """
    n_rows, dim = latents.shape
    xbar = latents.mean(axis=0)
    beta_post = BETA0 + n_rows
    scale_inv = (
        np.eye(dim)
        + (latents - xbar).T @ (latents - xbar)
        + (BETA0 * n_rows / beta_post) * np.outer(xbar, xbar)
    )
    inv_lower = np.linalg.cholesky((scale_inv + scale_inv.T) / 2.0)
    root = solve_triangular(inv_lower, np.eye(dim), lower=True).T
    bartlett = np.diag(np.sqrt(chi))
    tril = np.tril_indices(dim, k=-1)
    bartlett[tril] = normals[: len(tril[0])]
    precision = root @ bartlett @ (root @ bartlett).T
    precision = (precision + precision.T) / 2.0
    mean_post = n_rows * xbar / beta_post
    z = normals[len(tril[0]) :]
    return mean_post + inv_lower @ solve_triangular(bartlett.T, z, lower=False) / np.sqrt(beta_post), precision


class TestModeHyperparams:
    def test_empty_mode_rejected(self):
        with pytest.raises(ValueError, match="empty mode"):
            sample_mode_hyperparams(np.empty((0, 3)), np.array([0, 0]), np.ones((1, 3)), np.zeros((1, 6)))

    def test_posterior_consistency(self):
        # With many rows from a known Gaussian, the sampled precision
        # concentrates on the generating precision.
        rng = _rng(8)
        true_precision = np.array([[2.0, 0.5], [0.5, 1.5]])
        cov = np.linalg.inv(true_precision)
        rows = rng.multivariate_normal(np.zeros(2), cov, size=10_000)
        draws = np.zeros((2, 2))
        n_draws = 200
        bounds = np.array([0, len(rows)])
        for _ in range(n_draws):
            draws += sample_mode_hyperparams(rows, bounds, *prior_noise([rng], bounds, 2))[1][0]
        mean_precision = draws / n_draws
        assert np.all(np.abs(mean_precision - true_precision) <= 0.1 * np.abs(true_precision) + 0.02)

    @pytest.mark.parametrize("dim", [1, 8, 32])
    def test_matches_triangular_solve_reference(self, dim):
        latents = 1.5 * _rng(100 + dim).standard_normal((60, dim)) + 0.3
        bounds = np.array([0, len(latents)])
        chi, normals = prior_noise([_rng(7)], bounds, dim)
        means, precisions = sample_mode_hyperparams(latents, bounds, chi, normals)
        mean, precision = hyperparams_reference(latents, chi[0], normals[0])
        assert np.max(np.abs(precisions[0] - precision)) <= 1e-12
        assert np.max(np.abs(means[0] - mean)) <= 1e-12

    def test_nan_row_is_numerical_error(self):
        rows = np.array([[0.5, np.nan], [0.1, 0.2], [-0.3, 0.4]])
        bounds = np.array([0, 2, 5])
        noise = prior_noise([_rng(), _rng()], bounds, 2)
        with pytest.raises(NumericalError, match="posterior inverse scale has a non-finite Cholesky factor"):
            sample_mode_hyperparams(np.concatenate([np.ones((2, 2)), rows]), bounds, *noise)


def _two_solve_draw(lower, rhs, z):
    """The whole-matrix reference for ``sampler._solve_draw``: two ``np.linalg.solve`` calls."""
    half = np.linalg.solve(lower, rhs[..., None]) + z[..., None]
    return np.linalg.solve(lower.transpose(0, 2, 1), half)[..., 0]


class TestSolveDraw:
    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 16, 17, 32, 33])
    def test_matches_two_solve_reference(self, dim):
        rng = _rng(200 + dim)
        n_rows = 30
        factors = rng.standard_normal((n_rows, dim, dim + 3))
        grams = factors @ factors.transpose(0, 2, 1) / dim + 0.1 * np.eye(dim)
        # Row 1: condition number 1e8. Row 2: rank one, so only the jitter
        # retry of _cholesky factors it.
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        grams[1] = (basis * np.logspace(0, 8, dim)) @ basis.T
        grams[1] = (grams[1] + grams[1].T) / 2.0
        direction = rng.standard_normal(dim)
        grams[2] = 4.0 * np.outer(direction, direction)
        if dim > 1:
            assert np.linalg.cond(grams[1]) > 0.5e8
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(grams[2])
        lower = sampler._cholesky(grams, "test stack")
        rhs = rng.standard_normal((n_rows, dim))
        z = rng.standard_normal((n_rows, dim))
        got = sampler._solve_draw(lower, rhs, z)
        expected = _two_solve_draw(lower, rhs, z)
        # Every row, the ill-conditioned and the jittered one included.
        scale = np.max(np.abs(expected), axis=1)
        assert np.all(np.max(np.abs(got - expected), axis=1) <= 1e-12 * scale)


class TestCholesky:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
    def test_non_finite_entry_anywhere_in_lower_triangle(self, dim, value, stacked):
        # LAPACK reads only the lower triangle; checking the factor's
        # diagonal must catch a non-finite value at every place it reads.
        factor = _rng(300 + dim).standard_normal((dim, dim))
        spd = factor @ factor.T + dim * np.eye(dim)
        for row, col in zip(*np.tril_indices(dim)):
            bad = spd.copy()
            bad[row, col] = value
            mats = np.stack([spd, bad, spd]) if stacked else bad
            with pytest.raises(NumericalError, match="^test matrix (has a non-finite Cholesky factor|not SPD)"):
                sampler._cholesky(mats, "test matrix")


def row_posterior(prior_precision, prior_mean, alpha, q_rows, values):
    """One-row reference: the Gaussian conditional of one latent row given its observed cells.

    ``q_rows`` holds, per observed cell, the elementwise product of the other
    two modes' latent vectors. Posterior precision is
    ``prior_precision + alpha * sum(q q')`` and the posterior mean solves it
    against ``prior_precision @ prior_mean + alpha * sum(value * q)``.
    ``sample_mode_latents`` forms the same quantities for a whole mode of
    every chain at once.
    """
    precision = prior_precision + alpha * (q_rows.T @ q_rows)
    precision = (precision + precision.T) / 2.0
    rhs = prior_precision @ prior_mean + alpha * (q_rows.T @ values)
    try:
        mean = np.linalg.solve(precision, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("row posterior precision is singular") from exc
    return precision, mean


class TestRowPosterior:
    def test_dense_algebra_oracle(self):
        # Brute-force dense construction of the same conditional.
        lam = np.array([[1.5, 0.2], [0.2, 2.0]])
        mu = np.array([0.3, -0.1])
        alpha = 7.0
        q = np.array([[0.5, -1.0], [1.25, 0.75]])
        y = np.array([0.9, 0.2])
        precision, mean = row_posterior(lam, mu, alpha, q, y)
        expected_p = lam + alpha * (np.outer(q[0], q[0]) + np.outer(q[1], q[1]))
        expected_m = np.linalg.inv(expected_p) @ (lam @ mu + alpha * (y[0] * q[0] + y[1] * q[1]))
        assert np.allclose(precision, expected_p, atol=1e-12)
        assert np.allclose(mean, expected_m, atol=1e-12)


def _make_state(tensor, n_latent=2, alpha=5.0, seed=0):
    return init_chains([tensor.dims], n_latent, [seed], alpha=alpha)


_OTHER_MODES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def identity_prior(state):
    """Each chain's zero-mean, identity-precision prior ``(means, precisions)``."""
    n_chains, dim = len(state.seeds), state.n_latent
    return np.zeros((n_chains, dim)), np.tile(np.eye(dim), (n_chains, 1, 1))


def drawn_prior(state, mode):
    """The prior ``(means, precisions)`` the next sweep draws for ``mode``, from that mode's share of its noise."""
    chi, normals, _ = sampler._sweep_noise(state)
    return sample_mode_hyperparams(state.latents[mode], state.offsets[:, mode], chi[mode], normals[mode])


def chain_bounds(state, mode):
    """``(chain, first row, end row)`` of each chain's rows of one mode."""
    bounds = state.offsets[:, mode].tolist()
    return [(chain, bounds[chain], bounds[chain + 1]) for chain in range(len(state.seeds))]


def mode_normals(state, mode):
    """The standard normals of the rows of ``mode`` in the next sweep's noise, chain-major."""
    return sampler._sweep_noise(state)[2][mode]


def fiber_cells(state, tensor, mode, entity):
    """Other-mode products ``q`` and values of one entity's observed cells."""
    other_a, other_b = _OTHER_MODES[mode]
    mask = tensor.coords[:, mode] == entity
    cells = tensor.coords[mask]
    q_rows = state.latents[other_a][cells[:, other_a]] * state.latents[other_b][cells[:, other_b]]
    return q_rows, tensor.values[mask]


def cholesky_draw(mean, precision, z):
    return mean + solve_triangular(np.linalg.cholesky(precision).T, z, lower=False)


def per_row_reference(state, tensor, mode, normals, prior):
    """Row-at-a-time update: row_posterior with the row's chain prior, then a Cholesky draw from ``normals``."""
    means, precisions = prior
    rows = np.empty_like(state.latents[mode])
    for chain, lo, hi in chain_bounds(state, mode):
        for entity in range(lo, hi):
            q_rows, values = fiber_cells(state, tensor, mode, entity)
            precision, mean = row_posterior(precisions[chain], means[chain], state.alpha, q_rows, values)
            rows[entity] = cholesky_draw(mean, precision, normals[entity])
    return rows


def substitution_draw(lower, rhs, z):
    """``L'^-1 (L^-1 b + z)`` for one row, by forward then back substitution, one column at a time."""
    dim = len(rhs)
    half = np.empty(dim)
    for col in range(dim):
        half[col] = (rhs[col] - np.einsum("k,k->", lower[col, :col], half[:col])) / lower[col, col]
    half += z
    row = np.empty(dim)
    for col in reversed(range(dim)):
        row[col] = (half[col] - np.einsum("k,k->", lower[col + 1 :, col], row[col + 1 :])) / lower[col, col]
    return row


def mode_latents_loop_reference(state, tensor, mode, prior):
    """``sample_mode_latents`` one entity at a time, in entity order, with one product per entity.

    Same arithmetic as the blocked update: each cell is a row
    ``[q | sqrt(alpha) y]`` with ``q`` scaled by ``sqrt(alpha)``, and the
    entity's Gram and right-hand side are the ``(D + 1, D)`` product
    ``[q | y]' q``, summed over chunks of ``_BLOCK_DOUBLES // D`` cells
    from its first cell when it has more; then the prior of the chain that
    the entity's index falls in, and substitution row by row.
    """
    other_a, other_b = _OTHER_MODES[mode]
    coords, values = tensor.coords, tensor.values
    order = np.argsort(coords[:, mode], kind="stable")  # each entity's cells in storage order
    offsets = np.searchsorted(coords[order, mode], np.arange(state.latents[mode].shape[0] + 1))
    root_alpha = np.sqrt(state.alpha)
    lat_a, lat_b = state.latents[other_a] * root_alpha, state.latents[other_b]
    (means, precisions), bounds = prior, state.offsets[:, mode]
    n_entities, n_latent = state.latents[mode].shape
    budget = max(1, sampler._BLOCK_DOUBLES // n_latent)
    grams = np.empty((n_entities, n_latent, n_latent))
    rhs = np.empty((n_entities, n_latent))
    for entity in range(n_entities):
        rows = order[offsets[entity] : offsets[entity + 1]]
        q_rows = lat_a[coords[rows, other_a]] * lat_b[coords[rows, other_b]]
        qy = np.column_stack([q_rows, values[rows] * root_alpha])
        if len(rows) <= budget:
            system = qy.T @ qy[:, :n_latent]
        else:
            system = np.zeros((n_latent + 1, n_latent))
            for lo in range(0, len(rows), budget):
                system += qy[lo : lo + budget].T @ qy[lo : lo + budget, :n_latent]
        chain = np.searchsorted(bounds, entity, side="right") - 1
        grams[entity] = system[:n_latent] + precisions[chain]
        rhs[entity] = system[n_latent] + precisions[chain] @ means[chain]
    lower = sampler._cholesky(grams, "row posterior precision")
    z = mode_normals(state, mode)
    return np.array([substitution_draw(lower[entity], rhs[entity], z[entity]) for entity in range(n_entities)])


def _tensor_with_cell_counts(counts, dims, seed):
    """Mode-0 entity ``i`` gets ``counts[i]`` cells at distinct (j, k)."""
    rng = np.random.default_rng(seed)
    coords = [
        (i, *divmod(int(lin), dims[2]))
        for i, count in enumerate(counts)
        for lin in rng.choice(dims[1] * dims[2], size=count, replace=False)
    ]
    return SparseTensor(dims, np.array(coords), rng.uniform(size=len(coords)))


def _assert_batched_matches_per_row(tensor, n_latent, seed):
    state, runs = _make_state(tensor, n_latent=n_latent, alpha=5.0, seed=seed), layout(tensor)
    for _ in range(3):
        gibbs_step(state, runs)
    for mode in range(3):
        prior, normals = drawn_prior(state, mode), mode_normals(state, mode)
        expected = per_row_reference(state, tensor, mode, normals, prior)
        batched = sample_mode_latents(state, runs, mode, prior, normals)
        assert np.max(np.abs(batched - expected)) <= 1e-12


class TestModeLatents:
    def test_nan_in_other_mode_is_numerical_error(self, tiny_tensor):
        state = _make_state(tiny_tensor, n_latent=2, seed=1)
        state.latents[1][0, 1] = np.nan  # indication 0 has cells with targets 0, 1 and 2
        with pytest.raises(NumericalError, match="row posterior precision has a non-finite Cholesky factor"):
            sample_mode_latents(state, layout(tiny_tensor), 0, identity_prior(state), mode_normals(state, 0))

    def test_unobserved_entity_draws_from_prior(self):
        # Entity 0 of mode 0 has no cells; its redraw should follow the mode
        # prior. Averaging over many sweeps checks the prior mean.
        tensor = tensor_from_entries((3, 2, 2), [(1, 0, 0, 0.5), (2, 1, 1, 0.25)])
        state, runs = _make_state(tensor, n_latent=2, seed=1), layout(tensor)
        prior_mean = np.array([1.0, -0.5])
        prior = (prior_mean[None], 4.0 * np.eye(2)[None])
        total = np.zeros(2)
        n = 3000
        for sweep in range(n):
            state.sweep = sweep
            total += sample_mode_latents(state, runs, 0, prior, mode_normals(state, 0))[0]
        avg = total / n
        se = 0.5 / np.sqrt(n)
        assert np.all(np.abs(avg - prior_mean) < 4 * se)

    def test_high_alpha_pins_single_observation(self):
        # D=1, one observation y with other-mode product q: the draw
        # approaches y / q as alpha grows.
        tensor = tensor_from_entries((1, 1, 1), [(0, 0, 0, 0.8)])
        state = _make_state(tensor, n_latent=1, alpha=1e8, seed=2)
        state.latents[1][0, 0] = 2.0
        state.latents[2][0, 0] = 1.0
        new_rows = sample_mode_latents(state, layout(tensor), 0, identity_prior(state), mode_normals(state, 0))
        assert abs(new_rows[0, 0] - 0.8 / 2.0) < 1e-3

    def test_batched_update_equals_per_row_reference(self):
        # Target 0 and indication 4 have no cells, so the prior-only rows go
        # through the same stacked path as the observed ones.
        rng = np.random.default_rng(31)
        entries = [
            (i, j, k, float(rng.uniform()))
            for i in range(1, 7)
            for j in range(4)
            for k in range(3)
            if rng.uniform() < 0.6
        ]
        tensor = tensor_from_entries((7, 5, 3), entries)
        _assert_batched_matches_per_row(tensor, n_latent=4, seed=8)

    def test_batched_update_equals_per_row_reference_beyond_one_block(self):
        # More cells than one default block of q at D=4, so every mode is
        # built from several blocks; targets 0, 17 and 39 have no cells.
        n_latent = 4
        block_cells = sampler._BLOCK_DOUBLES // n_latent
        dims = (40, 30, 30)
        counts = [0 if i in (0, 17, 39) else 890 for i in range(dims[0])]
        tensor = _tensor_with_cell_counts(counts, dims, seed=12)
        assert tensor.n_entries > block_cells
        _assert_batched_matches_per_row(tensor, n_latent=n_latent, seed=9)

    # Mode-0 cell counts. In (count, id) order the five empty entities come
    # first; with a 7-cell budget the first block holds every entity but 5,
    # which alone exceeds a block.
    _BLOCK_COUNTS = [0, 2, 0, 3, 0, 12, 1, 0, 0]

    @pytest.mark.parametrize("block_cells", [1, 2, 7, None])
    def test_blocked_gram_equals_per_entity_loop(self, monkeypatch, block_cells):
        n_latent = 3
        if block_cells is not None:
            monkeypatch.setattr(sampler, "_BLOCK_DOUBLES", block_cells * n_latent)
        tensor = _tensor_with_cell_counts(self._BLOCK_COUNTS, (9, 4, 4), seed=5)
        state, runs = _make_state(tensor, n_latent=n_latent, seed=6), layout(tensor)
        for _ in range(2):
            gibbs_step(state, runs)
        for mode in range(3):
            prior = drawn_prior(state, mode)
            expected = mode_latents_loop_reference(state, tensor, mode, prior)
            assert np.array_equal(sample_mode_latents(state, runs, mode, prior, mode_normals(state, mode)), expected)

    # Mode-0 cell counts with runs of 3 empty, 1, 3, 5 and 1 entities (counts
    # 0, 1, 2, 3, 9); the empty ones are the first, fifth and last entity.
    # Budgets of 1 to 10 cells end blocks inside runs and at their edges.
    _RUN_COUNTS = [0, 3, 2, 3, 0, 2, 3, 3, 9, 2, 1, 3, 0]

    @pytest.mark.parametrize("block_cells", [1, 4, 5, 7, 10, None])
    def test_runs_split_by_blocks_equal_per_entity_loop(self, monkeypatch, block_cells):
        n_latent = 3
        if block_cells is not None:
            monkeypatch.setattr(sampler, "_BLOCK_DOUBLES", block_cells * n_latent)
        tensor = _tensor_with_cell_counts(self._RUN_COUNTS, (13, 5, 4), seed=15)
        runs = layout(tensor)
        assert runs[0].starts.tolist() == [0, 3, 4, 7, 12, 13]
        state = _make_state(tensor, n_latent=n_latent, seed=16)
        for _ in range(2):
            gibbs_step(state, runs)
        for mode in range(3):
            prior = drawn_prior(state, mode)
            expected = mode_latents_loop_reference(state, tensor, mode, prior)
            assert np.array_equal(sample_mode_latents(state, runs, mode, prior, mode_normals(state, mode)), expected)

    @pytest.mark.parametrize("block_cells", [5, None])
    def test_batched_update_equals_per_row_reference_beyond_one_panel(self, monkeypatch, block_cells):
        # D = 20: wider rows than the other cases, for the column-by-column substitution.
        if block_cells is not None:
            monkeypatch.setattr(sampler, "_BLOCK_DOUBLES", block_cells * 20)
        tensor = _tensor_with_cell_counts(self._RUN_COUNTS, (13, 5, 4), seed=17)
        _assert_batched_matches_per_row(tensor, n_latent=20, seed=18)

    def test_gather_bounded_by_block_budget(self):
        # The single layer entity holds 20 budgets' cells at D = 4. It is
        # gathered in budget-sized chunks, so building its system holds a few
        # budgets of doubles, not its 20 budgets of q.
        n_latent = 4
        dims = (512, 320, 1)
        assert dims[0] * dims[1] == 20 * sampler._BLOCK_DOUBLES // n_latent
        coords = np.stack(np.unravel_index(np.arange(dims[0] * dims[1]), dims), axis=1)
        tensor = SparseTensor(dims, coords, _rng(21).uniform(size=len(coords)))
        state = _make_state(tensor, n_latent=n_latent, seed=22)
        runs, prior = layout(tensor)[2], drawn_prior(state, 2)
        tracemalloc.start()
        try:
            grams, rhs = sampler._row_posteriors(state, runs, 2, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * sampler._BLOCK_DOUBLES * 8
        q_rows, values = fiber_cells(state, tensor, 2, 0)
        means, precisions = prior
        expected_gram = precisions[0] + state.alpha * q_rows.T @ q_rows
        expected_rhs = precisions[0] @ means[0] + state.alpha * q_rows.T @ values
        assert np.max(np.abs(grams[0] - expected_gram)) <= 1e-12 * np.max(np.abs(expected_gram))
        assert np.max(np.abs(rhs[0] - expected_rhs)) <= 1e-12 * np.max(np.abs(expected_rhs))

    def test_singular_row_precision_rescued_by_jitter(self):
        # With a zero prior precision, target 0's single cell gives the
        # rank-1 precision alpha * q q' with q = (1, 2): exactly singular.
        # The jitter policy (1e-6 * trace / D on the diagonal) rescues that
        # row only; target 1, with two cells, keeps its exact precision.
        tensor = tensor_from_entries(
            (2, 2, 1), [(0, 0, 0, 0.5), (1, 0, 0, 0.3), (1, 1, 0, 0.7)]
        )
        state = _make_state(tensor, n_latent=2, alpha=4.0, seed=3)
        state.latents[1][:] = [[1.0, 2.0], [3.0, 1.0]]
        state.latents[2][:] = [[1.0, 1.0]]
        prior_precision, prior_mean = np.zeros((2, 2)), np.zeros(2)
        q_rows, values = fiber_cells(state, tensor, 0, 0)
        with pytest.raises(NumericalError, match="singular"):
            row_posterior(prior_precision, prior_mean, state.alpha, q_rows, values)
        precision = state.alpha * (q_rows.T @ q_rows)
        precision += 1e-6 * np.trace(precision) / 2 * np.eye(2)
        mean = np.linalg.solve(precision, state.alpha * (q_rows.T @ values))

        normals = mode_normals(state, 0)
        batched = sample_mode_latents(state, layout(tensor), 0, (prior_mean[None], prior_precision[None]), normals)
        assert np.all(np.isfinite(batched))
        assert np.allclose(batched[0], cholesky_draw(mean, precision, normals[0]), rtol=1e-8, atol=0.0)
        q_rows, values = fiber_cells(state, tensor, 0, 1)
        precision, mean = row_posterior(prior_precision, prior_mean, state.alpha, q_rows, values)
        assert np.max(np.abs(batched[1] - cholesky_draw(mean, precision, normals[1]))) <= 1e-12

    def test_precision_beyond_jitter_raises(self):
        # A negative-definite prior cannot be rescued by one jitter retry.
        tensor = tensor_from_entries((2, 1, 1), [(1, 0, 0, 0.5)])
        state = _make_state(tensor, n_latent=2, seed=4)
        with pytest.raises(NumericalError, match="not SPD after jitter"):
            sample_mode_latents(state, layout(tensor), 0, (np.zeros((1, 2)), -np.eye(2)[None]), mode_normals(state, 0))

    def test_dims_mismatch(self):
        # Target 2 has a cell, but the state has only two target rows: the
        # indication update must refuse rather than gather a wrong row.
        tensor = tensor_from_entries((3, 2, 1), [(2, 1, 0, 0.5)])
        state = init_chains([(2, 2, 1)], 2, [0])
        with pytest.raises(DataError, match="do not match"):
            sample_mode_latents(state, layout(tensor), 1, identity_prior(state), mode_normals(state, 1))


def _chain_tensors():
    """Three small tensors of different dims, each with targets that have no cells."""
    rng = np.random.default_rng(41)
    tensors = []
    for dims in [(7, 5, 3), (4, 6, 2), (9, 3, 3)]:
        entries = [
            (i, j, k, float(rng.uniform()))
            for i in range(1, dims[0] - 1)
            for j in range(dims[1])
            for k in range(dims[2])
            if rng.uniform() < 0.6
        ]
        tensors.append(tensor_from_entries(dims, entries))
    return tensors


def unstacked_sweep(state, runs):
    """The latents after one sweep taken mode by mode: each mode's prior from its rows at its turn, then its rows."""
    chi, normals, z = sampler._sweep_noise(state)
    state = dataclasses.replace(state, latents=list(state.latents))
    for mode in range(3):
        prior = sample_mode_hyperparams(state.latents[mode], state.offsets[:, mode], chi[mode], normals[mode])
        state.latents[mode] = sample_mode_latents(state, runs, mode, prior, z[mode])
    return state.latents


class TestLockStep:
    @pytest.mark.parametrize("n_latent", [3, 12])
    def test_chains_in_lock_step_equal_chains_alone(self, n_latent):
        tensors, seeds, schedule = _chain_tensors(), [5, 6, 7], SamplerSchedule(2, 4, 2)
        together = run(tensors, n_latent, seeds, 5.0, schedule)
        assert len(together) == len(tensors)
        for tensor, seed, samples in zip(tensors, seeds, together):
            (alone,) = run([tensor], n_latent, [seed], 5.0, schedule)
            assert len(samples) == len(alone) == 2
            for sample, expected in zip(samples, alone):
                assert all(np.array_equal(a, b) for a, b in zip(sample, expected))

    def test_chains_draw_the_streams_they_draw_alone(self, monkeypatch):
        keys = []
        stream = StreamTree.stream
        monkeypatch.setattr(StreamTree, "stream", lambda tree, *key: keys.append(key) or stream(tree, *key))
        tensors, seeds, schedule = _chain_tensors(), [5, 6, 7], SamplerSchedule(1, 2, 1)
        run(tensors, 2, seeds, 5.0, schedule)
        together, keys[:] = sorted(keys), []
        for tensor, seed in zip(tensors, seeds):
            run([tensor], 2, [seed], 5.0, schedule)
        assert together == sorted(keys)
        assert len(together) == 3 * (1 + 3)  # per chain: one stream for the initial rows, then one per sweep

    def test_union_update_equals_per_row_reference(self):
        # Each chain's rows use its own prior; a wrong chain offset would mix them.
        tensors = _chain_tensors()
        state = init_chains([t.dims for t in tensors], 4, [8, 9, 10], alpha=5.0)
        union, runs = block_union(tensors), layout(*tensors)
        for _ in range(2):
            gibbs_step(state, runs)
        for mode in range(3):
            prior, normals = drawn_prior(state, mode), mode_normals(state, mode)
            assert not np.array_equal(prior[1][0], prior[1][1])
            expected = per_row_reference(state, union, mode, normals, prior)
            assert np.max(np.abs(sample_mode_latents(state, runs, mode, prior, normals) - expected)) <= 1e-12

    def test_stacked_priors_equal_per_mode_reference(self):
        # gibbs_step draws all three modes' priors in one call before any row
        # is redrawn; at each mode's turn they must be what that mode's rows
        # give with its share of the sweep's noise. Some targets have no cells.
        tensors = _chain_tensors()
        runs = layout(*tensors)
        state = init_chains([t.dims for t in tensors], 4, [8, 9, 10], alpha=5.0)
        for _ in range(2):
            gibbs_step(state, runs)
        expected = unstacked_sweep(state, runs)
        gibbs_step(state, runs)
        assert all(np.array_equal(got, want) for got, want in zip(state.latents, expected, strict=True))

    def test_run_needs_one_seed_per_tensor(self, tiny_tensor):
        with pytest.raises(ValueError, match="one seed per chain, got 2 for 1 chains"):
            run([tiny_tensor], 2, [1, 2], 5.0, SamplerSchedule(0, 1, 1))
        with pytest.raises(ValueError, match="one seed per chain, got 1 for 2 chains"):
            run(iter([tiny_tensor, tiny_tensor]), 2, [1], 5.0, SamplerSchedule(0, 1, 1))

    def test_one_seed_per_chain(self):
        with pytest.raises(ValueError, match="one seed per chain"):
            init_chains([(2, 2, 2)], 2, [1, 2])
        with pytest.raises(ValueError, match="one seed per chain"):
            init_chains([], 2, [])


class TestCountRuns:
    def test_count_runs_group_fibers_by_count(self, tiny_tensor):
        for mode in range(3):
            counts = np.bincount(tiny_tensor.coords[:, mode], minlength=tiny_tensor.dims[mode])
            runs = layout(tiny_tensor)[mode]
            assert runs.entities.tolist() == sorted(range(tiny_tensor.dims[mode]), key=lambda e: (counts[e], e))
            sorted_counts = counts[runs.entities]
            assert np.array_equal(np.diff(runs.offsets), sorted_counts)
            assert runs.starts[0] == 0 and runs.starts[-1] == len(runs.entities)
            for lo, hi in zip(runs.starts[:-1], runs.starts[1:]):
                assert (sorted_counts[lo:hi] == sorted_counts[lo]).all()
                assert hi == len(runs.entities) or sorted_counts[hi] != sorted_counts[lo]
            other_a, other_b = (other for other in range(3) if other != mode)
            for pos, entity in enumerate(runs.entities):
                rows = np.flatnonzero(tiny_tensor.coords[:, mode] == entity)  # the entity's cells in storage order
                cells = slice(runs.offsets[pos], runs.offsets[pos + 1])
                assert np.array_equal(runs.index_a[cells], tiny_tensor.coords[rows, other_a])
                assert np.array_equal(runs.index_b[cells], tiny_tensor.coords[rows, other_b])
                assert np.array_equal(runs.values[cells], tiny_tensor.values[rows])
            assert not any(array.flags.writeable for array in runs)

    def test_count_runs_of_empty_tensor(self):
        runs = layout(tensor_from_entries((3, 2, 1), []))[0]
        assert runs.entities.tolist() == [0, 1, 2]
        assert runs.offsets.tolist() == [0, 0, 0, 0]
        assert runs.starts.tolist() == [0, 3]
        assert runs.index_a.shape == runs.values.shape == (0,)

    def test_block_union_offsets_each_block(self, tiny_tensor):
        other = tensor_from_entries((2, 3, 2), [(1, 2, 0, 0.25), (0, 0, 1, 1.0), (1, 0, 1, 0.5)])
        blocks = [tiny_tensor, other, tiny_tensor]
        union = block_union(blocks)
        offsets = np.cumsum([(0, 0, 0)] + [block.dims for block in blocks], axis=0)
        assert union.dims == tuple(offsets[-1])
        assert np.array_equal(union.coords, np.concatenate([b.coords + o for b, o in zip(blocks, offsets)]))
        assert np.array_equal(union.values, np.concatenate([b.values for b in blocks]))
        chains, own_union = sampler.count_runs(blocks, offsets), layout(union)
        for mode in range(3):
            other_a, other_b = (m for m in range(3) if m != mode)
            runs = chains[mode]
            # The chains' layout is the union tensor's own, array for array.
            assert all(np.array_equal(got, want) for got, want in zip(runs, own_union[mode], strict=True))
            for block, offset in zip(blocks, offsets):
                own = layout(block)[mode]
                for pos, entity in enumerate(own.entities):
                    # The union entity holds the block entity's cells, in the same order.
                    (upos,) = np.flatnonzero(runs.entities == entity + offset[mode])
                    cells, ucells = (slice(r.offsets[p], r.offsets[p + 1]) for r, p in ((own, pos), (runs, upos)))
                    assert np.array_equal(runs.index_a[ucells], own.index_a[cells] + offset[other_a])
                    assert np.array_equal(runs.index_b[ucells], own.index_b[cells] + offset[other_b])
                    assert np.array_equal(runs.values[ucells], own.values[cells])

    def test_one_chain_layout_is_its_tensors_own(self, tiny_tensor):
        union = block_union([tiny_tensor])
        assert union.dims == tiny_tensor.dims
        assert np.array_equal(union.coords, tiny_tensor.coords) and np.array_equal(union.values, tiny_tensor.values)
        chain = sampler.count_runs([tiny_tensor], init_chains([tiny_tensor.dims], 2, [0]).offsets)
        for got, want in zip(chain, layout(union), strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


class TestGibbsStep:
    def test_state_changes_and_is_deterministic(self, tiny_tensor):
        state_a = _make_state(tiny_tensor, n_latent=3, seed=5)
        before = [m.copy() for m in state_a.latents]
        gibbs_step(state_a, layout(tiny_tensor))
        assert any(not np.array_equal(b, m) for b, m in zip(before, state_a.latents))
        assert state_a.sweep == 1

        state_b = _make_state(tiny_tensor, n_latent=3, seed=5)
        for _ in range(3):
            gibbs_step(state_b, layout(tiny_tensor))
        state_c = _make_state(tiny_tensor, n_latent=3, seed=5)
        for _ in range(3):
            gibbs_step(state_c, layout(tiny_tensor))
        for mat_b, mat_c in zip(state_b.latents, state_c.latents):
            assert np.array_equal(mat_b, mat_c)

    def test_empty_tensor_draws_every_row_from_its_prior(self):
        # No entity holds a cell, so every row's system is its chain prior alone.
        _assert_batched_matches_per_row(tensor_from_entries((3, 2, 2), []), n_latent=3, seed=23)

    def test_dims_mismatch(self, tiny_tensor):
        # The first mode's update refuses before any row changes: the sweep leaves the state as it was.
        state = init_chains([(4, 2, 4)], 2, [0])
        latents = list(state.latents)
        copies = [mat.copy() for mat in latents]
        with pytest.raises(DataError):
            gibbs_step(state, layout(tiny_tensor))
        assert all(now is then for now, then in zip(state.latents, latents, strict=True))
        assert all(np.array_equal(now, copy) for now, copy in zip(state.latents, copies, strict=True))
        assert state.sweep == 0


def triple_product_reference(samples, coords):
    """Per-cell reference for ``predict_slice``: the mean over samples of
    ``clip(sum_d U[i, d] * V[j, d] * W[k, d], 0, 1)`` for each ``(i, j, k)`` row."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    total = np.zeros(coords.shape[0])
    for targets, indications, layers in samples:
        raw = np.sum(
            targets[coords[:, 0]] * indications[coords[:, 1]] * layers[coords[:, 2]], axis=1
        )
        total += np.clip(raw, 0.0, 1.0)
    return total / len(samples)


def all_layers(samples):
    """``predict_slice`` of every layer, stacked into an ``(n0, n1, n2)`` array."""
    return np.stack([predict_slice(samples, k) for k in range(samples[0][2].shape[0])], axis=-1)


class TestPredict:
    def test_rank_one_product(self):
        sample = (np.array([[1.0, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]), np.array([[0.6, 0.0, 0.0]]))
        assert predict_slice([sample], 0)[0, 0] == pytest.approx(0.6)

    @pytest.mark.parametrize("w,expected", [(1.4, 1.0), (-0.2, 0.0)])
    def test_clamp(self, w, expected):
        sample = (np.array([[1.0]]), np.array([[1.0]]), np.array([[w]]))
        assert predict_slice([sample], 0)[0, 0] == expected

    def test_out_of_range(self):
        samples = [tuple(init_chains([(2, 2, 2)], 1, [0]).latents)]
        for layer in (2, -1):
            with pytest.raises(DataError):
                predict_slice(samples, layer)
        with pytest.raises(DataError):
            predict_slice([], 0)

    def test_matches_triple_product_reference(self):
        # Latents scaled so that raw products fall below 0 and above 1 in
        # every layer: the clamp acts at both ends before averaging.
        rng = np.random.default_rng(8)
        dims = (7, 5, 3)
        samples = [tuple(1.5 * rng.standard_normal((n, 4)) for n in dims) for _ in range(3)]
        coords = np.indices(dims).reshape(3, -1).T
        targets, indications, layers = samples[0]
        raw = np.sum(targets[coords[:, 0]] * indications[coords[:, 1]] * layers[coords[:, 2]], axis=1)
        assert (raw < 0.0).any() and (raw > 1.0).any()
        for layer in range(dims[2]):
            cells = coords[coords[:, 2] == layer]
            expected = triple_product_reference(samples, cells).reshape(dims[:2])
            assert np.max(np.abs(predict_slice(samples, layer) - expected)) <= 1e-12

    def test_sign_flip_invariance(self):
        # Negating one latent column in exactly two modes leaves every
        # prediction unchanged.
        state = init_chains([(6, 5, 4)], 3, [11])
        baseline = all_layers([tuple(state.latents)])
        for first, second in [(0, 1), (0, 2), (1, 2)]:
            flipped = copy.deepcopy(state)
            flipped.latents[first][:, 1] *= -1.0
            flipped.latents[second][:, 1] *= -1.0
            assert np.max(np.abs(all_layers([tuple(flipped.latents)]) - baseline)) <= 1e-12


class TestSchedule:
    @given(samples=st.integers(1, 10_000), thin=st.integers(1, 500))
    def test_retained_law(self, samples, thin):
        if samples < thin:
            with pytest.raises(ValueError, match="retains no samples"):
                SamplerSchedule(0, samples, thin)
        else:
            assert SamplerSchedule(0, samples, thin).retained == samples // thin

    def test_empty_retention_rejected(self):
        with pytest.raises(ValueError, match=r"retains no samples \(samples=3 < thin=5\)"):
            SamplerSchedule(0, 3, 5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SamplerSchedule(-1, 10, 1)
        with pytest.raises(ValueError):
            SamplerSchedule(0, 10, 0)

    def test_sweeps_beyond_stream_range_rejected(self):
        # Sweeps are numbered 0 to burnin + samples - 1, and the streams number 2**32 of them.
        assert N_SWEEPS == 2**32
        with pytest.raises(ValueError, match=r"4294967297 sweeps is over the 2\*\*32"):
            SamplerSchedule(2**32, 1, 1)
        assert SamplerSchedule(2**32 - 1, 1, 1).retained == 1

    def test_paper_defaults_retain_ten(self):
        assert SamplerSchedule().retained == 10


class TestRun:
    def test_single_sample_schedule_equals_one_step(self, tiny_tensor):
        (samples,) = run([tiny_tensor], 2, [13], 5.0, SamplerSchedule(0, 1, 1))
        assert len(samples) == 1

        replay = _make_state(tiny_tensor, n_latent=2, seed=13)
        gibbs_step(replay, layout(tiny_tensor))
        for retained, expected in zip(samples[0], replay.latents):
            assert np.array_equal(retained, expected)

    def test_retained_count(self, tiny_tensor):
        # Burn-in 2, then sweeps 3, 6 and 9 of 10 are retained: the samples
        # are exactly the latents after those sweeps, and the score is the
        # mean of their three predictions.
        (samples,) = run([tiny_tensor], 2, [3], 5.0, SamplerSchedule(2, 10, 3))

        replay = _make_state(tiny_tensor, seed=3)
        retained = []
        for sweep in range(1, 13):
            gibbs_step(replay, layout(tiny_tensor))
            if sweep > 2 and (sweep - 2) % 3 == 0:
                retained.append(tuple(mat.copy() for mat in replay.latents))
        assert len(samples) == len(retained) == 3
        for sample, expected in zip(samples, retained):
            assert all(np.array_equal(a, b) for a, b in zip(sample, expected))
        expected_score = triple_product_reference(retained, [(0, 0, 0)])[0]
        assert predict_slice(samples, 0)[0, 0] == pytest.approx(expected_score, abs=1e-15)

    def test_predictions_clamped(self, tiny_tensor):
        scores = all_layers(run([tiny_tensor], 2, [3], 5.0, SamplerSchedule(1, 4, 2))[0])
        assert scores.shape == tiny_tensor.dims
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_noiseless_rank_one_recovery(self):
        # Fully observed rank-1 tensor, alpha = 100: averaged predictions
        # after 200 total sweeps reproduce the table of products closely.
        rng = np.random.default_rng(21)
        u = rng.uniform(0.4, 0.95, size=10)
        v = rng.uniform(0.4, 0.95, size=8)
        w = rng.uniform(0.4, 0.95, size=3)
        values = np.einsum("i,j,k->ijk", u, v, w)
        entries = [
            (i, j, k, values[i, j, k])
            for i in range(10)
            for j in range(8)
            for k in range(3)
        ]
        tensor = tensor_from_entries((10, 8, 3), entries)
        predicted = all_layers(run([tensor], 2, [1], 100.0, SamplerSchedule(150, 50, 10))[0])
        rmse = float(np.sqrt(np.mean((predicted - values) ** 2)))
        assert rmse <= 0.05


def _checkpoint(directory, tensor, n_latent=3, seed=17, schedule=SamplerSchedule(1, 4, 2)):
    (samples,) = run([tensor], n_latent, [seed], 5.0, schedule)
    save_checkpoint(directory, samples, seed, 5.0, schedule)
    return samples


def _rewrite_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


def _patch_manifest(directory, **changes):
    manifest = json.loads((directory / "manifest.json").read_text())
    for key, value in changes.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _reference_checkpoint_text(samples, mode):
    """A checkpoint TSV written field by field: a header naming the latent columns, then the rows."""
    header = "\t".join(f"latent_{d}" for d in range(samples[0][mode].shape[1])) + "\n"
    return header + "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for sample in samples for row in sample[mode])


_BAD_CHECKPOINTS = {
    "missing file": lambda d: (d / "layers.tsv").unlink(),
    "non-numeric field": lambda d: _rewrite_line(d / "targets.tsv", 2, "0.5\tabc\t0.1"),
    "too few columns": lambda d: _rewrite_line(d / "indications.tsv", 1, "0.5\t0.1"),
    "rows not a multiple of retained": lambda d: (d / "layers.tsv").write_text(
        "\n".join((d / "layers.tsv").read_text().splitlines()[:-1]) + "\n"
    ),
    "empty file": lambda d: (d / "targets.tsv").write_text(""),
    "header only": lambda d: (d / "targets.tsv").write_text("latent_0\tlatent_1\tlatent_2\n"),
    "no header, as written before the header row": lambda d: (d / "layers.tsv").write_text(
        "".join((d / "layers.tsv").read_text().splitlines(keepends=True)[1:])
    ),
    "other column names": lambda d: _rewrite_line(d / "targets.tsv", 0, "latent_0\tlatent_2\tlatent_1"),
    "an extra column": lambda d: (d / "targets.tsv").write_text(
        "".join(line + "\t0.5\n" for line in (d / "targets.tsv").read_text().splitlines())
    ),
    "non-finite value": lambda d: _rewrite_line(d / "targets.tsv", 1, "nan\t0.1\t0.2"),
    "retained disagrees": lambda d: _patch_manifest(d, retained=3),
    "retained zero": lambda d: _patch_manifest(d, retained=0),
    "n_latent disagrees": lambda d: _patch_manifest(d, n_latent=2),
    "n_latent not an integer": lambda d: _patch_manifest(d, n_latent="3"),
    "manifest without retained": lambda d: _patch_manifest(d, retained=None),
    "manifest not JSON": lambda d: (d / "manifest.json").write_text("{retained: 2"),
    "manifest not an object": lambda d: (d / "manifest.json").write_text("[2, 3]\n"),
}


class TestCheckpoint:
    def test_roundtrip(self, tiny_tensor, tmp_path):
        samples = _checkpoint(tmp_path / "ckpt", tiny_tensor)
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert len(loaded) == len(samples) == 2
        for sample, reloaded in zip(samples, loaded):
            for mat_a, mat_b in zip(sample, reloaded):
                assert np.array_equal(mat_a, mat_b)
        assert manifest["retained"] == 2
        assert manifest["n_latent"] == 3
        assert manifest["thin"] == 2
        assert manifest["seed"] == 17

    def test_files_stack_samples_in_retention_order(self, tiny_tensor, tmp_path):
        samples = _checkpoint(tmp_path / "ckpt", tiny_tensor)
        header, *lines = (tmp_path / "ckpt" / "targets.tsv").read_text().splitlines()
        assert header == "latent_0\tlatent_1\tlatent_2"
        assert len(lines) == 2 * tiny_tensor.dims[0]
        assert [float(v) for v in lines[3].split("\t")] == samples[1][0][0].tolist()

    @pytest.mark.parametrize("n_latent", [1, 3])
    def test_files_match_per_field_writer(self, tiny_tensor, tmp_path, n_latent):
        samples = _checkpoint(tmp_path / "ckpt", tiny_tensor, n_latent=n_latent, schedule=SamplerSchedule(1, 3, 1))
        assert len(samples) == 3
        for mode, name in enumerate(["targets.tsv", "indications.tsv", "layers.tsv"]):
            assert (tmp_path / "ckpt" / name).read_bytes() == _reference_checkpoint_text(samples, mode).encode()

    @pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINTS))
    def test_malformed_checkpoint_is_data_error(self, tiny_tensor, tmp_path, case):
        _checkpoint(tmp_path / "ckpt", tiny_tensor)
        _BAD_CHECKPOINTS[case](tmp_path / "ckpt")
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("key,n_latent", [("retained", 3), ("n_latent", 1)])
    def test_boolean_count_rejected(self, tiny_tensor, tmp_path, key, n_latent):
        # JSON true is 1 to operator.index: a 2-sample checkpoint would load as one sample of twice the rows.
        _checkpoint(tmp_path / "ckpt", tiny_tensor, n_latent=n_latent)
        _patch_manifest(tmp_path / "ckpt", **{key: True})
        with pytest.raises(DataError, match="manifest needs integer 'retained' and 'n_latent'"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "name,line,text,message",
        [("targets.tsv", 3, "0.5\tabc\t0.1", "targets.tsv:4: bad latent_1 'abc'"),
         ("indications.tsv", 2, "nan\t0.1\t0.2", "indications.tsv:3: non-finite latent value in [nan, 0.1, 0.2]"),
         ("layers.tsv", 1, "0.5\t0.1", "layers.tsv:2: 2 fields, the header has 3")],
    )
    def test_fault_names_its_line(self, tiny_tensor, tmp_path, name, line, text, message):
        _checkpoint(tmp_path / "ckpt", tiny_tensor)
        _rewrite_line(tmp_path / "ckpt" / name, line, text)
        with pytest.raises(DataError, match=re.escape(message)):
            load_checkpoint(tmp_path / "ckpt")


@pytest.fixture(scope="module")
def checkpoint_texts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt")
    tensor = tensor_from_entries((3, 2, 4), FIXTURE_ENTRIES)
    _checkpoint(directory, tensor, n_latent=2, schedule=SamplerSchedule(0, 2, 1))
    return {path.name: path.read_text() for path in directory.iterdir()}


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["targets.tsv", "indications.tsv", "layers.tsv", "manifest.json"]),
        edits=EDITS,
    )
    def test_edited_text_loads_or_is_data_error(self, checkpoint_texts, name, edits):
        self._check_edited(name, splice(checkpoint_texts[name], edits).encode(), checkpoint_texts)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["targets.tsv", "indications.tsv", "layers.tsv"]), edits=BYTE_EDITS)
    def test_edited_bytes_load_or_are_data_error(self, checkpoint_texts, name, edits):
        self._check_edited(name, splice(checkpoint_texts[name].encode(), edits), checkpoint_texts)

    @staticmethod
    def _check_edited(name, data, checkpoint_texts):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for filename, original in checkpoint_texts.items():
                (directory / filename).write_bytes(data if filename == name else original.encode())
            try:
                samples, manifest = load_checkpoint(directory)
            except DataError:
                return
        assert len(samples) == manifest["retained"]
        assert all(mat.shape[1] == manifest["n_latent"] for sample in samples for mat in sample)
