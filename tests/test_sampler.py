import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import solve_triangular
from hypothesis import strategies as st

from trialtensor import (
    DataError,
    Hyperprior,
    NumericalError,
    SamplerSchedule,
    SparseTensor,
    gibbs_step,
    init_model,
    load_checkpoint,
    predict_slice,
    run,
    sample_mode_hyperparams,
    sample_mode_latents,
    sample_mvn,
    sample_wishart,
    save_checkpoint,
)
from trialtensor import sampler
from trialtensor.rng import ROLE_LATENT, StreamTree
from trialtensor.sampler import row_posterior

from conftest import EDITS, FIXTURE_ENTRIES, splice


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestInitModel:
    def test_latent_shapes(self):
        state = init_model((3, 2, 4), 32, seed=0)
        assert state.latents[0].shape == (3, 32)
        assert state.latents[1].shape == (2, 32)
        assert state.latents[2].shape == (4, 32)
        assert state.params[0].mean.shape == (32,)

    def test_deterministic(self):
        a = init_model((5, 4, 3), 8, seed=9)
        b = init_model((5, 4, 3), 8, seed=9)
        for mat_a, mat_b in zip(a.latents, b.latents):
            assert np.array_equal(mat_a, mat_b)

    def test_column_means_near_zero(self):
        # Monte Carlo check of the standard-normal initializer.
        state = init_model((10_000, 2, 2), 4, seed=3)
        means = state.latents[0].mean(axis=0)
        assert np.all(np.abs(means) < 4.0 / np.sqrt(10_000))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_model((2, 2, 2), 0)
        with pytest.raises(ValueError):
            init_model((2, 2, 2), 4, alpha=-1.0)


class TestSampleWishart:
    def test_samples_are_spd(self):
        rng = _rng(1)
        scale = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
        for _ in range(200):
            sample = sample_wishart(scale, 6.0, rng)
            np.linalg.cholesky(sample)  # raises if not SPD

    def test_identity_moments_d2(self):
        rng = _rng(2)
        n = 20_000
        total = np.zeros((2, 2))
        for _ in range(n):
            total += sample_wishart(np.eye(2), 5.0, rng)
        mean = total / n
        # Var(W_ij) = nu * (W0_ij^2 + W0_ii * W0_jj)
        se_diag = np.sqrt(2 * 5.0 / n)
        se_off = np.sqrt(5.0 / n)
        assert abs(mean[0, 0] - 5.0) < 3 * se_diag
        assert abs(mean[1, 1] - 5.0) < 3 * se_diag
        assert abs(mean[0, 1]) < 3 * se_off

    def test_scalar_chi_square_moments(self):
        rng = _rng(3)
        n = 20_000
        draws = np.array([sample_wishart(np.array([[2.0]]), 3.0, rng)[0, 0] for _ in range(n)])
        # scalar Wishart(2, 3) = 2 * chi2(3): mean 6, variance 2 * 3 * 4 = 24
        assert abs(draws.mean() - 6.0) < 3 * np.sqrt(24.0 / n)
        assert abs(draws.var() - 24.0) < 0.15 * 24.0

    def test_not_spd(self):
        with pytest.raises(NumericalError, match="scale matrix not SPD"):
            sample_wishart(np.array([[1.0, 2.0], [2.0, 1.0]]), 5.0, _rng())

    def test_dof_below_dim(self):
        with pytest.raises(ValueError):
            sample_wishart(np.eye(3), 2.0, _rng())


class TestSampleMvn:
    def test_identity_covariance(self):
        rng = _rng(4)
        draws = np.array([sample_mvn(np.zeros(2), np.eye(2), rng) for _ in range(20_000)])
        cov = np.cov(draws.T)
        se = 3.0 / np.sqrt(20_000)
        assert np.all(np.abs(cov - np.eye(2)) < 3 * se + 0.01)
        assert np.all(np.abs(draws.mean(axis=0)) < 3.0 / np.sqrt(20_000))

    def test_correlated_precision(self):
        rng = _rng(5)
        precision = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.linalg.inv(precision)  # [[2/3, -1/3], [-1/3, 2/3]]
        draws = np.array([sample_mvn(np.zeros(2), precision, rng) for _ in range(20_000)])
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - expected) < 0.02)

    def test_concentration_at_high_precision(self):
        rng = _rng(6)
        mean = np.array([0.4, -0.2])
        draws = np.array([sample_mvn(mean, 1e6 * np.eye(2), rng) for _ in range(5_000)])
        within = np.all(np.abs(draws - mean) < 0.005, axis=1)
        assert within.mean() >= 0.99

    def test_not_spd(self):
        with pytest.raises(NumericalError, match="precision not SPD"):
            sample_mvn(np.zeros(2), np.array([[1.0, 3.0], [3.0, 1.0]]), _rng())

    @pytest.mark.parametrize("dim", [1, 8, 32])
    def test_matches_triangular_solve_reference(self, dim):
        rng = _rng(dim)
        factor = rng.standard_normal((dim, dim))
        precision = factor @ factor.T + dim * np.eye(dim)
        mean = rng.standard_normal(dim)
        draw = sample_mvn(mean, precision, _rng(40 + dim))
        reference = cholesky_draw(mean, precision, _rng(40 + dim).standard_normal(dim))
        assert np.max(np.abs(draw - reference)) <= 1e-12


def hyperparams_reference(latents, hyperprior, rng):
    """Gaussian-Wishart posterior draw written out with ``solve_triangular``.

    Same stream order as the sampler: Bartlett diagonal, Bartlett lower
    triangle, then the mean's normal block.
    """
    n_rows, dim = latents.shape
    beta0, mu0 = hyperprior.mean_strength, hyperprior.mean
    xbar = latents.mean(axis=0)
    beta_post = beta0 + n_rows
    dev = xbar - mu0
    scale_inv = (
        np.linalg.inv(hyperprior.precision_scale)
        + (latents - xbar).T @ (latents - xbar)
        + (beta0 * n_rows / beta_post) * np.outer(dev, dev)
    )
    inv_lower = np.linalg.cholesky((scale_inv + scale_inv.T) / 2.0)
    root = solve_triangular(inv_lower, np.eye(dim), lower=True).T
    bartlett = np.diag(np.sqrt(rng.chisquare(hyperprior.dof + n_rows - np.arange(dim))))
    tril = np.tril_indices(dim, k=-1)
    bartlett[tril] = rng.standard_normal(len(tril[0]))
    precision = root @ bartlett @ (root @ bartlett).T
    precision = (precision + precision.T) / 2.0
    mean_post = (beta0 * mu0 + n_rows * xbar) / beta_post
    return cholesky_draw(mean_post, beta_post * precision, rng.standard_normal(dim)), precision


class TestModeHyperparams:
    def test_empty_mode_rejected(self):
        with pytest.raises(ValueError, match="empty mode"):
            sample_mode_hyperparams(np.empty((0, 3)), Hyperprior.default(3), _rng())

    def test_mean_collapses_onto_prior_mean(self):
        # All rows equal to the prior mean and a huge prior strength pin the
        # posterior mean at the prior mean exactly; the draw then has
        # negligible spread.
        prior_mean = np.array([0.7, -1.2])
        hyper = Hyperprior(
            mean=prior_mean, mean_strength=1e12, precision_scale=np.eye(2), dof=2.0
        )
        latents = np.tile(prior_mean, (50, 1))
        params = sample_mode_hyperparams(latents, hyper, _rng(7))
        assert np.allclose(params.mean, prior_mean, atol=1e-4)

    def test_posterior_consistency(self):
        # With many rows from a known Gaussian, the sampled precision
        # concentrates on the generating precision.
        rng = _rng(8)
        true_precision = np.array([[2.0, 0.5], [0.5, 1.5]])
        cov = np.linalg.inv(true_precision)
        rows = rng.multivariate_normal(np.zeros(2), cov, size=10_000)
        hyper = Hyperprior.default(2)
        draws = np.zeros((2, 2))
        n_draws = 200
        for _ in range(n_draws):
            draws += sample_mode_hyperparams(rows, hyper, rng).precision
        mean_precision = draws / n_draws
        assert np.all(np.abs(mean_precision - true_precision) <= 0.1 * np.abs(true_precision) + 0.02)

    @pytest.mark.parametrize("dim", [1, 8, 32])
    def test_matches_triangular_solve_reference(self, dim):
        rng = _rng(100 + dim)
        factor = rng.standard_normal((dim, dim))
        hyper = Hyperprior(
            mean=rng.standard_normal(dim),
            mean_strength=2.0,
            precision_scale=factor @ factor.T + dim * np.eye(dim),
            dof=dim + 2.0,
        )
        latents = 1.5 * rng.standard_normal((60, dim)) + 0.3
        params = sample_mode_hyperparams(latents, hyper, _rng(7))
        mean, precision = hyperparams_reference(latents, hyper, _rng(7))
        assert np.max(np.abs(params.precision - precision)) <= 1e-12
        assert np.max(np.abs(params.mean - mean)) <= 1e-12


    def test_cached_constants_are_read_only(self):
        rows, cols = sampler._strict_lower(5)
        assert sampler._strict_lower(5)[0] is rows
        assert np.array_equal(rows, np.tril_indices(5, k=-1)[0])
        assert np.array_equal(cols, np.tril_indices(5, k=-1)[1])
        hyper = Hyperprior.default(3)
        assert np.array_equal(hyper.scale_inverse, np.linalg.inv(np.eye(3)))
        for array in (rows, cols, hyper.scale_inverse, hyper.precision_scale):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_caller_scale_is_copied(self):
        scale = np.eye(2)
        hyper = Hyperprior(mean=np.zeros(2), mean_strength=1.0, precision_scale=scale, dof=2.0)
        scale[0, 0] = 9.0
        assert scale.flags.writeable
        assert hyper.precision_scale[0, 0] == 1.0


class TestHyperpriorEquality:
    def test_equal_by_value(self):
        assert Hyperprior.default(3) == Hyperprior.default(3)
        assert not Hyperprior.default(3) != Hyperprior.default(3)
        built = Hyperprior(mean=[0, 0, 0], mean_strength=2, precision_scale=np.eye(3).tolist(), dof=3)
        assert built == Hyperprior.default(3)

    @pytest.mark.parametrize(
        "changes",
        [
            {"mean": np.array([0.0, 0.0, 0.5])},
            {"mean_strength": 2.5},
            {"precision_scale": 2.0 * np.eye(3)},
            {"dof": 4.0},
        ],
    )
    def test_unequal_fields(self, changes):
        fields = dict(mean=np.zeros(3), mean_strength=2.0, precision_scale=np.eye(3), dof=3.0)
        assert Hyperprior(**{**fields, **changes}) != Hyperprior(**fields)

    def test_different_dimension_and_type(self):
        assert Hyperprior.default(3) != Hyperprior.default(2)
        assert Hyperprior.default(1) != 1.0
        assert Hyperprior.default(2) != {"mean": np.zeros(2)}

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(Hyperprior.default(2))


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
        if dim <= sampler._PANEL:
            assert np.array_equal(got, expected)
        else:
            scale = np.max(np.abs(expected), axis=1)
            assert np.max(np.max(np.abs(got - expected), axis=1) / scale) <= 1e-12


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
    return init_model(tensor.dims, n_latent, alpha=alpha, seed=seed)


_OTHER_MODES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def mode_normals(state, mode):
    """The standard-normal block the batched update draws for this sweep and mode."""
    shape = state.latents[mode].shape
    return StreamTree(state.seed).stream(state.sweep, ROLE_LATENT, mode).standard_normal(shape)


def fiber_cells(state, tensor, mode, entity):
    """Other-mode products ``q`` and values of one entity's observed cells."""
    other_a, other_b = _OTHER_MODES[mode]
    mask = tensor.coords[:, mode] == entity
    cells = tensor.coords[mask]
    q_rows = state.latents[other_a][cells[:, other_a]] * state.latents[other_b][cells[:, other_b]]
    return q_rows, tensor.values[mask]


def cholesky_draw(mean, precision, z):
    return mean + solve_triangular(np.linalg.cholesky(precision).T, z, lower=False)


def per_row_reference(state, tensor, mode, normals):
    """Row-at-a-time update: row_posterior, then a Cholesky draw from ``normals``."""
    params = state.params[mode]
    rows = np.empty_like(state.latents[mode])
    for entity in range(rows.shape[0]):
        q_rows, values = fiber_cells(state, tensor, mode, entity)
        precision, mean = row_posterior(params.precision, params.mean, state.alpha, q_rows, values)
        rows[entity] = cholesky_draw(mean, precision, normals[entity])
    return rows


def mode_latents_loop_reference(state, tensor, mode, tree):
    """``sample_mode_latents`` with one gather per entity, as before block gathers."""
    other_a, other_b = _OTHER_MODES[mode]
    coords, values = tensor.coords, tensor.values
    order = np.argsort(coords[:, mode], kind="stable")  # each entity's cells in storage order
    offsets = np.searchsorted(coords[order, mode], np.arange(state.latents[mode].shape[0] + 1))
    lat_a, lat_b = state.latents[other_a], state.latents[other_b]
    n_entities, n_latent = state.latents[mode].shape
    grams = np.empty((n_entities, n_latent, n_latent))
    rhs = np.empty((n_entities, n_latent))
    for entity in range(n_entities):
        rows = order[offsets[entity] : offsets[entity + 1]]
        q_rows = lat_a[coords[rows, other_a]] * lat_b[coords[rows, other_b]]
        grams[entity] = q_rows.T @ q_rows
        rhs[entity] = q_rows.T @ values[rows]
    params = state.params[mode]
    grams *= state.alpha
    grams += params.precision
    rhs *= state.alpha
    rhs += params.precision @ params.mean
    lower = sampler._cholesky(grams, "row posterior precision")
    z = tree.stream(state.sweep, ROLE_LATENT, mode).standard_normal((n_entities, n_latent))
    half = np.linalg.solve(lower, rhs[..., None]) + z[..., None]
    return np.linalg.solve(lower.transpose(0, 2, 1), half)[..., 0]


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
    state = _make_state(tensor, n_latent=n_latent, alpha=5.0, seed=seed)
    tree = StreamTree(state.seed)
    for _ in range(3):
        gibbs_step(state, tensor, tree)
    for mode in range(3):
        expected = per_row_reference(state, tensor, mode, mode_normals(state, mode))
        batched = sample_mode_latents(state, tensor, mode, tree)
        assert np.max(np.abs(batched - expected)) <= 1e-12


class TestModeLatents:
    def test_unobserved_entity_draws_from_prior(self):
        # Entity 0 of mode 0 has no cells; its redraw should follow the mode
        # prior. Averaging over many sweeps checks the prior mean.
        tensor = SparseTensor.from_entries((3, 2, 2), [(1, 0, 0, 0.5), (2, 1, 1, 0.25)])
        state = _make_state(tensor, n_latent=2, seed=1)
        prior_mean = np.array([1.0, -0.5])
        state.params[0].mean = prior_mean
        state.params[0].precision = 4.0 * np.eye(2)
        tree = StreamTree(state.seed)
        total = np.zeros(2)
        n = 3000
        for sweep in range(n):
            state.sweep = sweep
            total += sample_mode_latents(state, tensor, 0, tree)[0]
        avg = total / n
        se = 0.5 / np.sqrt(n)
        assert np.all(np.abs(avg - prior_mean) < 4 * se)

    def test_high_alpha_pins_single_observation(self):
        # D=1, one observation y with other-mode product q: the draw
        # approaches y / q as alpha grows.
        tensor = SparseTensor.from_entries((1, 1, 1), [(0, 0, 0, 0.8)])
        state = _make_state(tensor, n_latent=1, alpha=1e8, seed=2)
        state.latents[1][0, 0] = 2.0
        state.latents[2][0, 0] = 1.0
        new_rows = sample_mode_latents(state, tensor, 0, StreamTree(2))
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
        tensor = SparseTensor.from_entries((7, 5, 3), entries)
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
        state = _make_state(tensor, n_latent=n_latent, seed=6)
        tree = StreamTree(state.seed)
        for _ in range(2):
            gibbs_step(state, tensor, tree)
        for mode in range(3):
            expected = mode_latents_loop_reference(state, tensor, mode, tree)
            assert np.array_equal(sample_mode_latents(state, tensor, mode, tree), expected)

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
        assert tensor.count_runs(0).starts.tolist() == [0, 3, 4, 7, 12, 13]
        state = _make_state(tensor, n_latent=n_latent, seed=16)
        tree = StreamTree(state.seed)
        for _ in range(2):
            gibbs_step(state, tensor, tree)
        for mode in range(3):
            expected = mode_latents_loop_reference(state, tensor, mode, tree)
            assert np.array_equal(sample_mode_latents(state, tensor, mode, tree), expected)

    @pytest.mark.parametrize("block_cells", [5, None])
    def test_batched_update_equals_per_row_reference_beyond_one_panel(self, monkeypatch, block_cells):
        # D = 20 takes three panels of the blocked triangular solves.
        if block_cells is not None:
            monkeypatch.setattr(sampler, "_BLOCK_DOUBLES", block_cells * 20)
        tensor = _tensor_with_cell_counts(self._RUN_COUNTS, (13, 5, 4), seed=17)
        _assert_batched_matches_per_row(tensor, n_latent=20, seed=18)

    def test_singular_row_precision_rescued_by_jitter(self):
        # With a zero prior precision, target 0's single cell gives the
        # rank-1 precision alpha * q q' with q = (1, 2): exactly singular.
        # The jitter policy (1e-6 * trace / D on the diagonal) rescues that
        # row only; target 1, with two cells, keeps its exact precision.
        tensor = SparseTensor.from_entries(
            (2, 2, 1), [(0, 0, 0, 0.5), (1, 0, 0, 0.3), (1, 1, 0, 0.7)]
        )
        state = _make_state(tensor, n_latent=2, alpha=4.0, seed=3)
        state.latents[1][:] = [[1.0, 2.0], [3.0, 1.0]]
        state.latents[2][:] = [[1.0, 1.0]]
        state.params[0].precision = np.zeros((2, 2))
        state.params[0].mean = np.zeros(2)
        prior = state.params[0]
        q_rows, values = fiber_cells(state, tensor, 0, 0)
        with pytest.raises(NumericalError, match="singular"):
            row_posterior(prior.precision, prior.mean, state.alpha, q_rows, values)
        precision = state.alpha * (q_rows.T @ q_rows)
        precision += 1e-6 * np.trace(precision) / 2 * np.eye(2)
        mean = np.linalg.solve(precision, state.alpha * (q_rows.T @ values))

        normals = mode_normals(state, 0)
        batched = sample_mode_latents(state, tensor, 0, StreamTree(state.seed))
        assert np.all(np.isfinite(batched))
        assert np.allclose(batched[0], cholesky_draw(mean, precision, normals[0]), rtol=1e-8, atol=0.0)
        q_rows, values = fiber_cells(state, tensor, 0, 1)
        precision, mean = row_posterior(prior.precision, prior.mean, state.alpha, q_rows, values)
        assert np.max(np.abs(batched[1] - cholesky_draw(mean, precision, normals[1]))) <= 1e-12

    def test_precision_beyond_jitter_raises(self):
        # A negative-definite prior cannot be rescued by one jitter retry.
        tensor = SparseTensor.from_entries((2, 1, 1), [(1, 0, 0, 0.5)])
        state = _make_state(tensor, n_latent=2, seed=4)
        state.params[0].precision = -np.eye(2)
        with pytest.raises(NumericalError, match="not SPD after jitter"):
            sample_mode_latents(state, tensor, 0, StreamTree(state.seed))

    def test_dims_mismatch(self):
        # Target 2 has a cell, but the state has only two target rows: the
        # indication update must refuse rather than gather a wrong row.
        tensor = SparseTensor.from_entries((3, 2, 1), [(2, 1, 0, 0.5)])
        state = init_model((2, 2, 1), 2, seed=0)
        with pytest.raises(DataError, match="do not match"):
            sample_mode_latents(state, tensor, 1, StreamTree(0))


class TestGibbsStep:
    def test_state_changes_and_is_deterministic(self, tiny_tensor):
        state_a = _make_state(tiny_tensor, n_latent=3, seed=5)
        before = [m.copy() for m in state_a.latents]
        tree = StreamTree(5)
        gibbs_step(state_a, tiny_tensor, tree)
        assert any(not np.array_equal(b, m) for b, m in zip(before, state_a.latents))
        assert state_a.sweep == 1

        state_b = _make_state(tiny_tensor, n_latent=3, seed=5)
        for _ in range(3):
            gibbs_step(state_b, tiny_tensor, tree)
        state_c = _make_state(tiny_tensor, n_latent=3, seed=5)
        for _ in range(3):
            gibbs_step(state_c, tiny_tensor, tree)
        for mat_b, mat_c in zip(state_b.latents, state_c.latents):
            assert np.array_equal(mat_b, mat_c)

    def test_dims_mismatch(self, tiny_tensor):
        state = init_model((4, 2, 4), 2, seed=0)
        with pytest.raises(DataError):
            gibbs_step(state, tiny_tensor, StreamTree(0))


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
        samples = [tuple(init_model((2, 2, 2), 1, seed=0).latents)]
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
        state = init_model((6, 5, 4), 3, seed=11)
        baseline = all_layers([tuple(state.latents)])
        for first, second in [(0, 1), (0, 2), (1, 2)]:
            flipped = copy.deepcopy(state)
            flipped.latents[first][:, 1] *= -1.0
            flipped.latents[second][:, 1] *= -1.0
            assert np.max(np.abs(all_layers([tuple(flipped.latents)]) - baseline)) <= 1e-12


class TestSchedule:
    @given(samples=st.integers(1, 10_000), thin=st.integers(1, 500))
    def test_retained_law(self, samples, thin):
        assert SamplerSchedule(0, samples, thin).retained == samples // thin

    def test_invalid(self):
        with pytest.raises(ValueError):
            SamplerSchedule(-1, 10, 1)
        with pytest.raises(ValueError):
            SamplerSchedule(0, 10, 0)

    def test_paper_defaults_retain_ten(self):
        assert SamplerSchedule().retained == 10


class TestRun:
    def test_single_sample_schedule_equals_one_step(self, tiny_tensor):
        state = _make_state(tiny_tensor, n_latent=2, seed=13)
        samples = run(state, tiny_tensor, SamplerSchedule(0, 1, 1))
        assert len(samples) == 1

        replay = _make_state(tiny_tensor, n_latent=2, seed=13)
        gibbs_step(replay, tiny_tensor, StreamTree(13))
        for retained, expected in zip(samples[0], replay.latents):
            assert np.array_equal(retained, expected)

    def test_retained_count(self, tiny_tensor):
        # Burn-in 2, then sweeps 3, 6 and 9 of 10 are retained: the samples
        # are exactly the latents after those sweeps, and the score is the
        # mean of their three predictions.
        state = _make_state(tiny_tensor, seed=3)
        samples = run(state, tiny_tensor, SamplerSchedule(2, 10, 3))

        replay = _make_state(tiny_tensor, seed=3)
        tree = StreamTree(3)
        retained = []
        for sweep in range(1, 13):
            gibbs_step(replay, tiny_tensor, tree)
            if sweep > 2 and (sweep - 2) % 3 == 0:
                retained.append(tuple(mat.copy() for mat in replay.latents))
        assert len(samples) == len(retained) == 3
        for sample, expected in zip(samples, retained):
            assert all(np.array_equal(a, b) for a, b in zip(sample, expected))
        expected_score = triple_product_reference(retained, [(0, 0, 0)])[0]
        assert predict_slice(samples, 0)[0, 0] == pytest.approx(expected_score, abs=1e-15)

    def test_predictions_clamped(self, tiny_tensor):
        state = _make_state(tiny_tensor, seed=3)
        scores = all_layers(run(state, tiny_tensor, SamplerSchedule(1, 4, 2)))
        assert scores.shape == tiny_tensor.dims
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_empty_retention_rejected(self, tiny_tensor):
        state = _make_state(tiny_tensor)
        with pytest.raises(ValueError):
            run(state, tiny_tensor, SamplerSchedule(0, 3, 5))

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
        tensor = SparseTensor.from_entries((10, 8, 3), entries)
        state = init_model(tensor.dims, 2, alpha=100.0, seed=1)
        predicted = all_layers(run(state, tensor, SamplerSchedule(150, 50, 10)))
        rmse = float(np.sqrt(np.mean((predicted - values) ** 2)))
        assert rmse <= 0.05


def _checkpoint(directory, tensor, n_latent=3, seed=17, schedule=SamplerSchedule(1, 4, 2)):
    state = _make_state(tensor, n_latent=n_latent, seed=seed)
    samples = run(state, tensor, schedule)
    save_checkpoint(directory, samples, state, schedule)
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
    """A checkpoint TSV as the per-field writer that the row template replaced wrote it."""
    return "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for sample in samples for row in sample[mode])


_BAD_CHECKPOINTS = {
    "missing file": lambda d: (d / "layers.tsv").unlink(),
    "non-numeric field": lambda d: _rewrite_line(d / "targets.tsv", 1, "0.5\tabc\t0.1"),
    "too few columns": lambda d: _rewrite_line(d / "indications.tsv", 0, "0.5\t0.1"),
    "rows not a multiple of retained": lambda d: (d / "layers.tsv").write_text(
        "\n".join((d / "layers.tsv").read_text().splitlines()[:-1]) + "\n"
    ),
    "empty file": lambda d: (d / "targets.tsv").write_text(""),
    "non-finite value": lambda d: _rewrite_line(d / "targets.tsv", 0, "nan\t0.1\t0.2"),
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
        lines = (tmp_path / "ckpt" / "targets.tsv").read_text().splitlines()
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


@pytest.fixture(scope="module")
def checkpoint_texts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt")
    tensor = SparseTensor.from_entries((3, 2, 4), FIXTURE_ENTRIES)
    _checkpoint(directory, tensor, n_latent=2, schedule=SamplerSchedule(0, 2, 1))
    return {path.name: path.read_text() for path in directory.iterdir()}


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["targets.tsv", "indications.tsv", "layers.tsv", "manifest.json"]),
        edits=EDITS,
    )
    def test_edited_text_loads_or_is_data_error(self, checkpoint_texts, name, edits):
        text = splice(checkpoint_texts[name], edits)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for filename, original in checkpoint_texts.items():
                (directory / filename).write_text(text if filename == name else original, encoding="utf-8")
            try:
                samples, manifest = load_checkpoint(directory)
            except DataError:
                return
        assert len(samples) == manifest["retained"]
        assert all(mat.shape[1] == manifest["n_latent"] for sample in samples for mat in sample)
