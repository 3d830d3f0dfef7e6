"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see the
lines for passing criteria). Absolute benchmark numbers from full-scale data
snapshots are out of reach at this scale, so the criteria are properties:
sampler distribution checks, synthetic-recovery floors, rule fidelity on the
bundled fixtures, and bit-level determinism.
"""

import itertools
import json
import time
from collections import Counter
from contextlib import contextmanager
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import rankdata

from trialtensor import sampler
from trialtensor import SamplerSchedule, SparseTensor, predict_slice, repeated_eval, run, summarize
from trialtensor.cli import main
from trialtensor.ingest import load_xref, map_ontology
from trialtensor.metrics import _exact_two_sided_p, _normal_two_sided_p, auroc, class_imbalance, mann_whitney_u
from trialtensor.sampler import gibbs_step, init_chains, sample_mode_latents
from trialtensor.simulate import SynthConfig, generate
from trialtensor.tensor import split_cells

from conftest import NO_PAIRS, cell_value, evidence_rows, evidence_table, ingest_fixture, pair_rows
from test_metrics import brute_force_auroc, pairwise_exact_mww_p
from test_sampler import (
    all_layers,
    drawn_prior,
    layout,
    mode_normals,
    per_row_reference,
    posterior_moments,
    stacked_draws,
    whitened_residuals,
    wishart_se,
)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL ({time.perf_counter() - start:.1f}s) {description}")
        raise
    print(f"[criterion {number}] PASS ({time.perf_counter() - start:.1f}s) {description}")


@pytest.fixture(scope="module")
def ingested_dir(tmp_path_factory):
    data_dir = __import__("conftest").DATA_DIR
    out = tmp_path_factory.mktemp("acceptance") / "ingested"
    args = [
        "ingest",
        "--rare", str(data_dir / "rare_disease.tsv"),
        "--burden", str(data_dir / "gene_burden.tsv"),
        "--gwas", str(data_dir / "gwas_l2g.tsv"),
        "--outcomes", str(data_dir / "outcomes.tsv"),
        "--xref", str(data_dir / "xref.tsv"),
        "--out", str(out),
    ]
    assert main(args) == 0
    return out


def test_c1_thinning_arithmetic(ingested_dir, tmp_path):
    with criterion(1, "default schedule 500/3500/350 retains exactly 10 samples"):
        out = tmp_path / "model"
        args = [
            "train", "--tensor", str(ingested_dir), "--out", str(out),
            "--latent-dim", "32", "--seed", "0",
        ]
        assert main(args) == 0  # paper-default schedule flags left untouched
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["burnin"] == 500
        assert manifest["samples"] == 3500
        assert manifest["thin"] == 350
        assert manifest["retained"] == 10


def test_c2_sampler_distribution_checks():
    with criterion(
        2,
        "sweep's hyperparameter draw: mean precision within 3 MC se of nu_n*W_n; whitened mean "
        "residuals zero-mean with identity covariance within 3 se",
    ):
        n_chains = 100_000
        for dim in (1, 2, 4):
            # Fixed rows away from the prior mean, so the beta0*n/beta_n term of W_n counts.
            rows = np.random.default_rng(dim).normal(1.0, 0.5, (2 * dim + 2, dim))
            beta_n, nu_n, mu_n, w_n = posterior_moments(rows)
            means, precisions = stacked_draws(rows, n_chains, 100 + dim)
            mean_precision = precisions.mean(axis=0)
            assert np.all(np.abs(mean_precision - nu_n * w_n) <= 3.0 * wishart_se(w_n, nu_n, n_chains))
            residuals = whitened_residuals(means, precisions, beta_n, mu_n)
            assert np.all(np.abs(residuals.mean(axis=0)) <= 3.0 / np.sqrt(n_chains))
            # se of a standard-normal covariance entry: sqrt(2 / n) on the diagonal, sqrt(1 / n) off it
            se = np.sqrt((1.0 + np.eye(dim)) / n_chains)
            assert np.all(np.abs(np.cov(residuals.T).reshape(dim, dim) - np.eye(dim)) <= 3.0 * se)


def _prior_draws(rng, n_chains, n_rows, dim):
    """Exact draws of one mode under the model's prior, per chain.

    ``Lambda ~ Wishart(I, D)``, ``mu ~ N(0, (2 Lambda)^-1)`` and rows
    ``~ N(mu, Lambda^-1)``: with Bartlett factor ``A``, ``Lambda = A A'`` and
    ``A'^-1 e`` has covariance ``Lambda^-1``. Returns the rows
    ``(n_chains, n_rows, D)``, the means and the precisions.
    """
    bartlett = np.zeros((n_chains, dim, dim))
    diagonal = np.arange(dim)
    bartlett[:, diagonal, diagonal] = np.sqrt(rng.chisquare(dim - diagonal, size=(n_chains, dim)))
    lower = np.tril_indices(dim, k=-1)
    bartlett[:, lower[0], lower[1]] = rng.standard_normal((n_chains, len(lower[0])))
    upper = bartlett.transpose(0, 2, 1)[:, None]
    mean = np.linalg.solve(upper, rng.standard_normal((n_chains, 1, dim, 1)))[:, 0, :, 0] / np.sqrt(2.0)
    rows = mean[:, None] + np.linalg.solve(upper, rng.standard_normal((n_chains, n_rows, dim, 1)))[..., 0]
    return rows, mean, bartlett @ bartlett.transpose(0, 2, 1)


def _observations(rng, latents, alpha):
    """``y ~ N(sum_d U V W, 1 / alpha)`` at every cell of each chain's fully observed 3 x 2 x 2 tensor, chain-major."""
    targets, indications, layers = latents
    mean = np.einsum("cid,cjd,ckd->cijk", targets, indications, layers).reshape(len(targets), -1)
    return mean + rng.standard_normal(mean.shape) / np.sqrt(alpha)


def _joint_statistics(latents, priors, y):
    """Per chain, the bounded two-sample test functions ``(n_chains, 20)`` and each mode's mean ``exp(-q / 2)``
    over its rows ``(n_chains, 3)``, ``q`` the row's Mahalanobis form under the mode's ``(mu, Lambda)``."""
    two_sample, uniform = [], []
    for rows, (mean, precision) in zip(latents, priors):
        centered = rows - rows.mean(axis=1, keepdims=True)
        two_sample += [
            np.tanh(rows).mean(axis=(1, 2)),
            (1.0 / (1.0 + rows**2)).mean(axis=(1, 2)),
            1.0 / (1.0 + np.trace(precision, axis1=1, axis2=2)),
            *np.tanh(mean).T,
            1.0 / (1.0 + np.einsum("cnd,cnd->c", centered, centered)),
        ]
        diff = rows - mean[:, None]
        uniform.append(np.exp(-np.einsum("cnd,cde,cne->cn", diff, precision, diff) / 2.0).mean(axis=1))
    two_sample += [np.tanh(y).mean(axis=1), (1.0 / (1.0 + y**2)).mean(axis=1)]
    return np.stack(two_sample, axis=1), np.stack(uniform, axis=1)


def test_c2b_sweep_joint_distribution(monkeypatch):
    with criterion(
        "2b",
        "12000 chains from the joint prior stay in it over 10 sweeps with y redrawn: each mode's "
        "exp(-q/2) under its drawn prior has mean 1/2, 20 bounded functions match exact prior draws, Bonferroni",
    ):
        # Geweke's (2004) successive-conditional check, run as independent chains: each starts
        # from an exact draw of the joint prior, and each sweep, followed by a fresh y given the
        # latents, must keep it there. y is unbounded, so each sweep's runs take it in place of
        # their values: the union's c-th cell of n holds c / n, so each run cell finds y[c].
        n_chains, chain_dims, dim, alpha, n_sweeps = 12_000, (3, 2, 2), 2, 2.0, 10
        cells = np.indices(chain_dims).reshape(3, -1).T
        coords = (cells + np.arange(n_chains)[:, None, None] * np.array(chain_dims)).reshape(-1, 3)
        union = SparseTensor(np.multiply(chain_dims, n_chains), coords, np.arange(len(coords)) / len(coords))
        state = init_chains([chain_dims] * n_chains, dim, range(n_chains), alpha=alpha)
        runs = layout(union)
        run_cells = [np.rint(mode_runs.values * len(coords)).astype(np.int64) for mode_runs in runs]

        rng = np.random.default_rng(2004)
        for mode, n_rows in enumerate(chain_dims):
            state.latents[mode] = _prior_draws(rng, n_chains, n_rows, dim)[0].reshape(-1, dim)
        captured = []
        draw = sampler.sample_mode_hyperparams
        monkeypatch.setattr(sampler, "sample_mode_hyperparams", lambda *args: captured.append(draw(*args)) or captured[-1])
        for _ in range(n_sweeps):
            y = _observations(rng, [rows.reshape(n_chains, -1, dim) for rows in state.latents], alpha).ravel()
            gibbs_step(state, [mode_runs._replace(values=y[c]) for mode_runs, c in zip(runs, run_cells)])
        assert len(captured) == n_sweeps  # one prior call per sweep, all three modes stacked mode-major
        means, precisions = captured[-1]
        priors = list(zip(means.reshape(3, n_chains, dim), precisions.reshape(3, n_chains, dim, dim)))
        latents = [rows.reshape(n_chains, -1, dim) for rows in state.latents]
        sampled, uniform = _joint_statistics(latents, priors, _observations(rng, latents, alpha))

        independent = np.random.default_rng(2006)
        exact = [_prior_draws(independent, n_chains, n, dim) for n in chain_dims]
        rows = [draws[0] for draws in exact]
        reference, _ = _joint_statistics(rows, [draws[1:] for draws in exact], _observations(rng, rows, alpha))

        # Each row's exp(-q/2) is Uniform(0, 1): a chain's mean over n rows has variance 1 / (12 n).
        z_uniform = (uniform.mean(axis=0) - 0.5) / np.sqrt(1.0 / (12.0 * np.array(chain_dims) * n_chains))
        se = np.sqrt((sampled.var(axis=0, ddof=1) + reference.var(axis=0, ddof=1)) / n_chains)
        z = np.concatenate([z_uniform, (sampled.mean(axis=0) - reference.mean(axis=0)) / se])
        bound = NormalDist().inv_cdf(1.0 - 0.001 / (2 * len(z)))  # family-wise 0.001 over 23 functions
        print(f"worst |z| {np.max(np.abs(z)):.2f} against {bound:.2f}")
        assert np.all(np.abs(z) <= bound), f"|z| {np.round(np.abs(z), 2).tolist()} over {bound:.2f}"


def test_c3_synthetic_recovery():
    with criterion(3, "50x40x4 rank-8 recovery: held-out RMSE <= 2 sigma, AUROC >= 0.95"):
        sigma = 0.1
        config = SynthConfig(
            dims=(50, 40, 4), true_rank=8, noise_sd=sigma, observed_fraction=0.2,
            seed=42, coupling=0.9,
        )
        tensor, truth, _ = generate(config)
        rows = split_cells(tensor, layer=0, heldout_fraction=0.2, seed=7)
        heldout = tensor.coords[rows]
        train_tensor = SparseTensor(tensor.dims, np.delete(tensor.coords, rows, axis=0), np.delete(tensor.values, rows))
        schedule = SamplerSchedule(200, 800, 80)
        assert schedule.retained == 10
        (samples,) = run([train_tensor], 16, [1], 100.0, schedule)
        scores = predict_slice(samples, 0)[heldout[:, 0], heldout[:, 1]]
        observed = tensor.values[rows]
        binarized_truth = truth[tuple(heldout.T)] >= 0.5
        rmse = float(np.sqrt(np.mean((scores - observed) ** 2)))
        assert rmse <= 2.0 * sigma
        assert auroc(scores, binarized_truth) >= 0.95


def test_c4_combined_evidence_ordering():
    with criterion(4, "combined model AUROC >= each single-evidence mean minus pooled sd"):
        config = SynthConfig(
            dims=(30, 24, 4), true_rank=4, noise_sd=0.15, observed_fraction=0.5,
            seed=11, coupling=0.9,
        )
        tensor, _, _ = generate(config)
        schedule = SamplerSchedule(80, 240, 48)
        seeds = [100 + r for r in range(10)]
        names, models = zip(*[
            ("combined", (0, 1, 2, 3)),
            ("evidence_1", (0, 1)),
            ("evidence_2", (0, 2)),
            ("evidence_3", (0, 3)),
        ])
        aurocs, f1s = repeated_eval(tensor, models, seeds, 8, 40.0, schedule, 0.2, 0.5)
        imbalance = class_imbalance(tensor.layer_entries(0)[1])
        reports = {report["model_name"]: report for report in summarize(names, aurocs, f1s, imbalance, 0.5)}
        combined = reports["combined"]
        for name in ("evidence_1", "evidence_2", "evidence_3"):
            single = reports[name]
            pooled_sd = float(np.sqrt((combined["auroc"]["sd"]**2 + single["auroc"]["sd"]**2) / 2.0))
            assert combined["auroc"]["mean"] >= single["auroc"]["mean"] - pooled_sd, (
                f"combined {combined['auroc']['mean']:.4f} vs {name} "
                f"{single['auroc']['mean']:.4f} - {pooled_sd:.4f}"
            )


def test_c5_auroc_oracle_equivalence():
    with criterion(5, "rank AUROC equals brute-force pairwise probability (1000 cases, 1e-12)"):
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            n = int(rng.integers(2, 201))
            scores = rng.random(n)
            if rng.random() < 0.5:
                scores = scores.round(1)  # force ties
            n_pos = int(rng.integers(1, n))
            labels = np.zeros(n, dtype=int)
            labels[rng.choice(n, size=n_pos, replace=False)] = 1
            assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) <= 1e-12


def test_c6_mww_exactness():
    with criterion(6, "MWW p within 0.02 of exact enumeration up to n=6 per group; separated p=0.1"):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert abs(p - 0.1) <= 1e-12

        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for _ in range(30):
                tied = rng.random() < 0.5
                if tied:
                    a = rng.integers(0, 4, size=n).astype(float).tolist()
                    b = rng.integers(0, 4, size=n).astype(float).tolist()
                else:
                    a = rng.random(n).tolist()
                    b = rng.random(n).tolist()
                _, p = mann_whitney_u(a, b)
                assert abs(p - pairwise_exact_mww_p(a, b)) <= 0.02

        # The asymptotic path itself must agree with enumeration at the
        # largest small-sample size, exhaustively over untied arrangements.
        values = np.arange(1.0, 13.0)
        for combo in itertools.combinations(range(12), 6):
            in_a = set(combo)
            pooled = np.array(
                [values[i] for i in in_a] + [values[i] for i in range(12) if i not in in_a]
            )
            ranks = rankdata(pooled)
            u_a = float(ranks[:6].sum() - 21.0)
            assert abs(
                _normal_two_sided_p(u_a, 6, 6, pooled) - _exact_two_sided_p(ranks, 6)
            ) <= 0.02


def test_c7_ingestion_rules(data_dir):
    with criterion(7, "burden negatives explicit; approval dominates; merge conflict keeps max"):
        report = Counter()
        evidence, pairs = ingest_fixture(report)
        from trialtensor import build_tensor

        tensor, modes = build_tensor(evidence, pairs)
        burden = modes[2].index("gene_burden")
        # (a) the two non-significant burden rows are observed 0.0 cells
        assert cell_value(tensor, 1, 0, burden) == 0.0
        assert cell_value(tensor, 2, 0, burden) == 0.0
        _, burden_values = tensor.layer_entries(burden)
        assert len(burden_values) == 3

        # (b) ENSG0001 x MeSH:D001249 has approved + terminated(safety): label 1
        pair = {(p[0], p[1]): p for p in pair_rows(pairs)}[("ENSG0001", "MeSH:D001249")]
        _, _, label, _, _, statuses = pair
        assert "terminated" in statuses and label == 1
        assert cell_value(tensor, 0, 0, 0) == 1.0

        # (c) conflicting values merging onto one MeSH id resolve to max, reported
        conflict_report = Counter()
        merged, _ = map_ontology(
            evidence_table([
                ("GX", "EFO:0000400", "gene_burden", 0.0),
                ("GX", "EFO:0000401", "gene_burden", 1.0),
            ]),
            NO_PAIRS,
            load_xref(data_dir / "xref.tsv"),
            report=conflict_report,
        )
        merged = evidence_rows(merged)
        assert len(merged) == 1 and merged[0][3] == 1.0
        assert conflict_report["merge_conflicts"] == 1


def test_c8_determinism(ingested_dir, tmp_path):
    with criterion(8, "seeded train byte-identical; batched mode update equals per-row reference"):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            args = [
                "train", "--tensor", str(ingested_dir), "--out", str(out),
                "--seed", "7",
                "--latent-dim", "4", "--burnin", "20", "--samples", "40", "--thin", "10",
            ]
            assert main(args) == 0
            outputs.append((out / "predictions.tsv").read_bytes())
        assert outputs[0] == outputs[1]

        config = SynthConfig(dims=(15, 12, 3), true_rank=4, observed_fraction=0.5, seed=4)
        tensor, _, _ = generate(config)
        state, runs = init_chains([tensor.dims], 6, [9], alpha=20.0), layout(tensor)
        for _ in range(10 + 20):  # the sweeps of SamplerSchedule(10, 20, 5)
            gibbs_step(state, runs)
        for mode in range(3):
            prior, normals = drawn_prior(state, mode), mode_normals(state, mode)
            expected = per_row_reference(state, tensor, mode, normals, prior)
            batched = sample_mode_latents(state, runs, mode, prior, normals)
            assert np.max(np.abs(batched - expected)) <= 1e-12


def test_c9_sign_flip_invariance():
    with criterion(9, "negating one latent column in two modes changes no prediction > 1e-12"):
        tensor, _, _ = generate(SynthConfig(dims=(10, 8, 4), true_rank=3, seed=6))
        state = init_chains([tensor.dims], 5, [2], alpha=10.0)
        for _ in range(3):
            gibbs_step(state, layout(tensor))
        baseline = all_layers([tuple(state.latents)])
        for first, second in itertools.combinations(range(3), 2):
            for column in range(5):
                state.latents[first][:, column] *= -1.0
                state.latents[second][:, column] *= -1.0
                flipped = all_layers([tuple(state.latents)])
                state.latents[first][:, column] *= -1.0
                state.latents[second][:, column] *= -1.0
                assert np.max(np.abs(flipped - baseline)) <= 1e-12
