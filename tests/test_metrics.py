import itertools
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialtensor import (
    DataError, SamplerSchedule, phase_analysis, repeated_eval, save_tensor, select_layers, summarize,
)
from trialtensor import metrics, sampler
from trialtensor.cli import main
from trialtensor.metrics import (
    _exact_two_sided_p, _midranks, _normal_two_sided_p, auroc, bonferroni, class_imbalance, f1, mann_whitney_u,
)
from trialtensor.simulate import SynthConfig, generate, synthetic_modes
from trialtensor.tensor import split_cells


def brute_force_auroc(scores, labels):
    """Mean over all (positive, negative) pairs of win + half-tie."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def pairwise_exact_mww_p(a, b):
    """Exact two-sided p computed without midranks, by pairwise counting."""
    pooled = list(a) + list(b)
    n_a = len(a)
    mean_u = n_a * (len(pooled) - n_a) / 2.0

    def u_of(group_a_vals, group_b_vals):
        u = 0.0
        for x in group_a_vals:
            for y in group_b_vals:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    observed = abs(u_of(a, b) - mean_u)
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n_a):
        in_a = set(combo)
        group_a = [pooled[i] for i in in_a]
        group_b = [pooled[i] for i in range(len(pooled)) if i not in in_a]
        total += 1
        if abs(u_of(group_a, group_b) - mean_u) >= observed - 1e-12:
            hits += 1
    return hits / total


def enumerated_exact_p(ranks, n_a):
    """Exact two-sided p by enumerating every label arrangement of the midranks."""
    n = ranks.shape[0]
    n_b = n - n_a
    mean_u = n_a * n_b / 2.0
    base = n_a * (n_a + 1) / 2.0
    observed = abs(float(ranks[:n_a].sum()) - base - mean_u)
    hits = 0
    total = 0
    for combo in itertools.combinations(range(n), n_a):
        u = ranks[list(combo)].sum() - base
        total += 1
        if abs(u - mean_u) >= observed - 1e-12:
            hits += 1
    return hits / total


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force_on_random_case(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50).round(1)  # rounding forces ties
        labels = rng.integers(0, 2, size=50)
        if labels.sum() in (0, 50):
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(
            brute_force_auroc(scores, labels), abs=1e-12
        )

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_brute_force_oracle_property(self, data):
        n = data.draw(st.integers(2, 60))
        scores = data.draw(
            st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n)
        )
        n_pos = data.draw(st.integers(1, n - 1))
        labels = [1] * n_pos + [0] * (n - n_pos)
        assert auroc(scores, labels) == pytest.approx(
            brute_force_auroc(scores, labels), abs=1e-12
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, data):
        n = data.draw(st.integers(2, 40))
        # Coarse grid: keeps smooth transforms strictly monotone in float64.
        grid = st.floats(0, 1, allow_nan=False).map(lambda v: round(v, 6))
        scores = np.array(data.draw(st.lists(grid, min_size=n, max_size=n)))
        n_pos = data.draw(st.integers(1, n - 1))
        labels = [1] * n_pos + [0] * (n - n_pos)
        base = auroc(scores, labels)
        assert base == pytest.approx(auroc(np.exp(3.0 * scores) + 2.0, labels), abs=1e-12)
        assert base == pytest.approx(auroc(4.0 * scores, labels), abs=1e-12)

    def test_degenerate_labels(self):
        with pytest.raises(DataError, match="degenerate labels"):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            auroc([0.1, bad, 0.7, 0.3], [0, 1, 1, 0])
        with pytest.raises(DataError, match="non-finite"):
            f1([bad, 0.9, 0.1], [1, 1, 0])


# Few distinct values, so that most draws are tie-heavy; -0.0 ties with 0.0.
TIE_HEAVY = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0]),
        st.floats(allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestMidranks:
    @given(TIE_HEAVY)
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_average_ranks(self, values):
        from scipy.stats import rankdata

        values = np.array(values)
        assert np.array_equal(_midranks(values), rankdata(values, method="average"))

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([4.2], [1.0]),
            ([7.0] * 5, [3.0] * 5),
            ([0.0, -0.0, 0.0, -1.0], [3.0, 3.0, 3.0, 1.0]),
            ([3.0, 1.0, 3.0, 2.0, 2.0, 2.0], [5.5, 1.0, 5.5, 3.0, 3.0, 3.0]),
        ],
    )
    def test_known_ranks(self, values, expected):
        assert _midranks(np.array(values)).tolist() == expected


class TestF1:
    def test_perfect(self):
        assert f1([0.9, 0.4], [1, 0], 0.5) == 1.0

    def test_all_predicted_positive_half_true(self):
        # precision 0.5, recall 1.0 -> F1 = 2/3
        assert f1([0.9, 0.8], [1, 0], 0.5) == pytest.approx(2.0 / 3.0)

    def test_zero_true_positives_is_zero(self):
        assert f1([0.1, 0.2], [1, 1], 0.5) == 0.0
        assert f1([0.1, 0.2], [0, 0], 0.5) == 0.0

    def test_confusion_matrix_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.random(100)
        labels = rng.integers(0, 2, size=100)
        tp = fp = fn = 0
        for s, l in zip(scores, labels):
            predicted = s >= 0.5
            if predicted and l == 1:
                tp += 1
            elif predicted and l == 0:
                fp += 1
            elif not predicted and l == 1:
                fn += 1
        expected = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        assert f1(scores, labels, 0.5) == pytest.approx(expected, abs=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_range_property(self, data):
        n = data.draw(st.integers(1, 50))
        scores = data.draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        value = f1(scores, labels, 0.5)
        assert 0.0 <= value <= 1.0

    def test_bad_threshold(self):
        with pytest.raises(DataError):
            f1([0.5], [1], threshold=1.0)


class TestClassImbalance:
    def test_half(self):
        assert class_imbalance([1, 0, 0, 1]) == 0.5

    def test_all_positive(self):
        assert class_imbalance([1, 1, 1]) == 1.0

    def test_empty(self):
        with pytest.raises(DataError):
            class_imbalance([])


class TestMannWhitney:
    def test_identical_groups_not_significant(self):
        _, p = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert p >= 0.9

    def test_fully_separated_exact(self):
        u, p = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)  # 2 of C(6,3)=20 arrangements

    def test_empty_group(self):
        with pytest.raises(DataError, match="empty group"):
            mann_whitney_u([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            mann_whitney_u([0.1, bad], [0.7, 0.3, 0.2])
        with pytest.raises(DataError, match="non-finite"):
            mann_whitney_u([0.1] * 20, [0.7] * 19 + [bad])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_path_matches_pairwise_oracle(self, data):
        n_a = data.draw(st.integers(1, 5))
        n_b = data.draw(st.integers(1, 5))
        values = st.integers(0, 4)  # heavy ties on purpose
        a = data.draw(st.lists(values, min_size=n_a, max_size=n_a))
        b = data.draw(st.lists(values, min_size=n_b, max_size=n_b))
        _, p = mann_whitney_u(a, b)
        assert p == pytest.approx(pairwise_exact_mww_p(a, b), abs=1e-12)

    @pytest.mark.parametrize("values", ["untied", "tied", "all tied"])
    def test_counting_equals_enumeration_at_every_split_up_to_twelve(self, values):
        rng = np.random.default_rng(12)
        for n in range(2, 13):
            pooled = {"untied": rng.random(n), "tied": rng.integers(0, 4, n), "all tied": np.zeros(n)}[values]
            ranks = _midranks(pooled.astype(float))
            for n_a in range(1, n):
                assert _exact_two_sided_p(ranks, n_a) == enumerated_exact_p(ranks, n_a)

    @pytest.mark.parametrize("n_a,n_b,tied", [(7, 6, False), (7, 6, True), (1, 13, False), (7, 7, True)])
    def test_exact_path_beyond_twelve_matches_pairwise_oracle(self, n_a, n_b, tied):
        rng = np.random.default_rng(n_a * n_b + tied)
        draw = (lambda n: rng.integers(0, 5, n).astype(float)) if tied else rng.random
        a, b = draw(n_a).tolist(), draw(n_b).tolist()
        _, p = mann_whitney_u(a, b)
        assert p == pytest.approx(pairwise_exact_mww_p(a, b), abs=1e-12)

    @pytest.mark.parametrize("n_a,n_b", [(1, 59), (7, 6), (30, 30)])
    def test_swapping_groups_keeps_exact_p(self, n_a, n_b):
        rng = np.random.default_rng(n_a + n_b)
        for a, b in ((rng.random(n_a), rng.random(n_b)), (rng.integers(0, 6, n_a), rng.integers(0, 6, n_b))):
            assert mann_whitney_u(a, b)[1] == mann_whitney_u(b, a)[1]

    def test_normal_path_close_to_exact_at_six_per_group(self):
        # Exhaustive over all arrangements of 12 distinct values.
        values = np.arange(1.0, 13.0)
        worst = 0.0
        for combo in itertools.combinations(range(12), 6):
            in_a = set(combo)
            a = [values[i] for i in in_a]
            b = [values[i] for i in range(12) if i not in in_a]
            pooled = np.array(a + b)
            ranks = pooled  # the distinct values 1..12 are their own ranks
            u_a = float(ranks[:6].sum() - 6 * 7 / 2.0)
            p_normal = _normal_two_sided_p(u_a, 6, 6, pooled)
            p_exact = _exact_two_sided_p(ranks, 6)
            worst = max(worst, abs(p_normal - p_exact))
        assert worst <= 0.02

    def test_large_sample_normal_path_is_used_and_sane(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0.0, 1.0, size=40)
        b = rng.normal(1.5, 1.0, size=40)
        _, p_shifted = mann_whitney_u(a, b)
        _, p_same = mann_whitney_u(a, rng.normal(0.0, 1.0, size=40))
        assert p_shifted < 1e-6
        assert p_same > 0.01


class TestBonferroni:
    def test_scalar(self):
        assert bonferroni(0.01, 5) == pytest.approx(0.05)

    def test_capped(self):
        assert bonferroni(0.5, 10) == 1.0

    @given(
        ps=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20),
        extra=st.integers(0, 5),
    )
    def test_vector_matches_scalar_rule(self, ps, extra):
        m = len(ps) + extra
        corrected = [bonferroni(p, m) for p in ps]
        assert corrected == [min(1.0, m * p) for p in ps]
        assert all(c <= 1.0 for c in corrected)
        # monotone: larger p never corrects below a smaller p
        order = np.argsort(ps)
        assert np.all(np.diff(np.asarray(corrected)[order]) >= -1e-15)

    def test_m_below_test_count(self):
        with pytest.raises(DataError, match="at least 1"):
            bonferroni(0.1, 0)


class TestPhaseAnalysis:
    def _build(self, group_sizes, shift_phase=None, shift=0.0, seed=0):
        # One pair per score: its score and its phase.
        rng = np.random.default_rng(seed)
        predictions = []
        pairs = []
        for phase, size in group_sizes.items():
            for _ in range(size):
                score = float(np.clip(rng.normal(0.4, 0.05), 0, 1))
                if phase == shift_phase:
                    score = float(np.clip(score + shift, 0, 1))
                predictions.append(score)
                pairs.append(phase)
        return predictions, pairs

    def test_five_phases_give_ten_tests(self):
        predictions, pairs = self._build({ph: 8 for ph in range(5)})
        analysis = phase_analysis(predictions, pairs)
        assert analysis["n_comparisons"] == 10
        assert analysis["excluded_phases"] == []

    def test_identical_groups_all_corrected_to_one(self):
        predictions = []
        pairs = []
        for phase in range(5):
            for score in [0.2, 0.4, 0.6]:
                predictions.append(score)
                pairs.append(phase)
        analysis = phase_analysis(predictions, pairs)
        assert all(test["p_corrected"] == 1.0 for test in analysis["tests"])

    def test_constructed_shift_is_significant(self):
        predictions, pairs = self._build(
            {ph: 30 for ph in range(5)}, shift_phase=3, shift=0.3, seed=3
        )
        analysis = phase_analysis(predictions, pairs)
        [p_corr] = [t["p_corrected"] for t in analysis["tests"] if (t["phase_a"], t["phase_b"]) == (1, 3)]
        assert p_corr < 0.05

    def test_small_group_excluded_and_reported(self):
        predictions, pairs = self._build({0: 6, 1: 6, 2: 1, 4: 6})
        analysis = phase_analysis(predictions, pairs)
        assert set(analysis["excluded_phases"]) == {2, 3}
        assert analysis["n_comparisons"] == 3  # C(3, 2)

    def test_unmatched_pairs_counted(self):
        predictions, pairs = self._build({0: 3, 1: 3})
        predictions.append(np.nan)  # a pair without a score
        pairs.append(4)
        analysis = phase_analysis(predictions, pairs)
        assert analysis["unmatched_pairs"] == 1

    def test_tsv_rows_shape(self):
        predictions, pairs = self._build({0: 4, 1: 4, 2: 4})
        analysis = phase_analysis(predictions, pairs)
        rows = analysis["tests"]
        assert len(rows) == 3
        assert all(len(row) == 5 for row in rows)

    def test_scores_and_phases_of_unequal_length(self):
        predictions, pairs = self._build({0: 4, 1: 4})
        with pytest.raises(DataError, match="8 scores for 7 phases"):
            phase_analysis(predictions, pairs[:-1])


@pytest.fixture(scope="module")
def coupled_tensor():
    config = SynthConfig(
        dims=(24, 18, 3),
        true_rank=4,
        noise_sd=0.1,
        observed_fraction=0.6,
        seed=5,
        coupling=0.9,
    )
    tensor, _, _ = generate(config)
    return tensor


def _evaluate_one(tensor, seeds, n_latent=32, alpha=5.0, schedule=SamplerSchedule(), layers=(0, 1, 2)):
    """The report of one model over ``seeds``, held out at 0.2 and scored at 0.5."""
    aurocs, f1s = repeated_eval(tensor, [layers], seeds, n_latent, alpha, schedule, 0.2, 0.5)
    [report] = summarize(["combined"], aurocs, f1s, class_imbalance(tensor.layer_entries(0)[1]), 0.5)
    return report


class TestRepeatedEval:
    def test_identical_seeds_zero_sd(self, coupled_tensor):
        report = _evaluate_one(coupled_tensor, [7, 7], n_latent=4, alpha=30.0, schedule=SamplerSchedule(10, 20, 10))
        assert report["auroc"]["sd"] == 0.0
        assert report["f1"]["sd"] == 0.0

    def test_synthetic_recovery_auroc(self, coupled_tensor):
        report = _evaluate_one(coupled_tensor, [1, 2], n_latent=8, alpha=40.0, schedule=SamplerSchedule(60, 150, 30))
        assert report["auroc"]["mean"] >= 0.9

    def test_report_schema(self, coupled_tensor):
        report = _evaluate_one(coupled_tensor, [3, 4], n_latent=4, alpha=30.0, schedule=SamplerSchedule(5, 10, 5))
        assert set(report) == {
            "model_name", "auroc", "f1", "imbalance", "n_repeats", "threshold",
        }
        assert set(report["auroc"]) == {"mean", "sd"}
        assert 0.0 <= report["imbalance"] <= 1.0
        assert report["threshold"] == 0.5

    def test_layer_subset_must_start_at_outcome(self, coupled_tensor):
        with pytest.raises(DataError):
            _evaluate_one(coupled_tensor, [1, 2], schedule=SamplerSchedule(1, 2, 1), layers=(1, 2))

    @pytest.mark.parametrize("layers", [None, ()])
    def test_model_not_starting_at_outcome_fails_before_sampling(self, coupled_tensor, monkeypatch, layers):
        def run(*args):
            raise AssertionError("sampled a model that does not start at layer 0")

        monkeypatch.setattr(metrics, "run", run)
        with pytest.raises(DataError, match="must start with the outcome layer 0"):
            repeated_eval(coupled_tensor, [(0, 1), layers], [1, 2], 4, 30.0, SamplerSchedule(1, 2, 1), 0.2, 0.5)

    def test_chain_trains_on_model_tensor_without_heldout_rows(self, coupled_tensor, monkeypatch):
        # run takes the chains' tensors as an iterable; count_runs gets them as a list.
        trained = []
        real_runs = sampler.count_runs
        monkeypatch.setattr(sampler, "count_runs", lambda tensors, *args: trained.extend(tensors) or real_runs(tensors, *args))
        models, seeds = [(0, 1, 2), (0, 2)], [5, 6]
        repeated_eval(coupled_tensor, models, seeds, 4, 30.0, SamplerSchedule(1, 2, 1), 0.2, 0.5)
        chains = [(layers, seed) for layers in models for seed in seeds]
        assert len(trained) == len(chains)
        for train, (layers, seed) in zip(trained, chains):
            model_tensor = select_layers(coupled_tensor, layers)
            kept = np.ones(model_tensor.n_entries, dtype=bool)
            kept[split_cells(model_tensor, 0, 0.2, seed)] = False
            assert train.dims == model_tensor.dims
            assert np.array_equal(train.coords, model_tensor.coords[kept])
            assert np.array_equal(train.values, model_tensor.values[kept])

    def test_batch_keeps_no_training_tensor_while_it_samples(self, coupled_tensor, monkeypatch):
        # The count runs that run samples hold the batch's cells; every per-chain
        # training tensor must be gone by the first sweep, even while the
        # caller's frame still holds run's argument (as CPython 3.10's does).
        refs, alive, arguments = [], [], []
        real_runs, real_step, real_run = sampler.count_runs, sampler.gibbs_step, metrics.run

        def count_runs(tensors, offsets):
            refs.extend(weakref.ref(train.coords) for train in tensors)
            return real_runs(tensors, offsets)

        def step(state, runs):
            alive.append(sum(ref() is not None for ref in refs))
            return real_step(state, runs)

        def held_run(tensors, *args):
            arguments.append(tensors)
            return real_run(tensors, *args)

        monkeypatch.setattr(sampler, "count_runs", count_runs)
        monkeypatch.setattr(sampler, "gibbs_step", step)
        monkeypatch.setattr(metrics, "run", held_run)
        repeated_eval(coupled_tensor, [(0, 1, 2), (0, 2)], [5, 6], 4, 30.0, SamplerSchedule(1, 2, 1), 0.2, 0.5)
        assert len(refs) == 4
        assert alive == [0, 0, 0]

    def test_needs_two_repeats(self, coupled_tensor):
        with pytest.raises(DataError):
            _evaluate_one(coupled_tensor, [1])

    def test_needs_a_model(self, coupled_tensor):
        with pytest.raises(DataError, match="no model"):
            repeated_eval(coupled_tensor, [], [1, 2], 32, 5.0, SamplerSchedule(), 0.2, 0.5)

    def test_summary_needs_one_name_per_metric_row(self):
        aurocs, f1s = np.full((2, 3), 0.75), np.full((2, 3), 0.5)
        with pytest.raises(DataError, match="3 model names for 2 AUROC rows and 2 F1 rows"):
            summarize(["combined", "rare", "gwas"], aurocs, f1s, 0.5, 0.5)


@pytest.fixture(scope="module")
def evidence_dir(tmp_path_factory):
    """A simulated 30x24x4 tensor saved under the ingested layer names."""
    tensor, _, _ = generate(SynthConfig(
        dims=(30, 24, 4), true_rank=4, noise_sd=0.15, observed_fraction=0.5, seed=11, coupling=0.9,
    ))
    targets, indications, _ = synthetic_modes(tensor.dims)
    layers = ("outcome", "rare_disease", "gene_burden", "gwas")
    out = tmp_path_factory.mktemp("evidence")
    save_tensor(tensor, (targets, indications, layers), out)
    return out


def _evaluate(tensor_dir, out, models, latent_dim):
    """Run ``evaluate`` with three repeats of a short schedule; return the report bytes."""
    args = [
        "evaluate", "--tensor", str(tensor_dir), "--out", str(out), "--models", models,
        "--n-repeats", "3", "--latent-dim", str(latent_dim), "--alpha", "40",
        "--burnin", "4", "--samples", "6", "--thin", "3", "--seed", "4",
    ]
    assert main(args) == 0
    return out.read_bytes()


class TestLockStepEvaluation:
    """Every (model, repeat) chain is sampled in lock-step with the others; none may feel them."""

    @pytest.mark.parametrize("latent_dim", [8, 16])
    def test_models_together_equal_models_alone(self, evidence_dir, tmp_path, latent_dim):
        # Two latent sizes; at each, a chain's rows must not depend on the other chains' rows.
        together = json.loads(_evaluate(evidence_dir, tmp_path / "both.json", "combined,rare", latent_dim))
        alone = [
            json.loads(_evaluate(evidence_dir, tmp_path / f"{name}.json", name, latent_dim))["models"][0]
            for name in ("combined", "rare")
        ]
        assert together["models"] == alone

    # Largest-mode Gram doubles of one chain at D = 8: 30 targets x 8 x 8.
    _CHAIN_DOUBLES = 30 * 8 * 8

    @pytest.mark.parametrize("budget,sizes", [
        (None, [6]),
        (3 * _CHAIN_DOUBLES, [3, 3]),
        (1, [1] * 6),
    ])
    def test_batch_budget_changes_no_byte(self, evidence_dir, tmp_path, monkeypatch, budget, sizes):
        expected = _evaluate(evidence_dir, tmp_path / "default.json", "combined,rare", 8)
        if budget is not None:
            monkeypatch.setattr(metrics, "_BATCH_GRAM_DOUBLES", budget)
        batches = []
        real_runs = sampler.count_runs
        monkeypatch.setattr(sampler, "count_runs", lambda tensors, *args: batches.append(len(tensors)) or real_runs(tensors, *args))
        assert _evaluate(evidence_dir, tmp_path / "split.json", "combined,rare", 8) == expected
        assert batches == sizes

