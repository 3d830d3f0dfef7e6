import numpy as np
import pytest

from trialtensor.simulate import SynthConfig, generate, synthetic_modes


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"true_rank": 0},
            {"noise_sd": -0.1},
            {"observed_fraction": 0.0},
            {"observed_fraction": 1.5},
            {"coupling": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SynthConfig(dims=(4, 4, 2), **kwargs)


class TestGenerate:
    def test_deterministic(self):
        config = SynthConfig(dims=(10, 8, 3), true_rank=4, seed=42)
        tensor_a, truth_a, latents_a = generate(config)
        tensor_b, truth_b, latents_b = generate(config)
        assert np.array_equal(tensor_a.coords, tensor_b.coords)
        assert np.array_equal(tensor_a.values, tensor_b.values)
        assert np.array_equal(truth_a, truth_b)
        for mat_a, mat_b in zip(latents_a, latents_b):
            assert np.array_equal(mat_a, mat_b)

    def test_observed_count_near_expectation(self):
        config = SynthConfig(dims=(30, 30, 4), observed_fraction=0.3, seed=1)
        tensor, _, _ = generate(config)
        n_cells = 30 * 30 * 4
        expected = n_cells * 0.3
        slack = 3.0 * np.sqrt(n_cells * 0.3 * 0.7)
        assert abs(tensor.n_entries - expected) <= slack

    def test_noiseless_full_rank_one_matches_truth(self):
        config = SynthConfig(
            dims=(6, 5, 2), true_rank=1, noise_sd=0.0, observed_fraction=1.0, seed=7
        )
        tensor, truth, _ = generate(config)
        assert tensor.n_entries == 6 * 5 * 2
        assert np.array_equal(tensor.values, truth[tuple(tensor.coords.T)])

    def test_truth_in_unit_interval(self):
        config = SynthConfig(dims=(12, 10, 4), true_rank=6, noise_sd=0.2, seed=3)
        _, truth, _ = generate(config)
        assert truth.min() >= 0.0
        assert truth.max() <= 1.0

    def test_zero_coupling_layers_independent_of_outcome(self):
        # 100 x 100 grid gives 10^4 cells per layer for the correlation check.
        config = SynthConfig(
            dims=(100, 100, 3), true_rank=8, noise_sd=0.0, observed_fraction=1.0,
            seed=9, coupling=0.0,
        )
        _, truth, _ = generate(config)
        outcome = truth[:, :, 0].ravel()
        for k in (1, 2):
            evidence = truth[:, :, k].ravel()
            corr = np.corrcoef(outcome, evidence)[0, 1]
            assert abs(corr) < 0.05

    def test_full_coupling_shares_outcome_structure(self):
        config = SynthConfig(
            dims=(15, 12, 3), true_rank=4, noise_sd=0.0, observed_fraction=1.0,
            seed=11, coupling=1.0,
        )
        _, truth, latents = generate(config)
        assert np.array_equal(truth[:, :, 1], truth[:, :, 0])
        assert np.array_equal(latents[2][1], latents[2][0])

    def test_partial_coupling_mixes(self):
        config = SynthConfig(
            dims=(8, 8, 2), true_rank=4, noise_sd=0.0, observed_fraction=1.0,
            seed=13, coupling=0.5,
        )
        _, truth, latents = generate(config)
        assert not np.array_equal(truth[:, :, 1], truth[:, :, 0])
        half = 2
        assert np.allclose(latents[2][1][:half], 0.5 * latents[2][0][:half])


def test_synthetic_modes_match_dims():
    modes = synthetic_modes((3, 2, 4))
    assert modes[0] == ("T0000", "T0001", "T0002")
    assert modes[1] == ("I0000", "I0001")
    assert modes[2] == ("outcome", "evidence_1", "evidence_2", "evidence_3")
    assert modes[2].index("evidence_3") == 3
