import numpy as np
import pytest

from gmepyramid import (
    TrialConfig,
    TrialOutcome,
    haar_random_state,
    random_local_unitary,
    random_product_state,
    run_check,
)
from gmepyramid import verify
from gmepyramid.verify import CHECK_NAMES, DEFAULT_TOLERANCES


class TestHaarRandomState:
    def test_deterministic_per_seed(self):
        a = haar_random_state((2, 2), seed=42)
        b = haar_random_state((2, 2), seed=42)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_different_seeds_differ(self):
        a = haar_random_state((2, 2), seed=1)
        b = haar_random_state((2, 2), seed=2)
        assert not np.array_equal(a.amplitudes, b.amplitudes)

    def test_unit_norm(self):
        for trial in range(50):
            state = haar_random_state((2, 3, 2), seed=[7, trial])
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            haar_random_state((2,) * 27, seed=0)


class TestRandomLocalUnitary:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(random_local_unitary(2, 5), random_local_unitary(2, 5))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitarity_defect(self, d):
        for trial in range(100):
            u = random_local_unitary(d, seed=[13, d, trial])
            defect = np.max(np.abs(u @ u.conj().T - np.eye(d)))
            assert defect < 1e-12

    def test_columns_orthonormal(self):
        u = random_local_unitary(4, seed=3)
        gram = u.conj().T @ u
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ValueError):
            random_local_unitary(1, seed=0)


def test_volume_nonnegative_on_1000_draws():
    from gmepyramid import full_spectrum, volume

    for trial in range(1000):
        state = haar_random_state((2, 2, 2, 2), seed=[97, trial])
        assert volume(full_spectrum(state)).volume >= 0.0


class TestRandomProductState:
    def test_factorized_cut_reads_as_zero(self):
        from gmepyramid import concurrence

        state = random_product_state((2, 3, 2, 2), (2, 4), seed=17)
        assert concurrence(state, (2, 4)) < 1e-7

    def test_deterministic(self):
        a = random_product_state((2, 2, 2), (2,), seed=4)
        b = random_product_state((2, 2, 2), (2,), seed=4)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_rejects_full_subset(self):
        with pytest.raises(ValueError, match="each side"):
            random_product_state((2, 2), (1, 2), seed=0)
        with pytest.raises(ValueError, match="empty"):
            random_product_state((2, 2), (), seed=0)

    def test_refuses_oversize_before_drawing(self, monkeypatch):
        def refuse(total, rng):
            raise AssertionError(f"drew a {total}-entry vector before the size check")

        monkeypatch.setattr(verify, "_haar_vector", refuse)
        with pytest.raises(ValueError, match="exceeds"):
            random_product_state((2,) * 27, (1,), seed=0)


class TestRunCheck:
    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_every_check_passes_at_default_tolerance(self, name):
        dims = (2, 2, 2, 2)
        outcome = run_check(name, TrialConfig(dims=dims, trials=25, seed=11))
        assert outcome.passed, f"{name}: max deviation {outcome.max_deviation}"
        assert outcome.tolerance == DEFAULT_TOLERANCES[name]

    def test_outcome_is_deterministic(self):
        config = TrialConfig(dims=(2, 2, 2, 2), trials=10, seed=23)
        assert run_check("lu-invariance", config) == run_check("lu-invariance", config)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            run_check("nonsense", TrialConfig(dims=(2, 2, 2, 2)))

    def test_n4_check_requires_four_parties(self):
        with pytest.raises(ValueError, match="4 parties"):
            run_check("n4-formula-equivalence", TrialConfig(dims=(2, 2, 2), trials=5))

    def test_tolerance_override_can_fail(self):
        config = TrialConfig(dims=(2, 2, 2, 2), trials=10, seed=3, tol=1e-30)
        outcome = run_check("oracle-agreement", config)
        assert not outcome.passed
        assert outcome.tolerance == 1e-30
        assert 0 <= outcome.worst_trial < 10

    def test_mixed_dims_oracle_agreement(self):
        for dims in [(3, 2, 2), (3, 3, 2, 2)]:
            outcome = run_check("oracle-agreement", TrialConfig(dims=dims, trials=25, seed=29))
            assert outcome.passed

    def test_config_validation(self):
        with pytest.raises(ValueError, match="trial count"):
            TrialConfig(dims=(2, 2), trials=0)

    def test_outcome_shape(self):
        outcome = run_check("ghz-closed-form", TrialConfig(dims=(2, 2, 2, 2), trials=1))
        assert isinstance(outcome, TrialOutcome)
        assert outcome.trials == 5  # fixed sweep N = 4..8
        assert outcome.max_deviation < 1e-9
