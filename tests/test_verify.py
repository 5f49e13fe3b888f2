import array
import math
import tracemalloc

import numpy as np
import pytest

from gmepyramid import (
    Bipartition,
    PureState,
    TrialConfig,
    TrialOutcome,
    full_spectrum,
    haar_random_state,
    random_product_state,
    run_check,
)
from gmepyramid import verify
from gmepyramid.states import apply_local_unitaries, apply_local_unitary
from gmepyramid.verify import CHECK_NAMES


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
    """One Haar unitary: a stack of one drawn by ``verify._haar_unitaries``."""

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(verify._haar_unitaries(2, [5])[0], verify._haar_unitaries(2, [5])[0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitarity_defect(self, d):
        for trial in range(100):
            u = verify._haar_unitaries(d, [[13, d, trial]])[0]
            defect = np.max(np.abs(u @ u.conj().T - np.eye(d)))
            assert defect < 1e-12

    def test_columns_orthonormal(self):
        u = verify._haar_unitaries(4, [3])[0]
        gram = u.conj().T @ u
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ValueError):
            verify._haar_unitaries(1, [0])


def one_site_step(state, site, u):
    """One unitary on one site as a state of its own: tensordot, then PureState."""
    tensor = state.amplitudes.reshape(state.dims)
    tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [site - 1])), 0, site - 1)
    return PureState(state.dims, tensor.ravel())


def per_site_rotation(state, seed, t):
    """The local-unitary stage of lu-invariance as a loop over the sites: per
    site one draw from substream (seed, t, site), one QR, one phase fold and
    one step."""
    for site in range(1, state.n + 1):
        d = state.dims[site - 1]
        rng = np.random.default_rng([seed, t, site])
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        state = one_site_step(state, site, q * (diag / np.abs(diag)))
    return state


class TestStackedLocalUnitaries:
    """The stacked draw and the multi-site apply against the per-site loop."""

    KEYS = [(0, 0), (1, 1), (7, 3), (11, 0), (1234567, 41)]

    @pytest.mark.parametrize("dims", [(3, 2, 2, 2, 2, 3, 2), (2, 3, 2, 3)], ids=str)
    def test_rotation_is_bit_identical_to_the_per_site_loop(self, dims):
        for seed, t in self.KEYS:
            state = haar_random_state(dims, [seed, t, 0])
            rotated = verify._rotate_locally(state, seed, t)
            expected = per_site_rotation(state, seed, t)
            assert rotated.dims == expected.dims
            np.testing.assert_array_equal(rotated.amplitudes, expected.amplitudes)

    @pytest.mark.parametrize("dims", [(3, 2, 2, 2, 2, 3, 2), (2, 3, 2, 3)], ids=str)
    def test_one_matrix_draw_equals_its_row_of_the_stack(self, dims):
        for seed, t in self.KEYS:
            for d in set(dims):
                group = [s for s in range(1, len(dims) + 1) if dims[s - 1] == d]
                stack = verify._haar_unitaries(d, [[seed, t, s] for s in group])
                assert stack.shape == (len(group), d, d)
                for u, site in zip(stack, group):
                    np.testing.assert_array_equal(verify._haar_unitaries(d, [[seed, t, site]])[0], u)

    def test_one_site_apply_is_bit_identical_to_one_step(self):
        state = haar_random_state((2, 3, 2), seed=130)
        for site, d in enumerate(state.dims, start=1):
            u = verify._haar_unitaries(d, [[131, site]])[0]
            expected = one_site_step(state, site, u).amplitudes
            np.testing.assert_array_equal(apply_local_unitary(state, site, u).amplitudes, expected)

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda s: apply_local_unitary(s, 2, np.eye(3)),
                r"unitary shape \(3, 3\) does not match subsystem dimension 2",
                id="shape",
            ),
            pytest.param(
                lambda s: apply_local_unitary(s, 1, np.diag([1.0, math.nan])),
                r"matrix entries must be finite \(no nan or inf\)",
                id="non-finite",
            ),
            pytest.param(
                lambda s: apply_local_unitary(s, 1, np.diag([1.0, 2.0])),
                r"matrix is not unitary \(defect 3\)",
                id="not-unitary",
            ),
            pytest.param(
                lambda s: apply_local_unitary(s, 4, np.eye(2)), r"site 4 out of range 1..3", id="site"
            ),
            pytest.param(
                lambda s: apply_local_unitaries(
                    s, [1, 2, 3], [np.eye(2), np.diag([1.0, 2.0]), np.eye(2)]
                ),
                r"matrix is not unitary \(defect 3\)",
                id="not-unitary-in-a-stack",
            ),
            pytest.param(
                lambda s: apply_local_unitaries(s, [1, 3], [np.eye(2), np.diag([1.0, math.inf])]),
                r"matrix entries must be finite \(no nan or inf\)",
                id="non-finite-in-a-stack",
            ),
            pytest.param(
                lambda s: apply_local_unitaries(s, [1, 2], [np.eye(2)]),
                r"expected 2 unitaries, got 1",
                id="count",
            ),
        ],
    )
    def test_refusal_texts(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(haar_random_state((2, 2, 2), seed=132))

    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_draw_refuses_a_dimension_below_two(self, d):
        with pytest.raises(ValueError, match="^dimension must be at least 2$"):
            verify._haar_unitaries(d, [0])

    def test_no_sites_leave_the_state(self):
        state = haar_random_state((2, 2), seed=133)
        assert apply_local_unitaries(state, [], []) is state


def test_volume_nonnegative_on_1000_draws():
    from gmepyramid import full_spectrum, volume

    for trial in range(1000):
        state = haar_random_state((2, 2, 2, 2), seed=[97, trial])
        assert volume(full_spectrum(state)).volume >= 0.0


class TestRandomProductState:
    def test_factorized_cut_reads_as_zero(self):
        state = random_product_state((2, 3, 2, 2), (2, 4), seed=17)
        assert full_spectrum(state).entries[Bipartition((2, 4), 4)] < 1e-7

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


# Per check: its party rule as the error states it, and party counts it refuses.
PARTY_RULES = {
    "lu-invariance": ("at least 3", [2]),
    "permutation-invariance": ("at least 3", [2]),
    "oracle-agreement": (None, []),
    "biseparable-nullity": ("at least 3", [2]),
    "ghz-closed-form": (None, []),
    "n4-formula-equivalence": ("exactly 4", [3, 5]),
}


# Per check: its default tolerance, stated here so that a changed default
# shows in a test.
DEFAULT_TOLERANCES = {
    "lu-invariance": 1e-9,
    "permutation-invariance": 1e-10,
    "oracle-agreement": 1e-12,
    "biseparable-nullity": 1e-9,
    "ghz-closed-form": 1e-9,
    "n4-formula-equivalence": 1e-12,
}


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

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_party_rule(self, name):
        rule, refused = PARTY_RULES[name]
        for n in refused:
            with pytest.raises(ValueError, match=f"^{name} needs {rule} parties, got {n}$"):
                run_check(name, TrialConfig(dims=(2,) * n, trials=2))
        if not refused:
            assert run_check(name, TrialConfig(dims=(2, 2), trials=2)).passed

    @pytest.mark.parametrize(
        "name, dims",
        [
            (name, dims)
            for name in CHECK_NAMES
            for dims in [(2, 2, 2, 2), (3, 2, 2)]
            if name != "n4-formula-equivalence" or len(dims) == 4
        ],
    )
    def test_worst_trial_replays_alone(self, name, dims):
        trial = verify._CHECKS[name].trial
        ten = TrialConfig(dims=dims, trials=10, seed=1)
        outcome = run_check(name, ten)
        assert trial(ten, outcome.worst_trial) == outcome.max_deviation
        five = TrialConfig(dims=dims, trials=5, seed=1)
        prefix = [trial(ten, t) for t in range(5)]
        assert [trial(five, t) for t in range(5)] == prefix
        assert run_check(name, five).max_deviation == max(prefix)

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
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrialConfig(dims=(2, 2, 2), seed=-1)
        # A bool is refused, not read as a cutoff of 1.0; 10**400 reads as
        # inf and -10**400 as -inf.
        for tol in (-1.0, float("nan"), float("inf"), True, np.True_, 10**400, -(10**400)):
            with pytest.raises(ValueError, match="finite and >= 0"):
                TrialConfig(dims=(2, 2, 2), tol=tol)
        # A tolerance given as text takes the one form of every number read
        # from text, and bytes are no text: float() would read them past it.
        # Nor is any other value whose type has neither __float__ nor
        # __index__; None stays the absence of an override.
        for tol in ("1e-3_0", "1_0", "\uff11e-7", b"1_0", bytearray(b"1e-7"), memoryview(b"1"),
                    array.array("b", b"12"), [1e-3]):
            with pytest.raises(ValueError, match="^tolerance must be a plain ASCII number"):
                TrialConfig(dims=(2, 2, 2), tol=tol)
        assert TrialConfig(dims=(2, 2, 2), tol="1e-3").tol == 1e-3
        assert TrialConfig(dims=(2, 2, 2), tol=np.float64(1e-3)).tol == 1e-3
        assert TrialConfig(dims=(2, 2, 2), tol=None).tol is None
        assert str(TrialConfig(dims=(2, 2, 2), tol=-0.0).tol) == "0.0"

    def test_outcome_shape(self):
        outcome = run_check("ghz-closed-form", TrialConfig(dims=(2, 2, 2, 2), trials=1))
        assert isinstance(outcome, TrialOutcome)
        assert outcome.trials == 5  # fixed sweep N = 4..8
        assert outcome.max_deviation < 1e-9

    # run_check reads the trials in one pass: a list of every deviation
    # would hold 10^5 floats, about 3 MiB.
    def test_the_trial_loop_keeps_no_list_of_deviations(self, monkeypatch):
        stub = verify._Check(lambda config, t: float(t % 1000), 1e9)
        monkeypatch.setitem(verify._CHECKS, "stub", stub)
        config = TrialConfig(dims=(2, 2), trials=10**5)
        tracemalloc.start()
        try:
            outcome = run_check("stub", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        # The first of the 100 trials whose deviation is the largest, 999.
        assert outcome == TrialOutcome("stub", 10**5, 999.0, 1e9, True, 999)
