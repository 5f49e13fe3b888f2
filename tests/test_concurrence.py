import math

import numpy as np
import pytest

from gmepyramid import (
    Bipartition,
    PureState,
    apply_local_unitary,
    canonical_bipartitions,
    concurrence,
    dense_oracle_purity,
    full_spectrum,
    ghz_state,
    haar_random_state,
    random_local_unitary,
    reduced_purity,
    w_state,
)
from gmepyramid.bipartitions import _canonical_cuts
from gmepyramid.catalog import phi_biseparable, psi_a
from gmepyramid.cli import dumps_report, report_document
from gmepyramid.measures import DEFAULT_ZERO_TOL, evaluate
from gmepyramid.verify import random_product_state

SQRT3_OVER_2 = math.sqrt(3) / 2
SQRT5_OVER_2 = math.sqrt(5) / 2

GRAM_DIMS = [(2, 2, 2, 2), (3, 2, 2), (3, 3, 2, 2), (2,) * 6]


def real_gaussian_state(dims, seed):
    """Normalized iid real Gaussian amplitudes: a state on the float64 route."""
    rng = np.random.default_rng(seed)
    return PureState(dims, rng.standard_normal(math.prod(dims)), normalize=True)


def zero_tensor_ghz3():
    """|0> on site 1, GHZ on sites 2..4; site 1 is slowest so kron leads with it."""
    return PureState((2, 2, 2, 2), np.kron([1.0, 0.0], ghz_state(3).amplitudes))


class TestReducedPurity:
    def test_ghz4_single_site(self):
        assert reduced_purity(ghz_state(4), (1,)) == pytest.approx(0.5, abs=1e-14)

    def test_product_state_marginals_are_pure(self):
        amps = np.zeros(16)
        amps[0] = 1.0
        zero = PureState((2, 2, 2, 2), amps)
        for cut in canonical_bipartitions(4):
            assert reduced_purity(zero, cut) == pytest.approx(1.0, abs=1e-14)

    def test_w4_single_site(self):
        assert reduced_purity(w_state(4), (1,)) == pytest.approx(0.625, abs=1e-14)

    def test_rejects_bad_cuts(self):
        state = ghz_state(3)
        with pytest.raises(ValueError, match="out of range"):
            reduced_purity(state, (4,))
        with pytest.raises(ValueError, match="distinct"):
            reduced_purity(state, (1, 1))
        with pytest.raises(ValueError, match="each side"):
            reduced_purity(state, (1, 2, 3))
        with pytest.raises(ValueError, match="cut is for 4 parties, state has 3"):
            reduced_purity(state, Bipartition((1,), 4))
        with pytest.raises(ValueError, match="empty"):
            reduced_purity(state, ())

    @pytest.mark.parametrize("dims", [(2, 3, 2, 2), (2,) * 5, (2,) * 6, (3, 3, 2, 2)])
    def test_every_cut_spelling_gives_the_same_purity(self, dims):
        state = haar_random_state(dims, seed=[81, len(dims)])
        for cut in canonical_bipartitions(len(dims)):
            spellings = [
                cut,
                tuple(cut.subset),
                list(cut.subset),
                (i for i in cut.subset),
                list(cut.complement()),
            ]
            purities = [reduced_purity(state, spelling) for spelling in spellings]
            assert purities == [purities[0]] * len(spellings), cut.label()

    @pytest.mark.parametrize(
        "cut, message",
        [
            ((1, 1), "cut indices must be distinct, got \\(1, 1\\)"),
            ((4,), "cut indices \\(4,\\) out of range 1..3"),
            (Bipartition((1,), 4), "cut is for 4 parties, state has 3"),
            ((1, 2, 3), "cut must leave at least one subsystem on each side"),
        ],
        ids=["duplicate", "out-of-range", "wrong-n", "whole-system"],
    )
    def test_errors_are_not_cached(self, cut, message):
        state = ghz_state(3)
        texts = []
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$") as exc:
                reduced_purity(state, cut)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]


class TestShapeCaches:
    @pytest.mark.parametrize(
        "dims",
        [(2,) * n for n in range(3, 9)] + [(3, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3, 2), (2, 2, 3, 2, 2, 3)],
        ids=str,
    )
    def test_cold_and_warm_caches_render_identical_reports(self, dims):
        n = len(dims)
        states = [
            haar_random_state(dims, seed=[91, n]),
            random_product_state(dims, (1, n), seed=[92, n]),
            real_gaussian_state(dims, seed=[93, n]),
        ]

        def render():
            reports = [evaluate(state, f"s{i}") for i, state in enumerate(states)]
            return dumps_report(report_document(reports, DEFAULT_ZERO_TOL))

        _canonical_cuts.cache_clear()
        cold = render()
        assert render() == cold

    def test_sizes_are_the_documented_bounds(self):
        assert _canonical_cuts.cache_info().maxsize == 32


class TestConcurrence:
    def test_ghz4_every_cut_is_one(self):
        state = ghz_state(4)
        for cut in canonical_bipartitions(4):
            assert abs(concurrence(state, cut) - 1.0) < 1e-12

    def test_uncorrelated_leading_site(self):
        assert concurrence(zero_tensor_ghz3(), (1,)) == pytest.approx(0.0, abs=1e-7)

    def test_w4_single_site(self):
        assert concurrence(w_state(4), (1,)) == pytest.approx(SQRT3_OVER_2, abs=1e-14)


class TestFullSpectrum:
    def test_ghz4(self):
        spectrum = full_spectrum(ghz_state(4))
        assert len(spectrum.entries) == 7
        assert all(abs(c - 1.0) < 1e-12 for c in spectrum.entries.values())

    def test_psi_a_values(self):
        spectrum = full_spectrum(psi_a())
        singles = spectrum.singletons()
        assert singles[0] == pytest.approx(SQRT3_OVER_2, abs=1e-12)
        assert singles[1:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert spectrum.multis() == pytest.approx([SQRT5_OVER_2] * 3, abs=1e-12)

    def test_biseparable_fixture_cut_is_zero(self):
        spectrum = full_spectrum(phi_biseparable())
        assert spectrum.entries[Bipartition((1, 3), 5)] == pytest.approx(0.0, abs=1e-7)

    def test_entry_count_matches_n(self):
        for dims in [(2, 2), (2, 2, 2), (2, 3, 2, 2), (2,) * 6]:
            state = haar_random_state(dims, seed=[5, len(dims)])
            assert len(full_spectrum(state).entries) == 2 ** (len(dims) - 1) - 1


class TestDenseOracle:
    def test_ghz4_pair(self):
        assert dense_oracle_purity(ghz_state(4), (1, 2)) == pytest.approx(0.5, abs=1e-14)

    def test_product_state(self):
        amps = np.zeros(16)
        amps[0] = 1.0
        assert dense_oracle_purity(PureState((2, 2, 2, 2), amps), (2, 3)) == pytest.approx(1.0)

    def test_cap(self):
        amps = np.zeros(2**14)
        amps[0] = 1.0
        state = PureState((2,) * 14, amps)
        with pytest.raises(ValueError, match="dense cap"):
            dense_oracle_purity(state, tuple(range(1, 14)))

    @pytest.mark.parametrize(
        "dims, draw",
        [pytest.param(d, haar_random_state, id=f"dims{i}") for i, d in enumerate(GRAM_DIMS)]
        + [pytest.param(d, real_gaussian_state, id=f"real-dims{i}") for i, d in enumerate(GRAM_DIMS)],
    )
    def test_agrees_with_gram_path(self, dims, draw):
        for trial in range(25):
            state = draw(dims, seed=[21, len(dims), trial])
            for cut in canonical_bipartitions(len(dims)):
                gram = reduced_purity(state, cut)
                dense = dense_oracle_purity(state, cut)
                assert abs(gram - dense) < 1e-12


class TestInvariances:
    def test_cut_complement_symmetry(self):
        for dims in [(2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 2, 2, 2)]:
            state = haar_random_state(dims, seed=[41, len(dims)])
            for cut in canonical_bipartitions(len(dims)):
                direct = concurrence(state, cut)
                mirrored = concurrence(state, cut.complement())
                assert abs(direct - mirrored) < 1e-12

    @pytest.mark.parametrize(
        "state",
        [ghz_state(5), w_state(4), real_gaussian_state((2, 3, 2, 2), seed=71)],
        ids=["ghz5", "w4", "real2322"],
    )
    def test_real_and_complex_routes_agree(self, state):
        phased = PureState(state.dims, np.exp(0.7j) * state.amplitudes)
        assert state._tensor.dtype == np.float64
        assert phased._tensor.dtype == np.complex128
        for cut in canonical_bipartitions(state.n):
            assert abs(concurrence(state, cut) - concurrence(phased, cut)) < 1e-14

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3)])
    def test_local_unitary_invariance_per_cut(self, dims):
        for trial in range(100):
            state = haar_random_state(dims, seed=[51, dims[0], trial])
            before = [concurrence(state, cut) for cut in canonical_bipartitions(len(dims))]
            rotated = state
            for site in range(1, len(dims) + 1):
                u = random_local_unitary(dims[site - 1], seed=[52, dims[0], trial, site])
                rotated = apply_local_unitary(rotated, site, u)
            after = [concurrence(rotated, cut) for cut in canonical_bipartitions(len(dims))]
            assert max(abs(a - b) for a, b in zip(after, before)) < 1e-10

    def test_haar_unitary_on_ghz4_checked_against_oracle(self):
        state = ghz_state(4)
        u = random_local_unitary(2, seed=99)
        rotated = apply_local_unitary(state, 2, u)
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) < 1e-12
        for cut in canonical_bipartitions(4):
            oracle_c = math.sqrt(max(0.0, 2.0 * (1.0 - dense_oracle_purity(rotated, cut))))
            assert abs(oracle_c - 1.0) < 1e-10
            assert abs(concurrence(rotated, cut) - 1.0) < 1e-10

    def test_upper_bound(self):
        for dims in [(2, 2, 2, 2), (3, 2, 2), (3, 3, 2, 2), (4, 2, 3)]:
            n = len(dims)
            for trial in range(25):
                state = haar_random_state(dims, seed=[61, n, trial])
                for cut in canonical_bipartitions(n):
                    d_cut = math.prod(dims[i - 1] for i in cut.subset)
                    m = min(d_cut, math.prod(dims) // d_cut)
                    bound = math.sqrt(2.0 * (m - 1) / m)
                    c = concurrence(state, cut)
                    assert 0.0 <= c <= bound + 1e-10


def test_spectrum_rejects_wrong_cut_count():
    from gmepyramid import ConcurrenceSpectrum

    cuts = canonical_bipartitions(4)
    with pytest.raises(ValueError, match="expected 7"):
        ConcurrenceSpectrum((2, 2, 2, 2), {cuts[0]: 1.0})
