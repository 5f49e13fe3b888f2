import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gmepyramid.bipartitions
import gmepyramid.concurrence
from gmepyramid import (
    Bipartition,
    PureState,
    canonical_bipartitions,
    dense_oracle_purity,
    full_spectrum,
    ghz_state,
    haar_random_state,
    serialize_state,
    w_state,
)
from gmepyramid.bipartitions import split
from gmepyramid.catalog import benchmark_states
from gmepyramid.cli import dumps_report, report_document
from gmepyramid.concurrence import clear_shape_caches, reduced_purity
from gmepyramid.measures import DEFAULT_ZERO_TOL, evaluate
from gmepyramid.states import apply_local_unitary
from gmepyramid.verify import _haar_unitaries, random_product_state
from minors import gram_concurrence, minor_concurrence, minor_purity

SQRT3_OVER_2 = math.sqrt(3) / 2
SQRT5_OVER_2 = math.sqrt(5) / 2

GRAM_DIMS = [(2, 2, 2, 2), (3, 2, 2), (3, 3, 2, 2), (2,) * 6]

# Deep qubit forests, a qutrit under every tree, and lopsided dims; in
# (2, 2, 2, 6, 6) the root {4,5} would need a rho larger than the state, so
# its child {4} becomes a root. The last two shapes hold more than 2^10
# amplitudes at odd N, so their top-size cuts hang under hubs; in the second
# a hub that holds site 10 as well as the qutrit at site N = 11 would outgrow
# twice the state, so its root and children stay roots.
TREE_DIMS = GRAM_DIMS + [
    (2,) * 8,
    (2,) * 9,
    (2,) * 10,
    (3, 2, 2, 2, 2, 2, 2),
    (6, 6, 2, 2, 2),
    (2, 2, 2, 6, 6),
    (2,) * 11,
    (2,) * 9 + (3, 3),
]


def real_gaussian_state(dims, seed):
    """Normalized iid real Gaussian amplitudes: a state on the float64 route."""
    rng = np.random.default_rng(seed)
    return PureState(dims, rng.standard_normal(math.prod(dims)), normalize=True)


def loop_oracle_purity(state, cut):
    """Reference for the dense oracle: offsets from itertools digit tuples,
    and rho_S summed as one outer product per complement basis state."""
    subset, comp = split(cut, state.n)
    strides = [math.prod(state.dims[i + 1 :]) for i in range(state.n)]

    def offsets(sites):
        digit_tuples = itertools.product(*(range(state.dims[i - 1]) for i in sites))
        return np.array(
            [sum(b * strides[i - 1] for b, i in zip(digits, sites)) for digits in digit_tuples],
            dtype=np.intp,
        )

    sub_off = offsets(subset)
    rho = np.zeros((sub_off.size, sub_off.size), dtype=complex)
    for comp_off in offsets(comp):
        col = state.amplitudes[sub_off + comp_off]
        rho += np.outer(col, col.conj())
    return float(np.real(np.trace(rho @ rho)))


def uncached_oracle_purity(state, cut):
    """The dense oracle's cut matrix A by digit-stride arithmetic in place of
    its transpose: strides, two digit grids and one gather of the flat
    amplitudes, then the same A A^dag and Tr(rho^2)."""
    subset, comp = split(cut, state.n)
    strides = [0] * state.n
    acc = 1
    for i in range(state.n - 1, -1, -1):
        strides[i] = acc
        acc *= state.dims[i]

    def offsets(sites):
        digits = np.indices([state.dims[i - 1] for i in sites], dtype=np.intp)
        site_strides = np.array([strides[i - 1] for i in sites], dtype=np.intp)
        return site_strides @ digits.reshape(len(sites), -1)

    a = state.amplitudes[offsets(subset)[:, None] + offsets(comp)]
    rho = a @ a.conj().T
    return float(np.real(np.trace(rho @ rho)))


def graph_state(n, edges):
    """2^(-n/2) sum_x (-1)^(sum over edges (i, j) of x_i x_j) |x>, site 1 the slowest bit."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    phase = sum((bits[:, i - 1] & bits[:, j - 1] for i, j in edges), np.zeros(2**n, dtype=int))
    return PureState((2,) * n, (-1.0) ** phase * 2.0 ** (-n / 2))


def cut_rank(edges, subset):
    """GF(2) rank of the adjacency block between ``subset`` and the rest, by
    elimination on rows held as bit masks."""
    rows = dict.fromkeys(subset, 0)
    for i, j in edges:
        for a, b in ((i, j), (j, i)):
            if a in rows and b not in rows:
                rows[a] |= 1 << b
    rank, rows = 0, list(rows.values())
    while rows:
        pivot, *rows = rows
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def random_graph(n, seed):
    """Edges of a seeded G(n, 0.4) graph on sites 1..n."""
    rng = np.random.default_rng(seed)
    return [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]


# Two connected components, on sites 1..4 and 5..10.
TWO_COMPONENTS = [(1, 2), (2, 3), (3, 4), (1, 3), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (5, 8)]
GRAPHS = [(n, random_graph(n, [111, n])) for n in (6, 9, 12)] + [(10, TWO_COMPONENTS)]


def dicke_state(n, m):
    """Equal superposition of the n-qubit basis states of Hamming weight m."""
    weights = np.array([bin(x).count("1") for x in range(2**n)])
    return PureState((2,) * n, weights == m, normalize=True)


def qudit_ghz_state(dims):
    """(|0...0> + |1...1> + ... + |d-1...d-1>)/sqrt(d) on dims (d, ..., d)."""
    d, total = dims[0], math.prod(dims)
    amps = np.zeros(total)
    amps[:: (total - 1) // (d - 1)] = 1.0
    return PureState(dims, amps, normalize=True)


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

        clear_shape_caches()
        cold = render()
        assert render() == cold

    def test_sizes_are_the_documented_bounds(self):
        # Only admitted party counts get a table; refusals are not cached.
        canonical_bipartitions(4)
        size = gmepyramid.bipartitions._cuts.cache_info().currsize
        refusals = {
            1: "a multipartite state needs at least 2 subsystems",
            27: "subsystem count 27 exceeds the supported maximum 26",
            np.int64(64): "subsystem count 64 exceeds the supported maximum 26",
        }
        for n, message in refusals.items():
            with pytest.raises(ValueError, match=f"^{message}$"):
                canonical_bipartitions(n)
        assert gmepyramid.bipartitions._cuts.cache_info().currsize == size


class TestConcurrence:
    """One cut's value is its entry in the row, keyed by either side."""

    def test_ghz4_every_cut_is_one(self):
        entries = full_spectrum(ghz_state(4)).entries
        for cut in canonical_bipartitions(4):
            assert abs(entries[Bipartition(cut.complement(), 4)] - 1.0) < 1e-12

    def test_uncorrelated_leading_site(self):
        entries = full_spectrum(zero_tensor_ghz3()).entries
        assert entries[Bipartition((2, 3, 4), 4)] == pytest.approx(0.0, abs=1e-7)

    def test_w4_single_site(self):
        entries = full_spectrum(w_state(4)).entries
        assert entries[Bipartition((1,), 4)] == pytest.approx(SQRT3_OVER_2, abs=1e-14)


class TestFullSpectrum:
    def test_ghz4(self):
        spectrum = full_spectrum(ghz_state(4))
        assert len(spectrum.entries) == 7
        assert all(abs(c - 1.0) < 1e-12 for c in spectrum.entries.values())

    def test_psi_a_values(self):
        spectrum = full_spectrum(benchmark_states()["psi_A"])
        singles = spectrum.singletons()
        assert singles[0] == pytest.approx(SQRT3_OVER_2, abs=1e-12)
        assert singles[1:] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
        assert spectrum.multis() == pytest.approx([SQRT5_OVER_2] * 3, abs=1e-12)

    def test_biseparable_fixture_cut_is_zero(self):
        spectrum = full_spectrum(benchmark_states()["phi_12345"])
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
        with pytest.raises(ValueError, match="^reduced dimension 8192 exceeds the dense cap 4096$"):
            dense_oracle_purity(state, tuple(range(1, 14)))

    @pytest.mark.parametrize(
        "dims", [(2, 2, 2, 2), (3, 2, 2, 3), (4, 2, 3), (2, 3, 3, 2, 2), (2,) * 6], ids=str
    )
    def test_agrees_with_the_loop_reference(self, dims):
        n = len(dims)
        states = [haar_random_state(dims, seed=[23, n, trial]) for trial in range(5)]
        states.append(real_gaussian_state(dims, seed=[24, n]))
        for state in states:
            for cut in canonical_bipartitions(n):
                for spelling in (cut, cut.complement()):
                    reference = loop_oracle_purity(state, spelling)
                    assert abs(dense_oracle_purity(state, spelling) - reference) < 1e-15, spelling

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


    # The transpose and the digit-stride gather build the same A, so the two
    # products and the trace see the same operands.
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2, 3, 3), (3, 2, 2, 3)], ids=str)
    def test_equals_the_uncached_oracle_bit_for_bit(self, dims):
        n = len(dims)
        states = [haar_random_state(dims, seed=[125, n, trial]) for trial in range(3)]
        states.append(real_gaussian_state(dims, seed=[126, n]))
        for cut in canonical_bipartitions(n):
            for spelling in (cut, cut.complement()):
                for state in states:
                    assert dense_oracle_purity(state, spelling) == uncached_oracle_purity(state, spelling)

    @pytest.mark.parametrize(
        "dims, cut, message",
        [
            ((2, 3, 2, 2), (), "cut subset is empty"),
            ((2, 3, 2, 2), (1, 5), r"cut indices \(1, 5\) out of range 1..4"),
            ((2, 3, 2, 2), (2, 2), r"cut indices must be distinct, got \(2, 2\)"),
            ((2, 3, 2, 2), (1, 2, 3, 4), "cut must leave at least one subsystem on each side"),
            ((2, 3, 2, 2), Bipartition((1,), 3), "cut is for 3 parties, state has 4"),
            ((2,) * 14, tuple(range(1, 14)), "reduced dimension 8192 exceeds the dense cap 4096"),
        ],
        ids=["empty", "range", "repeat", "whole", "parties", "cap"],
    )
    def test_a_refused_cut_keeps_nothing(self, dims, cut, message):
        amps = np.zeros(math.prod(dims))
        amps[0] = 1.0
        state = PureState(dims, amps)
        dense_oracle_purity(state, (1,))
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                dense_oracle_purity(state, cut)

    # The oracle keeps no per-shape state: a cold sweep over every cut of 12
    # qubits leaves behind only what Python's own free lists hold.
    def test_a_sweep_over_every_cut_retains_nothing(self):
        state = haar_random_state((2,) * 12, seed=[127])
        cuts = canonical_bipartitions(12)
        clear_shape_caches()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for cut in cuts:
                dense_oracle_purity(state, cut)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20


class TestInvariances:
    # The oracle forms the reduced state of the side it is given, so each
    # side of a cut gives the row's one value.
    def test_cut_complement_symmetry(self):
        for dims in [(2, 2, 2, 2), (3, 2, 2, 2), (2, 2, 2, 2, 2)]:
            state = haar_random_state(dims, seed=[41, len(dims)])
            spectrum = full_spectrum(state)
            for cut, direct in zip(spectrum.cuts, spectrum.values):
                for side in (cut, cut.complement()):
                    mirrored = math.sqrt(2.0 * (1.0 - dense_oracle_purity(state, side)))
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
        for real, complex_ in zip(full_spectrum(state).values, full_spectrum(phased).values):
            assert abs(real - complex_) < 1e-14

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3)])
    def test_local_unitary_invariance_per_cut(self, dims):
        for trial in range(100):
            state = haar_random_state(dims, seed=[51, dims[0], trial])
            before = full_spectrum(state).values
            rotated = state
            for site in range(1, len(dims) + 1):
                u = _haar_unitaries(dims[site - 1], [[52, dims[0], trial, site]])[0]
                rotated = apply_local_unitary(rotated, site, u)
            after = full_spectrum(rotated).values
            assert max(abs(a - b) for a, b in zip(after, before)) < 1e-10

    def test_haar_unitary_on_ghz4_checked_against_oracle(self):
        state = ghz_state(4)
        u = _haar_unitaries(2, [99])[0]
        rotated = apply_local_unitary(state, 2, u)
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) < 1e-12
        spectrum = full_spectrum(rotated)
        for cut, c in zip(spectrum.cuts, spectrum.values):
            oracle_c = math.sqrt(max(0.0, 2.0 * (1.0 - dense_oracle_purity(rotated, cut))))
            assert abs(oracle_c - 1.0) < 1e-10
            assert abs(c - 1.0) < 1e-10

    def test_upper_bound(self):
        for dims in [(2, 2, 2, 2), (3, 2, 2), (3, 3, 2, 2), (4, 2, 3)]:
            n = len(dims)
            for trial in range(25):
                spectrum = full_spectrum(haar_random_state(dims, seed=[61, n, trial]))
                for cut, c in zip(spectrum.cuts, spectrum.values):
                    d_cut = math.prod(dims[i - 1] for i in cut.subset)
                    m = min(d_cut, math.prod(dims) // d_cut)
                    bound = math.sqrt(2.0 * (m - 1) / m)
                    assert 0.0 <= c <= bound + 1e-10


def test_spectrum_rejects_a_value_count_unlike_the_cut_count():
    from gmepyramid import ConcurrenceSpectrum

    with pytest.raises(ValueError, match="^expected 7 values, got 6$"):
        ConcurrenceSpectrum((2, 2, 2, 2), (0.5,) * 6)


@pytest.mark.parametrize("dims", [(), (2,)], ids=str)
def test_spectrum_refuses_fewer_than_two_parties(dims):
    from gmepyramid import ConcurrenceSpectrum

    with pytest.raises(ValueError, match="^a multipartite state needs at least 2 subsystems$"):
        ConcurrenceSpectrum(dims, ())


@pytest.mark.parametrize(
    "dims, message",
    [
        ((1, 2.5, 0), "^subsystem dimension must be an integer, got 2.5$"),
        ((1, 2, 2), r"^subsystem dimensions must be >= 2, got \(1, 2, 2\)$"),
    ],
    ids=["non-integer", "below-2"],
)
def test_spectrum_refuses_dims_no_state_can_have(dims, message):
    from gmepyramid import ConcurrenceSpectrum

    # Accepted, (1, 2.5, 0) would classify as GME with volume 0.0361.
    with pytest.raises(ValueError, match=message):
        ConcurrenceSpectrum(dims, (0.5, 0.5, 0.5))


def test_spectrum_stores_a_hashable_row():
    from gmepyramid import ConcurrenceSpectrum

    spectrum = ConcurrenceSpectrum([2, np.int64(3), 2], [0.5, 0.5, 0.5])
    assert spectrum.dims == (2, 3, 2) and type(spectrum.dims) is tuple
    assert spectrum.values == (0.5, 0.5, 0.5) and type(spectrum.values) is tuple
    assert hash(spectrum) == hash(ConcurrenceSpectrum((2, 3, 2), (0.5, 0.5, 0.5)))


def test_spectrum_refuses_a_nan_value():
    from gmepyramid import ConcurrenceSpectrum

    # Accepted, the NaN would classify as GME: nan <= zero_tol is False.
    with pytest.raises(ValueError, match="^a concurrence value is NaN$"):
        ConcurrenceSpectrum((2, 2, 2), (0.1, math.nan, 0.3))


@pytest.mark.parametrize(
    "bad", [-math.inf, -1e-300, math.nextafter(math.sqrt(2.0), 2.0), math.inf], ids=repr
)
def test_spectrum_refuses_a_value_outside_zero_to_sqrt2(bad):
    from gmepyramid import ConcurrenceSpectrum

    with pytest.raises(ValueError, match=r"^concurrences lie in \[0, sqrt\(2\)\], got "):
        ConcurrenceSpectrum((2, 2, 2), (0.5, bad, 0.5))


# No finite cut attains sqrt(2): a qubit cut's bound is 1, a qutrit cut's sqrt(4/3).
def test_spectrum_accepts_zero_and_each_cut_bound():
    from gmepyramid import ConcurrenceSpectrum

    assert ConcurrenceSpectrum((2, 2, 2), (0.0, 1.0, 0.0)).values == (0.0, 1.0, 0.0)
    qutrit = math.sqrt(4.0 / 3.0)
    assert ConcurrenceSpectrum((3, 3, 3), (qutrit,) * 3).values == (qutrit,) * 3
    # One ulp over the bound is rounding, and accepted.
    assert ConcurrenceSpectrum((2, 2, 2), (0.0, math.nextafter(1.0, 2.0), 0.0))


@pytest.mark.parametrize(
    "dims, values, message",
    [
        ((2, 2, 2), (1.2, 1.2, 1.2), "1.2 across cut 1 exceeds its bound sqrt(2 (m - 1) / m) = 1.0 for m = 2"),
        # Cut 1 of (3, 2, 2) is a qutrit, m = min(3, 4); cut 2 a qubit.
        ((3, 2, 2), (1.15, 1.01, 0.5), "1.01 across cut 2 exceeds its bound sqrt(2 (m - 1) / m) = 1.0 for m = 2"),
        ((2, 2, 2, 2), (0.5,) * 4 + (1.0, 1.0, 1.3), "1.3 across cut 1,4 exceeds its bound "
         "sqrt(2 (m - 1) / m) = 1.224744871391589 for m = 4"),
        ((2, 2, 2), (0.5, 1.0 + 1e-12, 0.5), "1.000000000001 across cut 2 exceeds its bound "
         "sqrt(2 (m - 1) / m) = 1.0 for m = 2"),
    ],
    ids=["qubits", "qutrit-and-qubit", "pair", "just-above"],
)
def test_spectrum_refuses_a_value_above_its_cut_bound(dims, values, message):
    from gmepyramid import ConcurrenceSpectrum

    # Accepted, (1.2, 1.2, 1.2) would classify as GME with volume 0.2078.
    with pytest.raises(ValueError, match="^concurrence " + re.escape(message) + "$"):
        ConcurrenceSpectrum(dims, values)


# A sound row takes one pass; a row with two faults still names the one
# that the diagnostic passes meet first: NaN, then the range, then a bound.
@pytest.mark.parametrize(
    "values, message",
    [
        ((math.nan, -0.5, 0.3), "^a concurrence value is NaN$"),
        ((-0.5, math.nan, 0.3), "^a concurrence value is NaN$"),
        ((0.3, 1.2, math.nan), "^a concurrence value is NaN$"),
        ((-0.5, 1.2, 0.3), r"^concurrences lie in \[0, sqrt\(2\)\], got -0.5$"),
        ((1.2, 0.3, -1e-300), r"^concurrences lie in \[0, sqrt\(2\)\], got -1e-300$"),
    ],
    ids=["nan-then-negative", "negative-then-nan", "over-bound-and-nan", "negative-and-over-bound", "over-bound-then-negative"],
)
def test_spectrum_names_the_first_of_two_faults(values, message):
    from gmepyramid import ConcurrenceSpectrum

    with pytest.raises(ValueError, match=message):
        ConcurrenceSpectrum((2, 2, 2), values)


def test_spectrum_cuts_are_read_from_the_table_entry(monkeypatch):
    from gmepyramid import ConcurrenceSpectrum

    cuts = canonical_bipartitions(5)
    state = haar_random_state((2, 3, 2, 2, 2), seed=[92])

    def refuse_enumeration(*args):
        raise AssertionError("enumerated the cuts")

    # Every Bipartition construction goes through bipartitions.split; the
    # forest comes from the table entry, with no cut object.
    monkeypatch.setattr(gmepyramid.bipartitions, "split", refuse_enumeration)
    values = full_spectrum(state).values
    assert values == pytest.approx([gram_concurrence(state, cut) for cut in cuts], abs=1e-12)
    monkeypatch.setattr(gmepyramid.concurrence, "canonical_bipartitions", refuse_enumeration)
    spectrum = ConcurrenceSpectrum((2, 3, 2, 2, 2), (0.5,) * 15)
    assert spectrum.cuts is cuts
    assert list(spectrum.entries) == list(cuts)


def test_spectrum_row_slices_in_canonical_order():
    spectrum = full_spectrum(haar_random_state((2, 3, 2, 2, 2), seed=[91]))
    assert spectrum.cuts is canonical_bipartitions(5)
    assert spectrum.singletons() == spectrum.values[:5]
    assert spectrum.multis() == spectrum.values[5:]
    assert [cut.size for cut in spectrum.cuts[:5]] == [1] * 5
    assert list(spectrum.entries) == list(spectrum.cuts)
    assert list(spectrum.entries.values()) == list(spectrum.values)


class TestSpectrumForest:
    @pytest.mark.parametrize("real", [False, True], ids=["haar", "real"])
    @pytest.mark.parametrize("dims", TREE_DIMS, ids=str)
    def test_every_value_agrees_with_the_dense_oracle(self, dims, real):
        n = len(dims)
        if real:
            state = real_gaussian_state(dims, seed=[101, n])
        else:
            state = haar_random_state(dims, seed=[102, n])
        spectrum = full_spectrum(state)
        for cut, c in zip(spectrum.cuts, spectrum.values):
            assert abs(1.0 - 0.5 * c * c - dense_oracle_purity(state, cut)) < 1e-12, cut.label()

    # A rho of the side {1,2} or {4,5} would hold 4096**2 entries, 2**9 times
    # the state, and one reduced_purity call per cut never forms one. {4,5}
    # has a child, {4}, so only the size rule keeps its rho from being formed.
    @pytest.mark.parametrize("dims", [(64, 64, 2, 2, 2), (2, 2, 2, 64, 64)], ids=str)
    def test_lopsided_dims_form_no_rho_larger_than_the_state(self, dims):
        state = haar_random_state(dims, seed=[103])
        cuts = canonical_bipartitions(len(dims))
        full_spectrum(state)
        tracemalloc.start()
        try:
            per_cut = [reduced_purity(state, cut) for cut in cuts]
            per_cut_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            spectrum = full_spectrum(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * per_cut_peak
        for cut, p, c in zip(cuts, per_cut, spectrum.values):
            assert abs(1.0 - 0.5 * c * c - p) < 1e-12, cut.label()


# N = 2..9 qubits, qutrits in several places and the lopsided dims; (2,) * 9
# cuts its root groups into chunks of (_CHUNK_FLOOR // 512)^2 = 16 roots. In
# (3, 3, 2, 2, 2) and (2, 2, 3, 3, 2) the childless root of the two qutrits
# takes the Gram product of its other side.
BATCH_DIMS = [(2,) * n for n in range(2, 10)] + [
    (2, 3, 2, 2, 3, 2, 2),
    (3, 3, 2, 2, 2, 2),
    (3, 2, 2, 2, 2, 2, 2),
    (6, 6, 2, 2, 2),
    (2, 2, 2, 6, 6),
    (3, 3, 2, 2, 2),
    (2, 2, 3, 3, 2),
]


def batch_state(dims, kind):
    """A Haar or real Gaussian state, or an exact product across cut {1}, complex or real."""
    n = len(dims)
    if kind == "haar":
        return haar_random_state(dims, seed=[105, n])
    if kind == "real":
        return real_gaussian_state(dims, seed=[106, n])
    if kind == "product":
        return random_product_state(dims, (1,), seed=[107, n])
    rng = np.random.default_rng([104, n])
    first, rest = rng.standard_normal(dims[0]), rng.standard_normal(math.prod(dims[1:]))
    return PureState(dims, np.kron(first, rest), normalize=True)


def stepwise_purities(state, plan):
    """Every purity of ``plan`` (a ``_plan`` of the state's dims), cut by
    cut, with the chunks' own Gram products and, below them, one partial
    trace per state as a sum of the d diagonal slices of a 7-d view of its
    parent. Each traced cut's parent and site come from the table's forest,
    not from the plan's levels; the purities are reduced per chunk as the
    plan's are."""
    dims, n = state.dims, state.n
    table = gmepyramid.concurrence._cut_table(n)
    side = [[s - 1 for s in subset if s] for subset in table.subsets.tolist()]
    parent_of = {}
    for i in range(len(side)):
        for child in table.kids[table.first[i] : table.first[i] + len(table.keys[table.subtree[i]])]:
            parent_of[child] = i
    total = math.prod(dims)
    purities = np.empty(len(side))
    buffer = np.empty(plan.buffer, state._tensor.dtype)
    at = 0
    for source, d_root, size, starts, _ in plan.chunks:
        count = 1 if starts is None else len(starts[8])
        cuts = plan.order[at : at + count].tolist()
        at += count
        if isinstance(source, tuple):
            m = state._tensor.transpose(source).reshape(1, d_root, -1)
        else:
            m = state._tensor.reshape(-1).take(source)
        roots = buffer[: len(m) * d_root * d_root].reshape(-1, d_root, d_root)
        np.matmul(m, m.conj().transpose(0, 2, 1), out=roots)
        rhos, gram = {}, {}
        for r, rho in zip(cuts, roots):
            own = math.prod([dims[s] for s in side[r]])
            if isinstance(source, tuple):
                k = next(k for k in range(1, n + 1) if math.prod([dims[a] for a in source[:k]]) == d_root)
                gram[r] = sorted(source[:k])
            else:  # no hub is taken below 2^10 amplitudes: only a lopsided root flips
                flipped = min(own, total // own) < own
                gram[r] = sorted(set(range(n)) - set(side[r])) if flipped else side[r]
            rhos[r] = rho
        for cut in cuts[len(m) :]:
            p = parent_of[cut]
            sites = gram.get(p, side[p])
            pos = next(i for i, s in enumerate(sites) if s not in side[cut])
            a, d = math.prod([dims[s] for s in sites[:pos]]), dims[sites[pos]]
            b = math.prod([dims[s] for s in sites[pos + 1 :]])
            x = rhos[p].reshape(-1, a, d, b, a, d, b)
            y = np.empty((1, a, b, a, b), buffer.dtype)
            np.add(x[:, :, 0, :, :, 0], x[:, :, 1, :, :, 1], out=y)
            for j in range(2, d):
                y += x[:, :, j, :, :, j]
            rhos[cut] = y.reshape(a * b, a * b)
        flat = np.concatenate([rhos[cut].reshape(-1) for cut in cuts]).view(np.float64)
        if count == 1:
            purities[cuts] = flat @ flat
        else:
            per = 2 if buffer.dtype.kind == "c" else 1  # floats per amplitude
            heads = np.cumsum([0] + [rhos[cut].size * per for cut in cuts[:-1]])
            purities[cuts] = np.add.reduceat(np.square(flat), heads)
    return purities


class TestBatchedSpectrum:
    """``full_spectrum`` runs its dims' plan: chunks of like forest roots, each
    one gathered Gram product and one partial trace per step below it."""

    # Both routes round, and so does the way back from a concurrence: cut {6}
    # of the real product on (3, 2, 2, 2, 2, 2, 2) reads 1.1e-15 on the
    # per-root recursion this plan replaced as well.
    @pytest.mark.parametrize("kind", ["haar", "real", "product", "real-product"])
    @pytest.mark.parametrize("dims", BATCH_DIMS, ids=str)
    def test_every_purity_matches_the_per_cut_route(self, dims, kind):
        state = batch_state(dims, kind)
        spectrum = full_spectrum(state)
        for cut, c in zip(spectrum.cuts, spectrum.values):
            assert abs(1.0 - 0.5 * c * c - reduced_purity(state, cut)) <= 2e-15, cut.label()

    @pytest.mark.parametrize("dims", BATCH_DIMS, ids=str)
    def test_from_four_parties_no_cut_takes_a_call_of_its_own(self, monkeypatch, dims):
        original, calls = reduced_purity, []

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(gmepyramid.concurrence, "reduced_purity", counted)
        full_spectrum(batch_state(dims, "haar"))
        if len(dims) >= 4:
            assert calls == []
        else:  # three parties and fewer: one reduced_purity call per cut
            assert calls == list(canonical_bipartitions(len(dims)))

    # Under a floor of 1 every root is a chunk of its own, as above 2^10
    # amplitudes. A chunk's root block and its levels' outputs tile its
    # buffer in order; each level reads only states written before its own,
    # through read-only index arrays that cover a prefix of its output, one
    # per diagonal slice; the state starts are exactly the states'
    # boundaries, and each state reads one earlier state, d times its side.
    @pytest.mark.parametrize("dims", BATCH_DIMS + [(2, 3, 4, 2, 2)], ids=str)
    def test_the_plan_reduces_one_purity_per_cut(self, monkeypatch, dims):
        module = gmepyramid.concurrence
        cuts = list(range(2 ** (len(dims) - 1) - 1))
        for floor in (module._CHUNK_FLOOR, 1):
            monkeypatch.setattr(module, "_CHUNK_FLOOR", floor)
            module._plan.cache_clear()
            try:
                plan = module._plan(dims)
            finally:
                module._plan.cache_clear()
            assert sorted(plan.order.tolist()) == cuts
            for source, d_root, size, starts, levels in plan.chunks:
                block = (1 if isinstance(source, tuple) else len(source)) * d_root * d_root
                if starts is None:
                    assert size == block == d_root * d_root and levels == ()
                    continue
                bounds = starts[8].tolist() + [size]
                assert starts[16].tolist() == [2 * x for x in bounds[:-1]]
                assert bounds[: block // (d_root * d_root) + 1] == list(range(0, block + 1, d_root * d_root))
                at = block
                for out, gathers in levels:
                    assert out.start == at and out.start in bounds
                    lengths = [len(gather) for gather in gathers]
                    assert lengths[0] == lengths[1] == out.stop - out.start and lengths == sorted(lengths, reverse=True)
                    for gather in gathers:
                        assert not gather.flags.writeable
                        assert gather.dtype == np.intp and 0 <= gather.min() and gather.max() < out.start
                    for lo, hi in zip(bounds, bounds[1:]):
                        if out.start <= lo < out.stop:
                            d = sum(length > lo - out.start for length in lengths)
                            heads = np.searchsorted(bounds, gathers[0][lo - out.start : hi - out.start], "right") - 1
                            assert heads.min() == heads.max()
                            parent = bounds[heads[0] + 1] - bounds[heads[0]]
                            assert math.isqrt(hi - lo) ** 2 == hi - lo and (hi - lo) * d * d == parent
                    at = out.stop
                assert at == size

    # A lopsided root, d_S^2 > D, takes the Gram product of its other side;
    # every such cut is a root, since its parent is lopsided too. Each of
    # these shapes has two sites above 2, and lopsided cuts. Under a floor
    # of 1 each root is a chunk of its own, as above 2^10 amplitudes.
    @pytest.mark.parametrize("kind", ["haar", "real", "product", "real-product"])
    @pytest.mark.parametrize("dims", [dims for dims in BATCH_DIMS if sorted(dims)[-2] > 2], ids=str)
    def test_every_flipped_root_matches_the_dense_oracle(self, monkeypatch, dims, kind):
        module = gmepyramid.concurrence
        state = batch_state(dims, kind)
        total = math.prod(dims)
        for floor in (module._CHUNK_FLOOR, 1):
            monkeypatch.setattr(module, "_CHUNK_FLOOR", floor)
            module._plan.cache_clear()
            try:
                spectrum = full_spectrum(state)
            finally:
                module._plan.cache_clear()
            flipped = 0
            for cut, c in zip(spectrum.cuts, spectrum.values):
                d_s = math.prod([dims[i - 1] for i in cut.subset])
                if d_s * d_s > total:
                    flipped += 1
                    assert abs(1.0 - 0.5 * c * c - dense_oracle_purity(state, cut)) <= 1e-14, cut.label()
            assert flipped

    @pytest.mark.parametrize("kind", ["haar", "real"])
    def test_a_group_over_several_chunks_gives_the_row_of_one_chunk(self, monkeypatch, kind):
        module = gmepyramid.concurrence
        dims = (2,) * 9
        state = batch_state(dims, kind)
        # The 126 roots, with children or without, share one own-side shape,
        # (2, 2, 2, 2), and go (2^11 // 2^9)^2 = 16 to a chunk.
        chunks = module._plan(dims).chunks
        assert [len(chunk[0]) for chunk in chunks] == [16] * 7 + [14]
        chunked = full_spectrum(state).values

        # One chunk of every root, then one root per chunk, cut by a
        # transposed copy as above 2^10 amplitudes: there the 35 hubs, the
        # rests of the top-size cuts without sites 1 and 9, reach all 126.
        rows = []
        for floor in (2**20, 1):
            monkeypatch.setattr(module, "_CHUNK_FLOOR", floor)
            module._plan.cache_clear()
            try:
                sources = [chunk[0] for chunk in module._plan(dims).chunks]
                rows.append(full_spectrum(state).values)
            finally:
                module._plan.cache_clear()
            if floor == 1:
                assert len(sources) == 35 and all(isinstance(source, tuple) for source in sources)
            else:
                assert [len(source) for source in sources] == [126]
        per_cut = [reduced_purity(state, cut) for cut in canonical_bipartitions(9)]
        for a, b, c, p in zip(chunked, *rows, per_cut):
            assert abs(0.5 * a * a - 0.5 * b * b) <= 1e-15
            assert abs(0.5 * a * a - 0.5 * c * c) <= 1e-15
            assert abs(1.0 - 0.5 * a * a - p) <= 1e-15

    # Above 2^10 amplitudes a chunk holds one root, as under a floor of 1.
    # The first digest holds what no buffer layout moves: each chunk's source,
    # d_root and set of cuts, and the bounds; it was recorded from the plan of
    # per-step traces, whose chunks come in the same order. The second holds
    # the layout of levels: buffer sizes, state starts, the levels' slices
    # and index arrays, the largest buffer and the purity order.
    @pytest.mark.parametrize(
        "dims, kept, layout",
        [
            ((2,) * 11, "b301384116f5bffcabbafa130dba9a0056aae2fa432aea23f5bda98e1e42f065",
             "9631b0dd969a2bbb34cc79ddd21e390d28de31f13a99a64a0eb6cdf1379f7064"),
            ((3, 3) + (2,) * 9, "6467fb666e85a6b6045bbf81267b1af9488774835db8a5ffd9bf6531a70d8203",
             "bf0b8cc072d0d8988baf7e77a7bca011aa056ead19ebc60b68e711ecac556781"),
        ],
        ids=["2^11", "mixed11"],
    )
    def test_a_plan_above_2_to_the_10_amplitudes_is_unchanged(self, monkeypatch, dims, kept, layout):
        module = gmepyramid.concurrence

        def record(plan):
            fixed, levels, at = hashlib.sha256(), hashlib.sha256(), 0
            for source, d_root, size, starts, chunk_levels in plan.chunks:
                assert isinstance(source, tuple)
                count = 1 if starts is None else len(starts[8])
                fixed.update(repr((source, d_root, sorted(plan.order[at : at + count].tolist()))).encode())
                at += count
                levels.update(repr((size, None if starts is None else starts[8].tolist())).encode())
                for out, gathers in chunk_levels:
                    levels.update(repr((out.start, out.stop, [gather.tolist() for gather in gathers])).encode())
            fixed.update(repr(plan.bounds).encode())
            levels.update(repr((plan.buffer, plan.order.tolist())).encode())
            return fixed.hexdigest(), levels.hexdigest()

        assert record(module._plan(dims)) == (kept, layout)
        monkeypatch.setattr(module, "_CHUNK_FLOOR", 1)
        module._plan.cache_clear()
        try:
            assert record(module._plan(dims)) == (kept, layout)
        finally:
            module._plan.cache_clear()

    # The levels' gathers add the diagonal slices in the order the per-step
    # views did, x_0 + x_1, then + x_j, so every value is bit-identical to
    # theirs: under the floor and under a floor of 1, on shapes with hubs and
    # on a level whose traced sites have dimensions 2, 3 and 4.
    @pytest.mark.parametrize("kind", ["haar", "real", "product", "real-product"])
    @pytest.mark.parametrize(
        "dims",
        [dims for dims in BATCH_DIMS if len(dims) >= 4]
        + [(2,) * 11, (3, 3) + (2,) * 9, (2,) * 13, (2,) * 5 + (8,) + (2,) * 5, (2, 3, 4, 2, 2)],
        ids=str,
    )
    def test_every_value_is_the_stepwise_value_bit_for_bit(self, monkeypatch, dims, kind):
        module = gmepyramid.concurrence
        state = batch_state(dims, kind)
        # Above 2^10 amplitudes the floor gives one root per chunk as 1 does.
        for floor in (module._CHUNK_FLOOR, 1) if math.prod(dims) <= 2**10 else (1,):
            monkeypatch.setattr(module, "_CHUNK_FLOOR", floor)
            module._plan.cache_clear()
            try:
                purities = stepwise_purities(state, module._plan(dims))
                values = full_spectrum(state).values
            finally:
                module._plan.cache_clear()
            assert values == tuple(np.sqrt(2.0 * (1.0 - np.clip(purities, 0.0, 1.0))).tolist())

    # The index arrays of a plan grow with its traced states: a cold 13-qubit
    # plan, 462 one-root chunks over 21 layouts of levels, retains about
    # 7.6 MiB (intp indices; 0.31 MiB with per-step views). A CLI op at 13
    # qubits builds it in a fresh process.
    def test_a_cold_13_qubit_plan_retains_a_bounded_size(self):
        module = gmepyramid.concurrence
        dims = (2,) * 13
        module._cut_table(13)
        module._plan.cache_clear()
        tracemalloc.start()
        try:
            plan = module._plan(dims)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            module._plan.cache_clear()
        assert len(plan.chunks) == 462
        assert retained <= 8.5 * 2**20

    # At odd N above 2^10 amplitudes each hub, the rest H of a top-size cut
    # without sites 1 and N, takes one Gram product for its root and every
    # top-size cut under it. On (3, 3, 2, ..., 2) a hub that holds site 2 too
    # would outgrow twice the state: 70 of the 126 hubs are taken, and the
    # other 56 leave their roots and children to today's roots. On
    # (2,)*5 + (8,) + (2,)*5 the 70 hubs without site 6 are taken, each a rho
    # smaller than the state (d_H^2 = 4096 < D = 8192).
    @pytest.mark.parametrize(
        "dims, grams, hubs",
        [
            ((2,) * 11, 126, 126),
            ((2,) * 13, 462, 462),
            ((3, 3) + (2,) * 9, 358, 70),
            ((2,) * 5 + (8,) + (2,) * 5, 386, 70),
        ],
        ids=str,
    )
    def test_odd_n_takes_one_gram_product_per_hub(self, dims, grams, hubs):
        module = gmepyramid.concurrence
        n, total, k = len(dims), math.prod(dims), len(dims) // 2 + 1
        chunks = module._plan(dims).chunks
        assert len(chunks) == grams
        taken = 0
        for source, d_root, _, _, levels in chunks:
            assert isinstance(source, tuple)
            assert d_root * d_root <= min(2 * total, module._HUB_CAP)
            # The Gram side is the leading run of the transpose order whose
            # dimensions multiply to d_root; a taken hub's holds k sites, 1 and N.
            sites = next(source[:g] for g in range(1, n) if math.prod([dims[a] for a in source[:g]]) == d_root)
            if len(sites) == k and {0, n - 1} <= set(sites):
                assert levels  # it traces its children
                taken += 1
        assert taken == hubs

    # At D <= 2^10 no hub is taken, and a hub root traces nothing, lopsided
    # or not: R = {3, 4} of (2, 2, 3, 3, 2) takes the Gram product of its
    # rest (81 > 72), and the hub's children stay roots of their own. Were
    # it to trace its hub, these plans would take 7, 8 and 27 products.
    @pytest.mark.parametrize(
        "dims, grams",
        [((2, 2, 3, 3, 2), 10), ((2, 3, 3, 2, 2), 10), ((2, 2, 2, 3, 3, 2, 2), 36)],
        ids=str,
    )
    def test_a_lopsided_hub_root_of_a_small_state_traces_nothing(self, dims, grams):
        module = gmepyramid.concurrence
        chunks = module._plan(dims).chunks
        assert sum(1 if isinstance(source, tuple) else len(source) for source, *_ in chunks) == grams

    # A hub is taken when d_H^2 <= min(2 D, _HUB_CAP); each of its children
    # drops a site of dimension >= 2, so d_S^2 <= d_H^2 / 4 <= D / 2: no child
    # of a taken hub is lopsided. In (2,)*5 + (8,) + (2,)*5 the hubs without
    # site 6 fit and those holding it do not.
    @pytest.mark.parametrize(
        "dims, fit",
        [((2,) * 11, 126), ((2,) * 13, 462), ((3, 3) + (2,) * 9, 70), ((2,) * 5 + (8,) + (2,) * 5, 70)],
        ids=str,
    )
    def test_no_child_of_a_hub_that_fits_is_lopsided(self, dims, fit):
        module = gmepyramid.concurrence
        table = module._cut_table(len(dims))
        total = math.prod(dims)
        size = [math.prod([dims[s - 1] for s in subset if s]) for subset in table.subsets.tolist()]
        fits = 0
        for r in table.hubs.tolist():
            d_rest = total // size[r]
            if d_rest * d_rest <= min(2 * total, module._HUB_CAP):
                fits += 1
                children = table.kids[table.first[r] : table.first[r] + len(table.keys[table.subtree[r]])]
                assert all(size[c] * size[c] <= total for c in children)
        assert fits == fit

    def test_the_plan_cache_is_bounded_and_cleared_with_the_cut_tables(self):
        module = gmepyramid.concurrence
        table = gmepyramid.bipartitions._cut_table
        size = module._plan.cache_info().maxsize
        assert size == module._PLAN_CACHE_SIZE
        for d in range(2, size + 5):
            full_spectrum(haar_random_state((d, 2, 2), seed=[108, d]))
        assert module._plan.cache_info().currsize == size
        assert table.cache_info().currsize > 0
        assert gmepyramid.bipartitions._cuts.cache_info().currsize > 0
        clear_shape_caches()
        assert module._plan.cache_info().currsize == 0
        assert table.cache_info().currsize == 0
        assert gmepyramid.bipartitions._cuts.cache_info().currsize == 0


class TestExactSpectra:
    """Spectra known in closed form, cut by cut. A graph state's values vary
    within a size group, so a value reported under another cut of the same
    size shows here; GHZ and Dicke values depend on the cut size alone."""

    # Hein, Eisert & Briegel, PRA 69, 062311 (2004): across S | rest a graph
    # state's reduced state is maximally mixed on 2^r dimensions, r the GF(2)
    # rank of the adjacency block; local unitaries leave that purity alone.
    @pytest.mark.parametrize("rotated", [False, True], ids=["graph", "rotated"])
    @pytest.mark.parametrize("n, edges", GRAPHS, ids=["G(6)", "G(9)", "G(12)", "two-components"])
    def test_graph_state_purity_is_two_to_the_minus_cut_rank(self, n, edges, rotated):
        state = graph_state(n, edges)
        if rotated:
            for site in range(1, n + 1):
                u = _haar_unitaries(2, [[112, n, site]])[0]
                state = apply_local_unitary(state, site, u)
        assert state._tensor.dtype == (np.complex128 if rotated else np.float64)
        spectrum = full_spectrum(state)
        for cut, c in zip(spectrum.cuts, spectrum.values):
            purity = 2.0 ** -cut_rank(edges, cut.subset)
            assert abs(1.0 - 0.5 * c * c - purity) <= 1e-14, cut.label()

    def test_a_graph_of_two_components_is_biseparable(self):
        # Only the cut between the two connected components has rank 0. At
        # even n every amplitude is +-2^(-n/2), a power of two, so the Gram
        # product is exact in any summation order and that cut reads 0.0.
        report = evaluate(graph_state(10, TWO_COMPONENTS))
        assert report.classification == "biseparable"
        (cut,) = report.zero_cuts
        assert cut.subset == (1, 2, 3, 4)
        assert report.spectrum.entries[cut] == 0.0

    # A k-site reduced state of D(n, m) is diagonal, with hypergeometric weights.
    @pytest.mark.parametrize("n, m", [(9, 1), (9, 3), (10, 5)])
    def test_dicke_purity_is_the_sum_of_squared_weights(self, n, m):
        spectrum = full_spectrum(dicke_state(n, m))
        for cut, c in zip(spectrum.cuts, spectrum.values):
            k = cut.size
            weights = [math.comb(k, j) * math.comb(n - k, m - j) for j in range(min(k, m) + 1)]
            purity = sum(w * w for w in weights) / math.comb(n, m) ** 2
            assert abs(1.0 - 0.5 * c * c - purity) <= 1e-14, cut.label()

    # Every reduced state is maximally mixed on d dimensions, so every value
    # is the largest one a cut of d-level sites can take.
    @pytest.mark.parametrize("dims", [(3, 3, 3), (3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5, 5)], ids=str)
    def test_qudit_ghz_attains_every_cut_bound(self, dims):
        d = dims[0]
        values = full_spectrum(qudit_ghz_state(dims)).values
        assert max(abs(c - math.sqrt(2.0 * (d - 1) / d)) for c in values) <= 4.4e-16


def real_product_state(dims, sites, seed):
    """Exact product of real Gaussian factors on ``sites`` and on the rest."""
    rng = np.random.default_rng(seed)
    rest = tuple(i for i in range(1, len(dims) + 1) if i not in sites)
    joint = np.multiply.outer(
        rng.standard_normal([dims[i - 1] for i in sites]),
        rng.standard_normal([dims[i - 1] for i in rest]),
    )
    order = tuple(sites) + rest
    joint = joint.transpose([order.index(s) for s in range(1, len(dims) + 1)])
    return PureState(dims, joint.ravel(), normalize=True)


class TestMinorsOracle:
    """The sum of squared 2x2 minors (``tests/minors.py``) reads a zero cut
    near eps, where both purity routes read near sqrt(eps). Against it the
    plan's near-zero error is pinned at the bound measured when the oracle
    came in (2 vCPUs, OpenBLAS 0.3.31 Haswell kernel), so a change that moves
    it shows; the bounds are not the true error of a correct spectrum."""

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2,) * 5, (3, 2, 2, 3), (2,) * 8], ids=str)
    def test_matches_the_dense_oracle_on_haar_states(self, dims):
        state = haar_random_state(dims, seed=[121, len(dims)])
        for cut in canonical_bipartitions(len(dims)):
            assert abs(minor_purity(state, cut) - dense_oracle_purity(state, cut)) <= 1e-14, cut.label()

    # Unrotated, every amplitude is +-1/8 and the cut between two components
    # reads exactly 0.
    @pytest.mark.parametrize("rotated", [False, True], ids=["graph", "rotated"])
    @pytest.mark.parametrize(
        "n, edges", [GRAPHS[0], (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)])], ids=["G(6)", "two-components"]
    )
    def test_matches_graph_state_closed_forms(self, n, edges, rotated):
        state = graph_state(n, edges)
        if rotated:
            for site in range(1, n + 1):
                state = apply_local_unitary(state, site, _haar_unitaries(2, [[122, n, site]])[0])
        for cut in canonical_bipartitions(n):
            rank = cut_rank(edges, cut.subset)
            oracle = minor_concurrence(state, cut)
            assert abs(oracle - math.sqrt(2.0 * (1.0 - 2.0**-rank))) <= 1e-15, cut.label()
            assert rank or rotated or oracle == 0.0, cut.label()

    @pytest.mark.parametrize("n, m", [(6, 2), (8, 3)])
    def test_matches_dicke_closed_forms(self, n, m):
        state = dicke_state(n, m)
        for cut in canonical_bipartitions(n):
            k = cut.size
            weights = [math.comb(k, j) * math.comb(n - k, m - j) for j in range(min(k, m) + 1)]
            exact = math.sqrt(2.0 * (1.0 - sum(w * w for w in weights) / math.comb(n, m) ** 2))
            assert abs(minor_concurrence(state, cut) - exact) <= 1e-15, cut.label()

    @pytest.mark.parametrize("dims", [(3, 3, 3), (3, 3, 3, 3), (4, 4, 4, 4)], ids=str)
    def test_matches_the_qudit_ghz_cut_bound(self, dims):
        d = dims[0]
        for cut in canonical_bipartitions(len(dims)):
            assert abs(minor_concurrence(qudit_ghz_state(dims), cut) - math.sqrt(2.0 * (d - 1) / d)) <= 1e-15

    def test_refuses_a_state_above_its_cap(self):
        with pytest.raises(ValueError, match="^512 amplitudes exceed the minors oracle's cap 256$"):
            minor_concurrence(ghz_state(9), (1,))

    # The product's own cut reads at most 1.6e-16 on the oracle, and up to
    # 4.71e-8 (10 ulps of purity) on the plan: bound 2^-24, 16 ulps. Every
    # other cut agrees to 4.7e-14.
    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2, 2), (2, 2, 3, 2, 2), (2, 3, 2, 3, 2, 2), (2,) * 8], ids=str)
    def test_plan_error_on_products_across_every_cut(self, dims):
        n, errors = len(dims), []
        for k, cut in enumerate(canonical_bipartitions(n)):
            for state in (
                random_product_state(dims, cut.subset, seed=[123, n, k]),
                real_product_state(dims, cut.subset, seed=[124, n, k]),
            ):
                spectrum = full_spectrum(state)
                oracle = minor_concurrence(state, cut)
                assert oracle <= 2e-16, cut.label()
                errors.append(abs(spectrum.values[k] - oracle))
                if n <= 6:
                    for other, c in zip(spectrum.cuts, spectrum.values):
                        if other != cut:
                            assert abs(c - minor_concurrence(state, other)) <= 1e-13, (cut.label(), other.label())
        assert max(errors) <= 2.0**-24

    # One amplitude, rescaled by normalize=True to 0.9999999999999999: every
    # minor is exactly 0, while the plan reads 2^-25 = 2.98e-8 on every cut
    # (purity 4 ulps below 1).
    @pytest.mark.parametrize("dims", [(2,) * 4, (2, 3, 2), (3, 3, 2, 2), (2,) * 8], ids=str)
    def test_plan_error_on_basis_states(self, dims):
        total = math.prod(dims)
        for index in range(0, total, max(1, total // 4)):
            amps = np.zeros(total)
            amps[index] = math.cos(0.1) * math.sqrt(1.0 - math.tan(0.1) ** 2)
            state = PureState(dims, amps, normalize=True)
            spectrum = full_spectrum(state)
            for cut, c in zip(spectrum.cuts, spectrum.values):
                assert minor_concurrence(state, cut) == 0.0
                assert c <= 2.0**-25, (index, cut.label())

    # (1 + eps/sqrt(2))|0000> + (eps/sqrt(2))|1111>, normalized: every cut is
    # 2ab / (a^2 + b^2). The oracle holds it to 1e-15 relative; the plan reads
    # 1.460e-7 at eps = 1e-7 (4.6e-9 off) and 0.0 below: bound 2^-27 = 7.5e-9.
    @pytest.mark.parametrize("eps", [1e-7, 1e-9, 1e-11])
    def test_plan_error_on_a_near_product_ghz4(self, eps):
        amps = np.zeros(16)
        amps[0] = 1.0
        state = PureState((2,) * 4, amps + eps * ghz_state(4).amplitudes, normalize=True)
        a, b = 1.0 + eps / math.sqrt(2.0), eps / math.sqrt(2.0)
        exact = 2.0 * a * b / (a * a + b * b)
        spectrum = full_spectrum(state)
        for cut, c in zip(spectrum.cuts, spectrum.values):
            oracle = minor_concurrence(state, cut)
            assert abs(oracle - exact) <= 1e-15 * exact, cut.label()
            assert abs(c - oracle) <= 2.0**-27, cut.label()


def dynamic_openblas():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dicts mode
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def cpu_has(*features):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f) for f in features)


# Three x86-64 OpenBLAS kernels that sum the Gram products in different
# orders; Prescott, without AVX, moves the most values.
KERNELS = ("Nehalem", "Haswell", "Prescott")


@pytest.mark.skipif(
    not (dynamic_openblas() and cpu_has("SSE42", "AVX2", "FMA3")),
    reason="needs a DYNAMIC_ARCH OpenBLAS and a CPU that runs its Nehalem, Haswell and Prescott kernels",
)
class TestBlasKernels:
    """``eval --json`` under each kernel, each in its own process: byte-identical
    reports hold per kernel, so values may move by ulps but no decision may.
    Every kernel's report is compared with the first's."""

    def reports(self, tmp_path, state):
        path = tmp_path / "state.txt"
        path.write_text(serialize_state(state))
        args = [sys.executable, "-m", "gmepyramid.cli", "eval", str(path), "--json"]
        runs = [
            subprocess.Popen(
                args,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "OPENBLAS_CORETYPE": kernel},
            )
            for kernel in KERNELS
        ]
        outputs = [run.communicate() for run in runs]
        assert [(run.returncode, err) for run, (_, err) in zip(runs, outputs)] == [(0, "")] * len(runs)
        return [out for out, _ in outputs]

    @pytest.mark.parametrize("biseparable", [False, True], ids=["haar", "haar-product"])
    def test_values_move_by_ulps_and_decisions_hold(self, tmp_path, biseparable):
        if biseparable:
            left, right = (haar_random_state((2,) * 4, seed=[93, side]).amplitudes for side in (1, 2))
            state = PureState((2,) * 8, np.kron(left, right), normalize=True)
        else:
            state = haar_random_state((2,) * 8, seed=[93])
        a, *others = (json.loads(text)["states"][0] for text in self.reports(tmp_path, state))
        assert a["zero_cuts"] == (["1,2,3,4"] if biseparable else [])
        for kernel, b in zip(KERNELS[1:], others):
            assert a["classification"] == b["classification"], kernel
            assert a["zero_cuts"] == b["zero_cuts"], kernel
            # A zero cut sits at the sqrt(eps) floor, where kernels differ by far more than ulps.
            for label in a["concurrences"].keys() - set(a["zero_cuts"]):
                assert abs(a["concurrences"][label] - b["concurrences"][label]) <= 4 * 2.0**-52, (kernel, label)

    def test_a_report_of_power_of_two_amplitudes_is_byte_identical(self, tmp_path):
        first, *others = self.reports(tmp_path, graph_state(10, TWO_COMPONENTS))
        assert others == [first] * len(others)
