import array
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

from gmepyramid import (
    DEFAULT_ZERO_TOL,
    PureState,
    base_area,
    c_gme,
    canonical_bipartitions,
    classify,
    evaluate,
    full_spectrum,
    ghz_state,
    haar_random_state,
    permute_subsystems,
    random_product_state,
    triangle_measure,
    volume,
    w_state,
)
from gmepyramid.catalog import benchmark_states
from gmepyramid.measures import check_tolerance

SQRT3_OVER_2 = math.sqrt(3) / 2

# Frozen against an independent brute-force partial-trace oracle.
ORACLE_VOLUMES = {
    "psi_A": 0.3468159541906515,
    "psi_B": 0.2788215657281302,
    "psi_C": 0.3060103917736113,
    "psi_D": 0.3399838180175669,
}

REAL_PRODUCT_DIMS = (2, 3, 2, 2)


def real_product_state(dims, sites, seed):
    """Exact product of real Gaussian factors on ``sites`` and on the rest,
    interleaved back into subsystem order."""
    rng = np.random.default_rng(seed)
    rest = tuple(i for i in range(1, len(dims) + 1) if i not in sites)
    joint = np.multiply.outer(
        rng.standard_normal([dims[i - 1] for i in sites]),
        rng.standard_normal([dims[i - 1] for i in rest]),
    )
    order = tuple(sites) + rest
    joint = joint.transpose([order.index(s) for s in range(1, len(dims) + 1)])
    return PureState(dims, joint.ravel(), normalize=True)


class TestBaseEdge:
    def test_ghz4_is_one(self):
        assert volume(full_spectrum(ghz_state(4))).base_edge == pytest.approx(1.0, abs=1e-14)

    def test_w4_equal_factors(self):
        assert volume(full_spectrum(w_state(4))).base_edge == pytest.approx(SQRT3_OVER_2, abs=1e-12)

    def test_zero_factor_short_circuits(self):
        spectrum = full_spectrum(random_product_state((2, 2, 2, 2), (2,), seed=3))
        assert volume(spectrum).base_edge == 0.0


class TestHeight:
    def test_ghz4(self):
        assert volume(full_spectrum(ghz_state(4))).height == pytest.approx(1.0, abs=1e-14)

    def test_ghz5(self):
        assert volume(full_spectrum(ghz_state(5))).height == pytest.approx(1.0, abs=1e-14)

    def test_biseparable_fixture_is_zero(self):
        assert volume(full_spectrum(benchmark_states()["phi_12345"])).height == 0.0

    def test_three_parties_fixed_to_one(self):
        assert volume(full_spectrum(ghz_state(3))).height == 1.0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_refuses_a_negative_tolerance(self, n):
        with pytest.raises(ValueError, match="^tolerance must be finite and >= 0, got -1.0$"):
            volume(full_spectrum(ghz_state(n)), zero_tol=-1.0)


class TestBaseArea:
    def test_square(self):
        assert base_area(4, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_hexagon(self):
        assert base_area(6, 1.0) == pytest.approx(1.5 * math.sqrt(3), rel=1e-12)

    def test_degenerate_edge(self):
        assert base_area(5, 0.0) == 0.0

    def test_rejects_digon(self):
        with pytest.raises(ValueError):
            base_area(2, 1.0)

    @pytest.mark.parametrize("edge", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_rejects_an_edge_that_is_not_nonnegative(self, edge):
        with pytest.raises(ValueError, match="^edge length must be nonnegative$"):
            base_area(5, edge)

    def test_rejects_an_infinite_edge(self):
        with pytest.raises(ValueError, match="^edge length must be finite$"):
            base_area(4, float("inf"))
        with pytest.raises(ValueError, match="^edge length must be nonnegative$"):
            base_area(4, float("-inf"))


class TestVolume:
    def test_ghz4(self):
        assert volume(full_spectrum(ghz_state(4))).volume == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(ORACLE_VOLUMES))
    def test_benchmarks_match_oracle(self, name):
        state = benchmark_states()[name]
        assert volume(full_spectrum(state)).volume == pytest.approx(
            ORACLE_VOLUMES[name], abs=1e-12
        )

    def test_ghz5_closed_form(self):
        expected = 5 / (12 * math.tan(math.pi / 5))
        assert volume(full_spectrum(ghz_state(5))).volume == pytest.approx(expected, abs=1e-9)

    def test_biseparable_fixture_is_exactly_zero(self):
        assert volume(full_spectrum(benchmark_states()["phi_12345"])).volume == 0.0

    def test_two_parties_rejected(self):
        with pytest.raises(ValueError, match="3 or more"):
            volume(full_spectrum(ghz_state(2)))

    def test_geometry_fields_are_consistent(self):
        for trial in range(20):
            geometry = volume(full_spectrum(haar_random_state((2, 2, 2, 2, 2), [71, trial])))
            assert geometry.volume == pytest.approx(
                geometry.base_area * geometry.height / 3.0, abs=1e-12
            )
            assert geometry.base_area == pytest.approx(
                base_area(geometry.n, geometry.base_edge), abs=1e-12
            )
            assert min(geometry.base_edge, geometry.height, geometry.volume) >= 0.0

    @pytest.mark.parametrize(
        "make",
        [pytest.param(lambda name=name: benchmark_states()[name], id=name) for name in benchmark_states()]
        + [
            pytest.param(lambda n=n: haar_random_state((2,) * n, [73, n]), id=f"haar-{n}")
            for n in range(3, 8)
        ]
        + [pytest.param(lambda: haar_random_state((3, 2, 2, 2, 3), [73, 5, 1]), id="haar-3,2,2,2,3")],
    )
    def test_edge_and_height_are_the_cut_means_bit_for_bit(self, make):
        # a and h recomputed from the cut-keyed view, split by side size, with
        # the zero short-circuit and fsum of logs that the measure documents.
        def mean(values):
            if min(values, default=1.0) <= DEFAULT_ZERO_TOL:
                return 0.0
            return math.exp(math.fsum(map(math.log, values)) / max(len(values), 1))

        spectrum = full_spectrum(make())
        entries = spectrum.entries
        ones = [c for cut, c in entries.items() if len(cut.subset) == 1]
        multis = [c for cut, c in entries.items() if len(cut.subset) > 1]
        geometry = volume(spectrum)
        assert len(ones) == geometry.n == spectrum.n
        assert geometry.base_edge == mean(ones)
        assert geometry.height == mean(multis)
        area = base_area(geometry.n, geometry.base_edge)
        assert (geometry.base_area, geometry.volume) == (area, area * geometry.height / 3.0)


class TestTriangleMeasure:
    def test_ghz3(self):
        assert triangle_measure(full_spectrum(ghz_state(3))) == pytest.approx(1.0, abs=1e-12)

    def test_w3(self):
        assert triangle_measure(full_spectrum(w_state(3))) == pytest.approx(8 / 9, abs=1e-12)

    def test_product_factor_kills_it(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        state = PureState((2, 2, 2), np.kron([1.0, 0.0], bell))
        assert triangle_measure(full_spectrum(state)) == pytest.approx(0.0, abs=1e-7)

    def test_rejects_other_party_counts(self):
        with pytest.raises(ValueError, match="3 parties"):
            triangle_measure(full_spectrum(ghz_state(4)))


class TestCGme:
    def test_psi_a(self):
        assert c_gme(full_spectrum(benchmark_states()["psi_A"])) == pytest.approx(SQRT3_OVER_2, abs=1e-12)

    def test_psi_c_exact(self):
        assert c_gme(full_spectrum(benchmark_states()["psi_C"])) == pytest.approx(0.8, abs=1e-12)

    def test_ghz4(self):
        assert c_gme(full_spectrum(ghz_state(4))) == pytest.approx(1.0, abs=1e-12)


class TestClassify:
    def test_fully_separable_lists_every_cut(self):
        amps = np.zeros(16)
        amps[0] = 1.0
        label, zero_cuts = classify(full_spectrum(PureState((2, 2, 2, 2), amps)))
        assert label == "fully-separable"
        assert len(zero_cuts) == 7

    def test_biseparable_fixture(self):
        label, zero_cuts = classify(full_spectrum(benchmark_states()["phi_12345"]))
        assert label == "biseparable"
        assert (1, 3) in [cut.subset for cut in zero_cuts]

    def test_ghz4_is_gme(self):
        label, zero_cuts = classify(full_spectrum(ghz_state(4)))
        assert label == "GME"
        assert zero_cuts == ()

    @pytest.mark.parametrize("cut", canonical_bipartitions(4), ids=lambda cut: cut.label())
    def test_real_product_across_each_cut(self, cut):
        state = real_product_state(REAL_PRODUCT_DIMS, cut.subset, [88, *cut.subset])
        assert state._tensor.dtype == np.float64
        spectrum = full_spectrum(state)
        label, zero_cuts = classify(spectrum)
        assert label == "biseparable"
        assert zero_cuts == (cut,)
        assert spectrum.entries[cut] < DEFAULT_ZERO_TOL


class TestProperties:
    def test_permutation_invariance(self):
        for trial in range(25):
            state = haar_random_state((3, 2, 2, 2), [81, trial])
            rng = np.random.default_rng([82, trial])
            perm = [int(p) + 1 for p in rng.permutation(4)]
            shuffled = permute_subsystems(state, perm)
            for measure in (lambda s: volume(full_spectrum(s)).volume, lambda s: c_gme(full_spectrum(s))):
                assert abs(measure(shuffled) - measure(state)) < 1e-10

    def test_triangle_permutation_invariance(self):
        for trial in range(25):
            state = haar_random_state((2, 2, 2), [83, trial])
            rng = np.random.default_rng([84, trial])
            perm = [int(p) + 1 for p in rng.permutation(3)]
            before = triangle_measure(full_spectrum(state))
            after = triangle_measure(full_spectrum(permute_subsystems(state, perm)))
            assert abs(after - before) < 1e-10

    def test_nullity_on_random_product_states(self):
        for n, dims in [(4, (2, 2, 2, 2)), (5, (2, 2, 2, 2, 2))]:
            for trial in range(50):
                rng = np.random.default_rng([85, n, trial])
                k = int(rng.integers(1, n // 2 + 1))
                sites = sorted(int(s) + 1 for s in rng.choice(n, size=k, replace=False))
                state = random_product_state(dims, sites, [86, n, trial])
                assert volume(full_spectrum(state)).volume <= 1e-9
        for cut in canonical_bipartitions(4):
            state = real_product_state(REAL_PRODUCT_DIMS, cut.subset, [88, *cut.subset])
            assert volume(full_spectrum(state)).volume <= 1e-9

    def test_positive_volume_implies_no_zero_cuts(self):
        for trial in range(25):
            spectrum = full_spectrum(haar_random_state((2, 2, 2, 2), [87, trial]))
            if volume(spectrum).volume > DEFAULT_ZERO_TOL:
                _, zero_cuts = classify(spectrum)
                assert zero_cuts == ()

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_ghz_closed_form(self, n):
        expected = n / (12 * math.tan(math.pi / n))
        assert volume(full_spectrum(ghz_state(n))).volume == pytest.approx(expected, abs=1e-9)

    def test_volume_rises_on_average_under_a_local_filter(self):
        # A two-outcome instrument on qubit 1 of cos t|0000> + sin t|1111>:
        # outcome 0 leaves GHZ4 (volume 1/3) with probability 2 sin^2 t,
        # outcome 1 a product state. Each cut concurrence and C_GME are
        # ensemble LOCC monotones; the volume rises from sin^3(2t)/3 to
        # 2 sin^2(t)/3, for every t below about 0.287.
        t = 0.1
        amps = np.zeros(16)
        amps[0], amps[15] = math.cos(t), math.sin(t)
        kraus = [np.diag([math.tan(t), 1.0]), np.diag([math.sqrt(1.0 - math.tan(t) ** 2), 0.0])]
        assert np.allclose(sum(k.T @ k for k in kraus), np.eye(2), rtol=0.0, atol=1e-15)
        before = evaluate(PureState((2,) * 4, amps))
        mean_volume = mean_c_gme = 0.0
        for k in kraus:
            branch = (k @ amps.reshape(2, 8)).ravel()
            report = evaluate(PureState((2,) * 4, branch, normalize=True))
            mean_volume += branch @ branch * report.volume
            mean_c_gme += branch @ branch * report.c_gme
        assert before.volume == pytest.approx(math.sin(2 * t) ** 3 / 3, abs=1e-15)
        assert mean_volume == pytest.approx(2 * math.sin(t) ** 2 / 3, abs=1e-15)
        assert mean_volume > before.volume
        assert before.c_gme == pytest.approx(math.sin(2 * t), abs=1e-14)
        # The product branch's cuts read at the sqrt(eps) floor, not 0.0.
        assert mean_c_gme == pytest.approx(2 * math.sin(t) ** 2, abs=DEFAULT_ZERO_TOL)
        assert mean_c_gme < before.c_gme

    def test_ghz_beats_w(self):
        v_ghz = volume(full_spectrum(ghz_state(4))).volume
        v_w = volume(full_spectrum(w_state(4))).volume
        assert v_w == pytest.approx(0.25, abs=1e-12)
        assert v_ghz > v_w


class TestEvaluate:
    def test_report_fields(self):
        report = evaluate(benchmark_states()["psi_B"], state_id="psi_B")
        assert report.state_id == "psi_B"
        assert report.spectrum.n == 4
        assert report.volume == pytest.approx(ORACLE_VOLUMES["psi_B"], abs=1e-12)
        assert report.triangle is None
        assert report.classification == "GME"
        assert len(report.spectrum.entries) == 7
        assert report.zero_cuts == ()

    def test_report_carries_the_spectrum_it_was_built_from(self):
        state = haar_random_state((3, 2, 4, 2), seed=[96])
        report = evaluate(state)
        assert report.spectrum.dims == (3, 2, 4, 2)
        assert report.spectrum.values == full_spectrum(state).values

    def test_tripartite_report_has_triangle(self):
        report = evaluate(ghz_state(3))
        assert report.triangle == pytest.approx(1.0, abs=1e-12)
        assert report.volume == pytest.approx(math.sqrt(3) / 12, abs=1e-12)
        assert report.notes == ()

    def test_qutrit_triangle_note(self):
        report = evaluate(haar_random_state((3, 2, 2), seed=9))
        assert report.triangle is not None
        assert any("qubit" in note for note in report.notes)

    # A bool is no tolerance: True would otherwise read as a cutoff of 1.0.
    # An integer too large for a float reads as inf of its sign.
    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), True, np.True_, 10**400, -(10**400)])
    def test_rejects_bad_zero_tol(self, tol):
        message = "finite and >= 0" + {10**400: ", got inf$", -(10**400): ", got -inf$"}.get(tol, "")
        with pytest.raises(ValueError, match=message):
            evaluate(ghz_state(4), zero_tol=tol)
        spectrum = full_spectrum(benchmark_states()["phi_12345"])
        with pytest.raises(ValueError, match=message):
            volume(spectrum, zero_tol=tol)
        with pytest.raises(ValueError, match=message):
            classify(spectrum, zero_tol=tol)

    ENTRIES = {
        "evaluate": lambda tol: evaluate(benchmark_states()["phi_12345"], zero_tol=tol),
        "classify": lambda tol: classify(full_spectrum(benchmark_states()["phi_12345"]), zero_tol=tol),
        "volume": lambda tol: volume(full_spectrum(benchmark_states()["phi_12345"]), zero_tol=tol),
    }

    # Text takes the one form of every number read from text: ASCII, no "_".
    @pytest.mark.parametrize(
        "tol, message",
        [
            (float("nan"), "finite and >= 0, got nan"),
            (-1.0, "finite and >= 0, got -1.0"),
            (float("inf"), "finite and >= 0, got inf"),
            (True, "finite and >= 0, got True"),
            (10**400, "finite and >= 0, got inf"),
            (-(10**400), "finite and >= 0, got -inf"),
            ("1e-3_0", "a plain ASCII number, got '1e-3_0'"),
            ("1_0", "a plain ASCII number, got '1_0'"),
            ("\uff11e-7", "a plain ASCII number, got '\uff11e-7'"),
            ("\u0661", "a plain ASCII number, got '\u0661'"),
            ("abc", "a plain ASCII number, got 'abc'"),
            (b"1_0", "a plain ASCII number, got b'1_0'"),
            (bytearray(b"1e-7"), "a plain ASCII number, got bytearray(b'1e-7')"),
            (array.array("b", b"12"), "a plain ASCII number, got array('b', [49, 50])"),
            (None, "a plain ASCII number, got None"),
            ([1e-7], "a plain ASCII number, got [1e-07]"),
        ],
        ids=["nan", "negative", "inf", "bool", "huge", "huge-negative",
             "exponent-underscore", "underscore", "fullwidth", "arabic", "not-a-number",
             "bytes", "bytearray", "buffer", "none", "list"],
    )
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_each_public_entry_refuses_a_bad_tolerance(self, entry, tol, message):
        with pytest.raises(ValueError, match=f"^tolerance must be {re.escape(message)}$"):
            self.ENTRIES[entry](tol)

    # The helpers behind the entries take the checked value: one check per
    # call, also where a state has zero cuts, as phi_12345 does.
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_each_public_entry_checks_the_tolerance_once(self, monkeypatch, entry):
        module = sys.modules["gmepyramid.measures"]
        calls = []

        def counted(value):
            calls.append(value)
            return check_tolerance(value)

        monkeypatch.setattr(module, "check_tolerance", counted)
        assert self.ENTRIES[entry]("1e-7") == self.ENTRIES[entry](1e-7)
        assert calls == ["1e-7", 1e-7]

    # -0.0 passes ">= 0"; the checked value is 0.0, so no report states a signed cutoff.
    @pytest.mark.parametrize("tol", [-0.0, "-0", "-0e-7"])
    def test_a_negative_zero_reads_as_zero(self, tol):
        assert str(check_tolerance(tol)) == "0.0"
        assert str(evaluate(ghz_state(4), zero_tol=tol).zero_tol) == "0.0"

    @pytest.mark.parametrize("measure", [classify, volume])
    @pytest.mark.parametrize("state_id", ["phi_12345", "psi_A"])
    def test_a_tolerance_given_as_text_is_used_as_its_float(self, measure, state_id):
        spectrum = full_spectrum(benchmark_states()[state_id])
        assert measure(spectrum, zero_tol="1e-7") == measure(spectrum, zero_tol=1e-7)

    def test_two_party_report_skips_volume(self):
        report = evaluate(ghz_state(2))
        assert report.volume is None
        assert report.triangle is None
        assert report.c_gme == pytest.approx(1.0, abs=1e-12)


def test_evaluate_enumerates_once_and_takes_one_purity_per_cut(monkeypatch):
    """The call pattern a span tracer counts: it swaps the function in every
    gmepyramid module that holds a reference to it, as bench/spans.py does.

    From four parties on, the spectrum runs on the per-N table of plain
    subsets and a state with no zero cut asks for no cut object, so
    ``canonical_bipartitions`` is not called; every root of the cut forest
    takes its Gram product inside a chunk of the spectrum plan, so
    ``reduced_purity`` never runs: not on six qubits, and not on
    (2, 3, 2, 2, 2, 2), whose four half cuts {1,2,x} take the Gram product
    of their other side (8 < 12). At three parties the cuts are enumerated
    once and every cut still takes one call.
    """
    calls: Counter = Counter()
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gmepyramid"]
    targets = (("bipartitions", "canonical_bipartitions"), ("concurrence", "reduced_purity"))
    for owner, attr in targets:
        # The package exports a function named ``concurrence``; look the module up.
        original = getattr(sys.modules[f"gmepyramid.{owner}"], attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                monkeypatch.setattr(m, key, counted)

    report = evaluate(haar_random_state((2, 3, 2, 2, 2, 2), seed=[95]))
    assert calls == {}
    assert len(report.spectrum.entries) == 31

    calls.clear()
    report = evaluate(haar_random_state((2,) * 6, seed=[95]))
    assert calls == {}
    assert len(report.spectrum.entries) == 31

    calls.clear()
    report = evaluate(ghz_state(3))
    assert calls == {"canonical_bipartitions": 1, "reduced_purity": 3}
    assert len(report.spectrum.entries) == 3
