"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (shown with ``pytest -s`` and in the
captured output of failures).

A published value that provably cannot be reproduced is not matched: it is
reported with its deviation, and the computed value is checked against a
proven value instead. Criterion 4 does this for the W4 volume. Criterion 2
does it for any benchmark volume that falls below the bound every state with
the published C_GME obeys, V >= (N/12) cot(pi/N) C_GME^3 (each geometric-mean
factor is at least the minimum cut concurrence). The psi_C print 0.1487 lies
below its bound 0.8^3 / 3 = 0.1707, so its computed volume is held within
1e-12 of both the dense-oracle route and its closed form instead.
"""

import math


from gmepyramid import (
    TrialConfig,
    canonical_bipartitions,
    c_gme,
    dense_oracle_purity,
    full_spectrum,
    ghz_state,
    haar_random_state,
    run_check,
    triangle_measure,
    volume,
    w_state,
)
from gmepyramid.catalog import PAPER_STATES, benchmark_states


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _oracle_volume(state) -> float:
    """Independent route: concurrences from the dense oracle, combined by hand."""
    n = len(state.dims)
    oracle_c = {
        cut: math.sqrt(max(0.0, 2.0 * (1.0 - dense_oracle_purity(state, cut))))
        for cut in canonical_bipartitions(n)
    }
    singles = [c for cut, c in oracle_c.items() if cut.size == 1]
    others = [c for cut, c in oracle_c.items() if cut.size > 1]
    a = math.prod(singles) ** (1 / len(singles))
    h = math.prod(others) ** (1 / len(others)) if others else 1.0
    return n * a * a / (12.0 * math.tan(math.pi / n)) * h


# Closed forms of volumes whose published print is provably unreachable.
# psi_C's cut concurrences are 4/5 for {1}, 2 sqrt(6)/5 for {2}, {3}, {4} and
# 2 sqrt(7)/5 for the three half cuts.
CLOSED_FORM_VOLUMES = {
    "psi_C": math.sqrt(0.8 * (2 * math.sqrt(6) / 5) ** 3) * (2 * math.sqrt(7) / 5) / 3.0,
}


def test_criterion_1_ghz4_volume_and_cuts():
    spectrum = full_spectrum(ghz_state(4))
    vol = volume(spectrum).volume
    vol_dev = abs(vol - 1 / 3)
    cut_dev = max(abs(c - 1.0) for c in spectrum.entries.values())
    ok = vol_dev <= 1e-6 and len(spectrum.entries) == 7 and cut_dev <= 1e-12
    _criterion(
        "criterion-1 GHZ4",
        ok,
        f"V={vol:.10f} (|V-1/3|={vol_dev:.2e} <= 1e-6), "
        f"max cut deviation {cut_dev:.2e} <= 1e-12 over 7 cuts",
    )


def test_criterion_2_benchmark_reproduction():
    failures = []
    details = []
    for name in ("psi_A", "psi_B", "psi_C", "psi_D"):
        state = benchmark_states()[name]
        n = len(state.dims)
        spectrum = full_spectrum(state)
        report_volume = volume(spectrum).volume
        cgme = c_gme(spectrum)
        published = PAPER_STATES[name][1]
        v_dev = abs(report_volume - published["volume"])
        c_dev = abs(cgme - published["c_gme"])
        if c_dev > 1e-4:
            failures.append(f"{name} c_gme dev {c_dev:.3e} > 1e-4")
        # Least volume of any N-party state with the published C_GME.
        bound = n / (12.0 * math.tan(math.pi / n)) * published["c_gme"] ** 3
        if published["volume"] >= bound:
            if v_dev > 2e-3:
                failures.append(
                    f"{name} volume dev {v_dev:.3e} > 2e-3 (computed {report_volume:.4f})"
                )
            details.append(f"{name} V dev {v_dev:.1e}, C_GME dev {c_dev:.1e}")
            continue
        # The published volume is unreachable for any state with the published
        # C_GME, so check the computed volume against its proven value instead.
        oracle_dev = abs(report_volume - _oracle_volume(state))
        closed = CLOSED_FORM_VOLUMES.get(name)
        closed_dev = math.inf if closed is None else abs(report_volume - closed)
        if oracle_dev > 1e-12 or closed_dev > 1e-12:
            failures.append(
                f"{name} volume {report_volume:.16f} off its proven value: "
                f"oracle dev {oracle_dev:.1e}, closed-form dev {closed_dev:.1e} (> 1e-12)"
            )
        details.append(
            f"{name} V={report_volume:.10f} (oracle dev {oracle_dev:.1e}, closed-form dev "
            f"{closed_dev:.1e}, tol 1e-12; published {published['volume']} < bound "
            f"{bound:.4f} is unreachable, dev {v_dev:.4f}), C_GME dev {c_dev:.1e}"
        )
    detail = "; ".join(details)
    if failures:
        detail += " | UNMET: " + "; ".join(failures)
    _criterion("criterion-2 benchmark reproduction", not failures, detail)


def test_criterion_3_biseparable_fixture():
    from gmepyramid import classify

    spectrum = full_spectrum(benchmark_states()["phi_12345"])
    vol = volume(spectrum).volume
    label, zero_cuts = classify(spectrum)
    has_13 = (1, 3) in [cut.subset for cut in zero_cuts]
    ok = vol <= 1e-12 and label == "biseparable" and has_13
    _criterion(
        "criterion-3 biseparable fixture",
        ok,
        f"V={vol:.1e} <= 1e-12, classification={label}, "
        f"zero cuts {[c.label() for c in zero_cuts]} include 1,3",
    )


def test_criterion_4_ghz_w_ordering_and_discrepancy():
    w4 = w_state(4)
    v_w = volume(full_spectrum(w4)).volume

    v_oracle = _oracle_volume(w4)

    v_ghz = volume(full_spectrum(ghz_state(4))).volume
    published = 0.1875
    ok = (
        abs(v_w - 0.25) <= 1e-12
        and abs(v_oracle - 0.25) <= 1e-12
        and v_ghz > v_w
    )
    _criterion(
        "criterion-4 GHZ/W ordering",
        ok,
        f"V(GHZ4)={v_ghz:.4f} > V(W4)={v_w:.4f}; dense-oracle V(W4)={v_oracle:.12f} "
        f"(both 0.25 within 1e-12); deviation from published {published} is "
        f"{abs(v_w - published):.4f}, a documented discrepancy",
    )


def test_criterion_5_formula_identities():
    outcome = run_check(
        "n4-formula-equivalence", TrialConfig(dims=(2, 2, 2, 2), trials=100, seed=101)
    )

    profiles = [(2, 2, 2), (3, 2, 2), (3, 3, 3)]
    tri_dev = 0.0
    for trial in range(100):
        dims = profiles[trial % len(profiles)]
        spectrum = full_spectrum(haar_random_state(dims, [102, trial]))
        general = volume(spectrum).volume
        closed = math.sqrt(3) / 12 * math.prod(spectrum.singletons()) ** (2 / 3)
        tri_dev = max(tri_dev, abs(general - closed))

    ok = outcome.passed and outcome.max_deviation <= 1e-12 and tri_dev <= 1e-12
    _criterion(
        "criterion-5 formula identities",
        ok,
        f"N=4 general-vs-special max dev {outcome.max_deviation:.2e} <= 1e-12 (100 states); "
        f"N=3 closed-form max dev {tri_dev:.2e} <= 1e-12 (100 states)",
    )


def test_criterion_6_property_suite():
    runs = [
        ("lu-invariance", (2, 2, 2, 2), 1e-9),
        ("permutation-invariance", (3, 2, 2, 2), 1e-10),
        ("oracle-agreement", (2, 2, 2, 2, 2, 2), 1e-12),
        ("oracle-agreement", (3, 2, 2), 1e-12),
        ("oracle-agreement", (3, 3, 2, 2), 1e-12),
        ("biseparable-nullity", (2, 2, 2, 2), 1e-9),
        ("biseparable-nullity", (2, 2, 2, 2, 2), 1e-9),
    ]
    pieces = []
    ok = True
    for name, dims, tol in runs:
        outcome = run_check(name, TrialConfig(dims=dims, trials=100, seed=103, tol=tol))
        ok = ok and outcome.passed
        pieces.append(f"{name}{list(dims)} max {outcome.max_deviation:.1e} <= {tol:.0e}")
    _criterion("criterion-6 property suite", ok, "; ".join(pieces))


def test_criterion_7_ghz_closed_form():
    outcome = run_check("ghz-closed-form", TrialConfig(dims=(2, 2, 2, 2), trials=1, seed=0))
    v5 = volume(full_spectrum(ghz_state(5))).volume
    ok = outcome.passed and abs(v5 - 0.5734924668629889) <= 1e-9
    _criterion(
        "criterion-7 GHZ closed form",
        ok,
        f"max |V - (N/12)cot(pi/N)| = {outcome.max_deviation:.2e} <= 1e-9 for N=4..8; "
        f"V(GHZ5)={v5:.10f} (~0.5735)",
    )


def test_criterion_8_tripartite_fixtures():
    f_ghz = triangle_measure(full_spectrum(ghz_state(3)))
    f_w = triangle_measure(full_spectrum(w_state(3)))
    v_ghz = volume(full_spectrum(ghz_state(3))).volume
    devs = (
        abs(f_ghz - 1.0),
        abs(f_w - 8 / 9),
        abs(v_ghz - math.sqrt(3) / 12),
    )
    ok = max(devs) <= 1e-12
    _criterion(
        "criterion-8 tripartite fixtures",
        ok,
        f"F(GHZ3) dev {devs[0]:.2e}, F(W3) dev {devs[1]:.2e}, "
        f"V(GHZ3) dev {devs[2]:.2e}, all <= 1e-12",
    )


def test_criterion_9_bipartition_counts():
    ok = True
    for n in range(2, 13):
        cuts = canonical_bipartitions(n)
        if len(cuts) != 2 ** (n - 1) - 1:
            ok = False
        for k in range(1, n // 2 + 1):
            expected = math.comb(n, k) // 2 if 2 * k == n else math.comb(n, k)
            if sum(1 for c in cuts if c.size == k) != expected:
                ok = False
    _criterion(
        "criterion-9 bipartition counts",
        ok,
        "2^(N-1)-1 canonical cuts with C(N,k) group sizes (half class halved), N=2..12",
    )
