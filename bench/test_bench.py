"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gmepyramid as gp  # noqa: E402
import gmepyramid.cli  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import EvalLarge, EvalSmall, VerifySweep  # noqa: E402


def _report(state, zero_tol=gp.DEFAULT_ZERO_TOL) -> dict:
    doc = gmepyramid.cli.report_document([gp.evaluate(state, "x")], zero_tol)
    return json.loads(gmepyramid.cli.dumps_report(doc))["states"][0]


def test_generators_are_deterministic_per_seed(tmp_path):
    for a, b in zip(EvalSmall.generate(3), EvalSmall.generate(3)):
        assert a[0] == b[0] and a[2:] == b[2:]
        assert np.array_equal(a[1], b[1])
    assert not np.array_equal(EvalSmall.generate(3)[0][1], EvalSmall.generate(4)[0][1])

    first, second = EvalLarge.generate(3), EvalLarge.generate(3)
    for key, (dims, amps) in first.items():
        inputs.write_state(tmp_path / "a.txt", dims, amps)
        inputs.write_state(tmp_path / "b.txt", *second[key])
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    one, two = VerifySweep(gp, 3, tmp_path), VerifySweep(gp, 3, tmp_path)
    ops = range(3 * VerifySweep.cycle)
    assert [one.config(i) for i in ops] == [two.config(i) for i in ops]


def test_written_file_round_trips_through_the_parser(tmp_path):
    dims, amps = EvalLarge.generate(5)["mixed11"]
    inputs.write_state(tmp_path / "s.txt", dims, amps)
    state = gp.load_state(tmp_path / "s.txt")
    assert state.dims == dims
    np.testing.assert_allclose(state.amplitudes, amps, rtol=0, atol=1e-15)


def test_reference_matches_closed_forms():
    ref = inputs.reference((2,) * 4, inputs.ghz(4), gp.DEFAULT_ZERO_TOL, inputs.GME)
    assert all(abs(c - 1.0) < 1e-15 for c in ref.concurrences.values())
    assert math.isclose(ref.volume, 4 / (12 * math.tan(math.pi / 4)), rel_tol=1e-15)

    rng = np.random.default_rng(0)
    amps = inputs.product(rng, (2, 3, 2, 2), (2, 4), real=False)
    ref = inputs.reference((2, 3, 2, 2), amps, gp.DEFAULT_ZERO_TOL, inputs.BISEPARABLE)
    assert ref.zero_cuts == {"1,3"}
    assert ref.concurrences["1,3"] < 1e-14
    assert ref.volume == 0.0


@pytest.mark.parametrize("expected", [inputs.GME, inputs.BISEPARABLE])
def test_gate_accepts_program_and_rejects_perturbations(expected):
    rng = np.random.default_rng(1)
    dims = (2, 3, 2, 2, 2)
    if expected == inputs.GME:
        amps = inputs.haar(rng, dims)
    else:
        amps = inputs.product(rng, dims, (1, 4), real=True)
    ref = inputs.reference(dims, amps, gp.DEFAULT_ZERO_TOL, expected)
    doc = _report(gp.PureState(dims, amps))
    assert inputs.check_state(doc, ref) == []

    perturbed = copy.deepcopy(doc)
    key = max(perturbed["concurrences"], key=perturbed["concurrences"].get)
    perturbed["concurrences"][key] += 1e-9
    assert any(key in p for p in inputs.check_state(perturbed, ref))

    wrong_class = copy.deepcopy(doc)
    wrong_class["classification"] = inputs.BISEPARABLE if expected == inputs.GME else inputs.GME
    assert any("classification" in p for p in inputs.check_state(wrong_class, ref))


def test_tracer_records_spans_and_restores_the_functions():
    evaluate, init = gp.evaluate, gp.PureState.__init__
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.op_id = 7
        gp.evaluate(gp.PureState((2, 2, 2), inputs.ghz(3)), "x")
    finally:
        restore()
    assert gp.evaluate is evaluate and gp.PureState.__init__ is init
    a = spans.analyse(tracer)
    assert a["calls"]["measures.evaluate"] == 1
    assert a["calls"]["concurrence.reduced_purity"] == 3
    assert set(tracer.op) == {7}
    metrics = spans.layer_metrics(a, 1, startup_ms=1.0)
    assert set(metrics) == {name for name, *_ in spans.LAYER_METRICS}
    assert metrics["bipartitions.cuts"] == 3
    assert metrics["measures.geometry_ms"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, *_ in spans.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == ["eval-large", "eval-small", "verify-sweep"]
