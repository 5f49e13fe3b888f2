import gc
import json
import subprocess
import sys
import types

import numpy as np
import pytest

from gmepyramid import (
    CHECK_NAMES,
    DEFAULT_ZERO_TOL,
    ConcurrenceSpectrum,
    MeasureReport,
    benchmark_states,
    bipartitions,
    canonical_bipartitions,
    cli,
    concurrence,
    evaluate,
)
from gmepyramid.cli import dumps_report, main, report_document
from gmepyramid.concurrence import clear_shape_caches
from gmepyramid.states import serialize_state
from gmepyramid.verify import haar_random_state, random_product_state

GHZ4_TEXT = """\
dims 2 2 2 2
amp 0 0 0 0 0.7071067811865476 0.0
amp 1 1 1 1 0.7071067811865476 0.0
"""

BELL_TEXT = """\
dims 2 2
amp 0 0 0.7071067811865476 0.0
amp 1 1 0.7071067811865476 0.0
"""

GHZ3_TEXT = """\
dims 2 2 2
amp 0 0 0 0.7071067811865476 0.0
amp 1 1 1 0.7071067811865476 0.0
"""

PRODUCT3_TEXT = """\
dims 2 2 2
amp 0 0 0 1.0 0.0
"""

PRODUCT4_TEXT = """\
dims 2 2 2 2
amp 0 0 0 0 1.0 0.0
"""


@pytest.fixture
def ghz4_file(tmp_path):
    path = tmp_path / "ghz4.txt"
    path.write_text(GHZ4_TEXT)
    return str(path)


@pytest.fixture
def qutrit_file(tmp_path):
    path = tmp_path / "haar322.txt"
    path.write_text(serialize_state(haar_random_state((3, 2, 2), 1)))
    return str(path)


class TestEval:
    def test_ghz4_human_output(self, ghz4_file, capsys):
        assert main(["eval", ghz4_file]) == 0
        out = capsys.readouterr().out
        assert "classification: GME" in out
        assert "volume: 0.3333" in out
        assert "zero cuts: none" in out

    def test_single_measure_output(self, ghz4_file, capsys):
        assert main(["eval", ghz4_file, "--measure", "cgme"]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_json_roundtrip_is_byte_identical(self, ghz4_file, capsys):
        assert main(["eval", ghz4_file, "--json"]) == 0
        body = capsys.readouterr().out.strip()
        doc = json.loads(body)
        assert dumps_report(doc) == body
        state = doc["states"][0]
        assert state["classification"] == "GME"
        assert state["volume"] == pytest.approx(1 / 3, abs=1e-9)
        assert set(state["concurrences"]) == {"1", "2", "3", "4", "1,2", "1,3", "1,4"}

    def test_fully_separable_fixture(self, tmp_path, capsys):
        path = tmp_path / "product.txt"
        path.write_text(PRODUCT3_TEXT)
        assert main(["eval", str(path)]) == 0
        assert "fully-separable" in capsys.readouterr().out

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("dims 2 2 2\namp 0 0 2 1.0 0.0\n")
        assert main(["eval", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_module_runs_as_a_script(self, qutrit_file, capsys):
        assert main(["eval", qutrit_file, "--json"]) == 0
        args = [sys.executable, "-m", "gmepyramid.cli", "eval", qutrit_file, "--json"]
        run = subprocess.run(args, capture_output=True, text=True)
        assert (run.returncode, run.stderr, run.stdout) == (0, "", capsys.readouterr().out)

    def test_missing_file(self, capsys):
        assert main(["eval", "/nonexistent/state.txt"]) == 2

    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"dims 2 2\n\xff\n")
        assert main(["eval", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: byte 9: not UTF-8 (invalid start byte)\n"

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "ghz4.txt"
        path.write_text(GHZ4_TEXT)
        assert main(["eval", str(path), "--json"]) == 0
        plain = capsys.readouterr().out
        path.write_bytes(b"\xef\xbb\xbf" + GHZ4_TEXT.encode())
        assert main(["eval", str(path), "--json"]) == 0
        assert capsys.readouterr().out == plain

    # Text eval prints the report at any party count, leaving out what it lacks.
    def test_two_parties_print_the_report_without_a_volume(self, tmp_path, capsys):
        path = tmp_path / "bell.txt"
        path.write_text(BELL_TEXT)
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr() == (
            f"state: {path} (dims 2x2)\n"
            "classification: GME\n"
            "c_gme: 1.0000\n"
            "concurrences:\n"
            "  1            1.0000\n"
            "zero cuts: none\n",
            "",
        )

    # Only a single measure the report leaves out is refused; a 4-party
    # triangle is refused in test_triangle_needs_three_parties.
    @pytest.mark.parametrize(
        "text, measure, message",
        [
            (BELL_TEXT, "volume", "no pyramid volume is defined for 2 parties; "
             "rerun with --measure cgme for the single-cut concurrence"),
            (BELL_TEXT, "triangle", "the triangle measure needs exactly 3 parties"),
        ],
        ids=["2-volume", "2-triangle"],
    )
    def test_a_single_measure_the_state_lacks_is_refused(self, tmp_path, capsys, text, measure, message):
        path = tmp_path / "state.txt"
        path.write_text(text)
        assert main(["eval", str(path), "--measure", measure]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    # --json prints the full report, a measure the state lacks null, whatever --measure asks.
    @pytest.mark.parametrize(
        "text, measure, lacking",
        [
            (BELL_TEXT, "volume", "volume"),
            (BELL_TEXT, "all", "volume"),
            (BELL_TEXT, "triangle", "triangle"),
            (GHZ4_TEXT, "triangle", "triangle"),
        ],
        ids=["2-volume", "2-all", "2-triangle", "4-triangle"],
    )
    def test_json_reports_a_measure_the_state_lacks(self, tmp_path, capsys, text, measure, lacking):
        path = tmp_path / "state.txt"
        path.write_text(text)
        assert main(["eval", str(path), "--measure", "cgme", "--json"]) == 0
        expected = capsys.readouterr().out
        assert json.loads(expected)["states"][0][lacking] is None
        assert main(["eval", str(path), "--measure", measure, "--json"]) == 0
        assert capsys.readouterr() == (expected, "")

    def test_two_parties_cgme_works(self, tmp_path, capsys):
        path = tmp_path / "bell.txt"
        path.write_text(BELL_TEXT)
        assert main(["eval", str(path), "--measure", "cgme"]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_normalize_flag(self, tmp_path, capsys):
        path = tmp_path / "unnormalized.txt"
        path.write_text("dims 2 2 2\namp 0 0 0 1.0 0.0\namp 1 1 1 1.0 0.0\n")
        assert main(["eval", str(path)]) == 2
        assert main(["eval", str(path), "--normalize"]) == 0

    @pytest.mark.parametrize("flags", [[], ["--normalize"]], ids=["plain", "normalize"])
    @pytest.mark.parametrize(
        "amp_lines, message",
        [
            ("amp 0 0 0 nan 0.0", "line 2: non-finite amplitude in 'amp 0 0 0 nan 0.0'"),
            ("amp 0 0 0 inf 0.0", "line 2: non-finite amplitude in 'amp 0 0 0 inf 0.0'"),
            ("amp 0 0 0 1e308 0.0\namp 1 1 1 1e308 0.0", "state norm overflows"),
            ("amp 0 0 0 1e-200 0.0\namp 1 1 1 1e-200 0.0", "state norm 1.41e-200 underflows float64"),
        ],
        ids=["nan", "inf", "overflow", "underflow"],
    )
    def test_non_finite_amplitudes_are_refused(self, tmp_path, capsys, amp_lines, message, flags):
        path = tmp_path / "amps.txt"
        path.write_text("dims 2 2 2\n" + amp_lines + "\n")
        assert main(["eval", str(path), "--json", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"amps.txt: {message}" in captured.err

    def test_biseparable_fixture_file(self, tmp_path, capsys):
        path = tmp_path / "phi.txt"
        path.write_text(serialize_state(benchmark_states()["phi_12345"]))
        assert main(["eval", str(path)]) == 0
        out = capsys.readouterr().out
        assert "classification: biseparable" in out
        assert "volume: 0.0000" in out
        assert "1,3" in out.split("zero cuts:")[1]

    @pytest.mark.parametrize(
        "text, measure, out",
        [(GHZ4_TEXT, "volume", "0.3333\n"), (GHZ3_TEXT, "triangle", "1.0000\n")],
        ids=["volume", "triangle"],
    )
    def test_single_measure_values(self, tmp_path, capsys, text, measure, out):
        path = tmp_path / "state.txt"
        path.write_text(text)
        assert main(["eval", str(path), "--measure", measure]) == 0
        assert capsys.readouterr() == (out, "")

    def test_triangle_needs_three_parties(self, ghz4_file, capsys):
        assert main(["eval", ghz4_file, "--measure", "triangle"]) == 2
        assert capsys.readouterr() == ("", "error: the triangle measure needs exactly 3 parties\n")

    def test_qutrit_triangle_gets_a_note(self, tmp_path, capsys):
        path = tmp_path / "qutrit.txt"
        path.write_text(GHZ3_TEXT.replace("dims 2 2 2", "dims 3 2 2"))
        assert main(["eval", str(path)]) == 0
        notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("note:")]
        assert notes == [
            "note: triangle measure applied beyond qubit subsystems; "
            "the formula was defined for three-qubit states"
        ]

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "dims" + " 3" * 17 + "\n",
                "line 1: total dimension 129140163 exceeds the supported maximum 67108864",
            ),
            ("dims 2 2.5\n", "line 1: non-integer dimension in 'dims 2 2.5'"),
            ("dims 2 2\nampl 0 0 1.0 0.0\n", "line 2: expected 'amp ...', got 'ampl'"),
        ],
        ids=["seventeen-qutrits", "non-integer-dimension", "unknown-keyword"],
    )
    def test_format_refusals(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["eval", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


class TestBipartitions:
    def test_n4_grouped_output(self, capsys):
        assert main(["bipartitions", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["# k=1", "1", "2", "3", "4", "# k=2", "1,2", "1,3", "1,4"]

    def test_rejects_single_party(self, capsys):
        assert main(["bipartitions", "1"]) == 2
        assert "error" in capsys.readouterr().err

    # int() alone would read the Arabic-Indic three and "1_0" as 10.
    @pytest.mark.parametrize("n", ["\u0663", "1_0", "\uff14"], ids=["arabic", "underscore", "fullwidth"])
    def test_party_count_takes_plain_ascii_digits(self, capsys, n):
        with pytest.raises(SystemExit) as exc:
            main(["bipartitions", n])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument n: invalid int value: {n!r}\n")

    def test_streams_without_filling_the_cut_cache(self, capsys):
        size = bipartitions._cuts.cache_info().currsize
        assert main(["bipartitions", "16"]) == 0
        assert bipartitions._cuts.cache_info().currsize == size
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("#")] == [f"# k={k}" for k in range(1, 9)]
        assert len(lines) == 2**15 - 1 + 8
        assert lines[-1] == "1,10,11,12,13,14,15,16"

    def test_rejects_more_parties_than_a_state_can_have(self, capsys, monkeypatch):
        def refuse_enumeration(*args):
            raise AssertionError("started enumerating cuts")

        monkeypatch.setattr(bipartitions, "Bipartition", refuse_enumeration)
        assert main(["bipartitions", "27"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: subsystem count 27 exceeds the supported maximum 26\n"

    def test_a_closed_pipe_ends_the_listing_quietly(self):
        # As in `gmepyramid bipartitions 20 | head -1`: no BrokenPipeError traceback.
        args = [sys.executable, "-m", "gmepyramid.cli", "bipartitions", "20"]
        with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
            assert run.stdout.readline() == b"# k=1\n"
            run.stdout.close()
            assert run.stderr.read() == b""


def _refuse_construction(*args):
    raise AssertionError("built a cut")


class TestCutObjects:
    """From four parties on, a report is evaluated and rendered from the
    per-N table of plain subsets; cut objects are built only for zero cuts."""

    @pytest.mark.parametrize("dims", [(2,) * 5, (2, 3, 2, 2, 2, 2)], ids=str)
    def test_a_report_without_zero_cuts_builds_no_cut(self, monkeypatch, capsys, dims):
        clear_shape_caches()
        # Every Bipartition construction goes through split.
        monkeypatch.setattr(bipartitions, "split", _refuse_construction)
        report = evaluate(haar_random_state(dims, seed=[96]))
        assert report.zero_cuts == ()
        doc = json.loads(dumps_report(report_document([report], DEFAULT_ZERO_TOL)))
        cli._print_report(report)
        printed = capsys.readouterr().out.splitlines()
        monkeypatch.undo()
        labels = [cut.label() for cut in canonical_bipartitions(len(dims))]
        assert list(doc["states"][0]["concurrences"]) == sorted(labels)
        assert [line.split()[0] for line in printed if line.startswith("  ")] == labels

    def test_zero_cuts_are_the_shared_cut_objects(self):
        clear_shape_caches()
        report = evaluate(random_product_state((2, 3, 2, 2, 2), (1, 3), seed=[97]))
        cuts = canonical_bipartitions(5)
        assert report.zero_cuts
        for cut in report.zero_cuts:
            assert cut is cuts[cuts.index(cut)]


class TestPaper:
    def test_flags_unreproducible_rows(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "W4" in out and "psi_D" in out and "phi_12345" in out
        flagged = [line for line in out.splitlines() if "not reproduced" in line]
        assert len(flagged) == 2
        assert any(line.startswith("W4") for line in flagged)
        assert any(line.startswith("psi_C") for line in flagged)

    def test_json_rows(self, capsys):
        assert main(["paper", "--json"]) == 0
        body = capsys.readouterr().out.strip()
        doc = json.loads(body)
        assert dumps_report(doc) == body
        rows = {(r["id"], r["quantity"]): r for r in doc["paper_rows"]}
        w4 = rows[("W4", "volume")]
        assert w4["flagged"] is True
        assert w4["computed"] == pytest.approx(0.25, abs=1e-12)
        assert w4["deviation"] == pytest.approx(0.0625, abs=1e-9)
        assert rows[("psi_A", "volume")]["flagged"] is False
        assert rows[("psi_A", "c_gme")]["deviation"] < 1e-4
        assert rows[("psi_D", "volume")]["deviation"] < 2e-3
        assert len(doc["states"]) == 7


class TestRandom:
    def test_passing_check(self, capsys):
        args = ["random", "--dims", "2,2,2,2", "--seed", "7", "--trials", "20",
                "--check", "lu-invariance"]
        assert main(args) == 0
        assert "pass" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        args = ["random", "--dims", "2,2,2", "--seed", "5", "--trials", "10",
                "--check", "permutation-invariance", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_failing_check_exits_nonzero(self, capsys):
        args = ["random", "--dims", "2,2,2,2", "--seed", "3", "--trials", "10",
                "--check", "oracle-agreement", "--tol", "1e-30"]
        assert main(args) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["random", "--dims", "2,2", "--check", "nonsense"])
        assert exc.value.code == 2

    # int() alone would read the Arabic-Indic digit, "1_0" and the no-break space.
    @pytest.mark.parametrize(
        "dims", ["2,x", "2,2,\u0662", "2,1_0", "2,\u00a02"], ids=["letter", "arabic", "underscore", "nbsp"]
    )
    def test_bad_dims_string(self, capsys, dims):
        args = ["random", "--dims", dims, "--check", "lu-invariance"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: --dims expects comma-separated integers, got {dims!r}\n"

    @pytest.mark.parametrize(
        "dims, message",
        [
            ("2", "at least 2 subsystems"),
            ("2,0", ">= 2, got (2, 0)"),
            ("1,2,2", ">= 2, got (1, 2, 2)"),
        ],
    )
    def test_dims_no_state_can_have(self, capsys, dims, message):
        assert main(["random", "--dims", dims, "--check", "ghz-closed-form"]) == 2
        assert message in capsys.readouterr().err

    def test_incompatible_dims_usage_error(self, capsys):
        args = ["random", "--dims", "2,2,2", "--check", "n4-formula-equivalence"]
        assert main(args) == 2
        assert "4 parties" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value",
        [("--trials", "1_0"), ("--seed", "\u0661"), ("--trials", "\u0661\u0660"), ("--seed", "1_000")],
        ids=["trials-underscore", "seed-arabic", "trials-arabic", "seed-underscore"],
    )
    def test_integer_options_take_plain_ascii_digits(self, capsys, option, value):
        args = ["random", "--dims", "2,2,2", "--check", "ghz-closed-form", option, value]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("check", ["ghz-closed-form", "lu-invariance"])
    def test_negative_seed_is_usage_error(self, capsys, check):
        args = ["random", "--dims", "2,2,2,2", "--seed", "-1", "--check", check]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err

    def test_json_outcome(self, capsys):
        args = ["random", "--dims", "2,2,2,2", "--seed", "1", "--trials", "5",
                "--check", "biseparable-nullity", "--json"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        check = doc["checks"][0]
        assert check["passed"] is True
        assert check["max_deviation"] <= 1e-9


class TestTolerance:
    @staticmethod
    def args(command, tmp_path):
        path = tmp_path / "prod.txt"
        path.write_text(PRODUCT4_TEXT)
        return {
            "eval": ["eval", str(path)],
            "paper": ["paper"],
            "random": ["random", "--dims", "2,2,2", "--check", "ghz-closed-form"],
        }[command]

    # Text takes the one form of every number read from text: ASCII, no "_".
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1_0", "1e-3_0", "\uff11e-7", "\u0661"])
    @pytest.mark.parametrize("command", ["eval", "paper", "random"])
    def test_refused_as_usage_error(self, tmp_path, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main(self.args(command, tmp_path) + ["--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "finite and >= 0" if tol in ("-1", "nan", "inf") else f"a plain ASCII number, got {tol!r}"
        assert f"error: argument --tol: tolerance must be {reason}" in captured.err

    def test_zero_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "prod.txt"
        path.write_text(PRODUCT4_TEXT)
        assert main(["eval", str(path), "--tol", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["zero"] == 0.0

    # -0 passes ">= 0", and every report states it as 0.0, not as a signed cutoff.
    @pytest.mark.parametrize("command", ["eval", "paper", "random"])
    def test_a_negative_zero_is_stated_as_zero(self, tmp_path, capsys, command):
        # ghz-closed-form's deviations are a few ulps, above a cutoff of 0.
        expected = 1 if command == "random" else 0
        assert main(self.args(command, tmp_path) + ["--tol", "-0", "--json"]) == expected
        out = capsys.readouterr().out
        doc = json.loads(out)
        tol = doc["checks"][0]["tolerance"] if command == "random" else doc["tolerances"]["zero"]
        assert str(tol) == "0.0" and "-0.0" not in out


def _reference_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


class TestRenderer:
    """``dumps_report`` renders exactly what ``json.dumps(indent=2, sort_keys=True)`` does."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        """Every document the CLI hands to ``dumps_report``, as (doc, text) pairs."""
        seen = []

        def record(doc):
            text = dumps_report(doc)
            seen.append((doc, text))
            return text

        monkeypatch.setattr(cli, "dumps_report", record)
        return seen

    def test_eval_documents_of_the_built_in_states(self, tmp_path, qutrit_file, capsys, rendered):
        for state_id, state in benchmark_states().items():
            path = tmp_path / f"{state_id}.txt"
            path.write_text(serialize_state(state))
            assert main(["eval", str(path), "--json"]) == 0
        assert main(["eval", qutrit_file, "--json"]) == 0
        assert len(rendered) == 8 and rendered[-1][0]["states"][0]["notes"]
        for doc, text in rendered:
            assert text == _reference_dump(doc) == _reference_dump(json.loads(text))
        assert capsys.readouterr().out == "".join(text + "\n" for _, text in rendered)

    def test_paper_document(self, capsys, rendered):
        assert main(["paper", "--json"]) == 0
        (doc, text), = rendered
        assert len(doc["states"]) == 7 and doc["paper_rows"]
        assert text == _reference_dump(doc) == _reference_dump(json.loads(text))
        assert capsys.readouterr().out == text + "\n"

    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_random_document_of_each_check(self, capsys, rendered, check):
        args = ["random", "--dims", "2,2,2,2", "--seed", "3", "--trials", "2", "--check", check]
        assert main(args + ["--json"]) == 0
        (doc, text), = rendered
        assert doc["checks"][0]["check"] == check
        assert text == _reference_dump(doc) == _reference_dump(json.loads(text))
        assert capsys.readouterr().out == text + "\n"

    def test_synthetic_document(self):
        doc = {
            "id": "caf\u00e9 \u03c8 \U0001d49c",
            "quoted": 'say "hi" \\ back\n\ttab\x00',
            "empty list": [],
            "empty dict": {},
            "nested": [[1, [2.5, []]], [{}], [{"b": None, "a": [True, False]}]],
            "ints": [0, -7, 2**70],
            "bools": {"t": True, "f": False},
            "none": None,
            "floats": [-0.0, 5e-324, 1e300, 0.1, -2.5e-17, 1.0],
            "non-finite": [float("nan"), float("inf"), float("-inf")],
            "tuple": (1, "two", 3.0),
        }
        text = dumps_report(doc)
        assert text == _reference_dump(doc)
        assert "NaN,\n" in text and "Infinity,\n" in text and "-Infinity\n" in text
        assert dumps_report({}) == "{}" and dumps_report([]) == "[]"

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The strings the renderer encodes one by one: the generic path
        encodes every key, a concurrence block's frame none."""
        seen = []

        def record(text):
            seen.append(text)
            return encode(text)

        encode = cli._encode_str
        monkeypatch.setattr(cli, "_encode_str", record)
        return seen

    @staticmethod
    def block(dims, seed):
        """A report's concurrence block of ``dims``, its frame built by
        ``report_document``, with values of many magnitudes, 0.0 and 1.0."""
        n = len(dims)
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, 2 ** (n - 1) - 1) * 10.0 ** -rng.integers(0, 17, 2 ** (n - 1) - 1)
        values[:2] = [0.0, 1.0][: len(values)]
        spectrum = ConcurrenceSpectrum(dims, tuple(values.tolist()))
        report = MeasureReport("s", spectrum, None, min(spectrum.values), None, "GME", (), DEFAULT_ZERO_TOL)
        doc = report_document([report], DEFAULT_ZERO_TOL)
        return doc, doc["states"][0]["concurrences"]

    @pytest.mark.parametrize(
        "dims",
        [(2,) * n for n in range(2, 14)] + [(3, 2), (2, 3, 2), (3, 3, 2, 2), (2, 3, 2, 2, 3), (2, 2, 3, 2, 3, 2, 2)],
        ids=str,
    )
    def test_a_concurrence_block_renders_from_its_frame(self, encoded, dims):
        doc, block = self.block(dims, [131, len(dims)])
        assert dumps_report(doc) == _reference_dump(doc)
        encoded.clear()
        for nested in (block, [block], {"a": [{"b": block}]}):
            assert dumps_report(nested) == _reference_dump(nested)
        assert encoded == ["a", "b"]

    # Only a plain dict whose key tuple is a frame's and whose values are all
    # finite values of type float takes the frame.
    @pytest.mark.parametrize(
        "change",
        [
            lambda d: dict(reversed(d.items())),
            lambda d: {**d, "1": float("nan")},
            lambda d: {**d, "1,2": float("inf")},
            lambda d: {**d, "2": float("-inf")},
            lambda d: {**d, "1": 1},
            lambda d: {**d, "1": True},
            lambda d: {**d, "1": "0.5"},
            lambda d: {**d, "1": np.float64(0.5)},
            lambda d: type("Row", (dict,), {})(d),
            # "1" first, so the table of len(d).bit_length() + 1 parties is
            # read, but the keys are not its labels in canonical order.
            lambda d: {"1": d["1"], "x": 0.25, "y": 0.125},
            lambda d: dict(list(d.items())[:-1]),
            lambda d: {**d, "5": 0.25},
            lambda d: {("2,3" if k == "1,4" else k): v for k, v in d.items()},
            lambda d: {**dict(list(d.items())[:-1]), "1,4 ": 0.25},
        ],
        ids=["reordered", "nan", "inf", "-inf", "int", "bool", "str", "np.float64", "dict-subclass",
             "first-key-only", "a-cut-short", "a-key-more", "other-side", "renamed-last"],
    )
    def test_a_block_that_only_looks_like_a_report_takes_the_generic_path(self, encoded, change):
        _, block = self.block((2, 2, 2, 2), [132])
        lookalike = change(block)
        encoded.clear()
        assert dumps_report(lookalike) == _reference_dump(lookalike)
        assert [text for text in encoded if text != "0.5"] == sorted(lookalike)

    def test_a_cache_clear_keeps_no_frame_and_renders_the_same_bytes(self, encoded):
        """``clear_shape_caches`` empties every shape cache, and a frame lives
        only on its cut table, so none outlives the clear; the next render
        builds the table and its frame again and gives the same bytes."""
        state = haar_random_state((2,) * 5, seed=[133])
        report = evaluate(state)  # fills the table and the plan
        canonical_bipartitions(5)
        doc = report_document([report], DEFAULT_ZERO_TOL)
        text = dumps_report(doc)
        frame = bipartitions._cut_table(5).frame
        caches = [bipartitions._cut_table, bipartitions._cuts, concurrence._plan]
        assert all(cache.cache_info().currsize for cache in caches)
        clear_shape_caches()
        gc.collect()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]
        # Nothing but this test's running stack frame refers to the old render frame.
        assert [r for r in gc.get_referrers(frame) if not isinstance(r, types.FrameType)] == []
        encoded.clear()
        assert dumps_report(doc) == text == _reference_dump(doc)
        assert not set(doc["states"][0]["concurrences"]) & set(encoded)  # the block took a frame
        # It took the rebuilt table's frame, whose one template is the block's indent.
        rebuilt = bipartitions._cut_table(5).frame
        assert rebuilt is not frame and list(rebuilt[2]) == [" " * 6]
        assert dumps_report(report_document([report], DEFAULT_ZERO_TOL)) == text

    def test_a_dict_of_seven_floats_builds_no_frame_and_no_cut_table(self, encoded):
        row = {key: 0.125 * i for i, key in enumerate("abcdefg")}
        before = bipartitions._cut_table.cache_info()
        assert dumps_report(row) == _reference_dump(row)
        assert bipartitions._cut_table.cache_info() == before
        assert encoded == list(row)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            dumps_report({"x": [object()]})
