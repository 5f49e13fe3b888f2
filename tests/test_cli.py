import json

import pytest

from gmepyramid import bipartitions
from gmepyramid.cli import dumps_report, main

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

    def test_missing_file(self, capsys):
        assert main(["eval", "/nonexistent/state.txt"]) == 2

    def test_two_parties_rejected_for_volume(self, tmp_path, capsys):
        path = tmp_path / "bell.txt"
        path.write_text(BELL_TEXT)
        assert main(["eval", str(path)]) == 2
        assert "cgme" in capsys.readouterr().err

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
            ("amp 0 0 0 nan 0.0", "amplitudes must be finite"),
            ("amp 0 0 0 inf 0.0", "amplitudes must be finite"),
            ("amp 0 0 0 1e308 0.0\namp 1 1 1 1e308 0.0", "state norm overflows"),
        ],
        ids=["nan", "inf", "overflow"],
    )
    def test_non_finite_amplitudes_are_refused(self, tmp_path, capsys, amp_lines, message, flags):
        path = tmp_path / "amps.txt"
        path.write_text("dims 2 2 2\n" + amp_lines + "\n")
        assert main(["eval", str(path), "--json", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"amps.txt: {message}" in captured.err

    def test_biseparable_fixture_file(self, tmp_path, capsys):
        from gmepyramid import serialize_state
        from gmepyramid.catalog import phi_biseparable

        path = tmp_path / "phi.txt"
        path.write_text(serialize_state(phi_biseparable()))
        assert main(["eval", str(path)]) == 0
        out = capsys.readouterr().out
        assert "classification: biseparable" in out
        assert "volume: 0.0000" in out
        assert "1,3" in out.split("zero cuts:")[1]


class TestBipartitions:
    def test_n4_grouped_output(self, capsys):
        assert main(["bipartitions", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["# k=1", "1", "2", "3", "4", "# k=2", "1,2", "1,3", "1,4"]

    def test_rejects_single_party(self, capsys):
        assert main(["bipartitions", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_rejects_more_parties_than_a_state_can_have(self, capsys, monkeypatch):
        def refuse_enumeration(*args):
            raise AssertionError("started enumerating cuts")

        monkeypatch.setattr(bipartitions, "Bipartition", refuse_enumeration)
        assert main(["bipartitions", "27"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 27 parties need at least 2**27 amplitudes, above 67108864\n"


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

    def test_bad_dims_string(self, capsys):
        args = ["random", "--dims", "2,x", "--check", "lu-invariance"]
        assert main(args) == 2
        assert "comma-separated" in capsys.readouterr().err

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

    def test_json_outcome(self, capsys):
        args = ["random", "--dims", "2,2,2,2", "--seed", "1", "--trials", "5",
                "--check", "biseparable-nullity", "--json"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        check = doc["checks"][0]
        assert check["passed"] is True
        assert check["max_deviation"] <= 1e-9


class TestTolerance:
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["eval", "paper", "random"])
    def test_refused_as_usage_error(self, tmp_path, capsys, command, tol):
        path = tmp_path / "prod.txt"
        path.write_text(PRODUCT4_TEXT)
        args = {
            "eval": ["eval", str(path)],
            "paper": ["paper"],
            "random": ["random", "--dims", "2,2,2", "--check", "ghz-closed-form"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--tol", tol])
        assert exc.value.code == 2
        assert "--tol: tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_zero_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "prod.txt"
        path.write_text(PRODUCT4_TEXT)
        assert main(["eval", str(path), "--tol", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["zero"] == 0.0
