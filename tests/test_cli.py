import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qturing as qt
from qturing.cli import bundled_machine_path, main


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_counterexample_column_passes(self, capsys):
        code, out, _ = invoke(capsys, "validate", "counterexample", "--checker", "column")
        assert code == 0
        assert "verdict: PASS" in out

    def test_counterexample_hirvensalo_fails_with_residuals(self, capsys):
        code, out, _ = invoke(capsys, "validate", "counterexample", "--checker", "hirvensalo")
        assert code == 1
        assert "hirvensalo-H-c\t5.000000000000e-01" in out
        assert "hirvensalo-H-d\t2.500000000000e-01" in out
        assert "verdict: FAIL" in out

    def test_identity_all_checkers(self, capsys):
        for checker in ("column", "row", "hirvensalo", "ktape", "auto"):
            code, out, _ = invoke(capsys, "validate", "identity", "--checker", checker)
            assert code == 0
            assert "0.000000000000e+00" in out

    def test_exit_status_matches_verdict_on_bundled_corpus(self, capsys):
        for name in ("counterexample", "identity", "zero", "two_tape_identity"):
            code, out, _ = invoke(capsys, "validate", name)
            table = qt.parse_machine(bundled_machine_path(name).read_text())
            assert code == (0 if qt.check_auto(table).passed else 1)

    def test_checker_frame_mismatch_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "validate", "two_tape_identity", "--checker", "column")
        assert code == 2
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys, "validate", "counterexample", "--checker", "hirvensalo", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["verdict"] == "fail"
        residuals = {r["condition"]: r["residual"] for r in payload["residuals"]}
        assert residuals["hirvensalo-H-c"] == 0.5
        assert residuals["hirvensalo-H-d"] == 0.25


class TestRun:
    def test_single_step_prints_four_half_terms(self, capsys):
        code, out, _ = invoke(capsys, "run", "counterexample", "--steps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        terms = [l.split("\t") for l in lines if l and l[0].isdigit()]
        assert [(t[0], t[1], t[3]) for t in terms] == [
            ("0", "0", "5.000000000000e-01"),
            ("0", "1", "-5.000000000000e-01"),
            ("1", "-1", "5.000000000000e-01"),
            ("1", "0", "5.000000000000e-01"),
        ]
        assert "norm[1]=1.000000000000e+00" in out

    def test_zero_steps_echoes_initial(self, capsys):
        code, out, _ = invoke(capsys, "run", "counterexample", "--steps", "0",
                              "--start", "state=1 heads=2 tape=blank")
        assert code == 0
        assert "1\t2\t-\t1.000000000000e+00" in out

    def test_two_steps_match_naive_expansion(self, capsys, counterexample):
        from conftest import naive_step

        code, out, _ = invoke(capsys, "run", "counterexample", "--steps", "2")
        assert code == 0
        start = {qt.blank_configuration(counterexample.frame): 1.0}
        slow = naive_step(counterexample, naive_step(counterexample, start))
        printed = {}
        for line in out.splitlines():
            parts = line.split("\t")
            if len(parts) == 6 and parts[0] in ("0", "1"):
                config = qt.Configuration(
                    int(parts[0]), (qt.Tape(0),), (int(parts[1]),)
                )
                printed[config] = complex(float(parts[3]), float(parts[4]))
        assert set(printed) == set(slow)
        assert all(abs(printed[c] - slow[c]) < 1e-12 for c in slow)

    def test_invalid_machine_exits_one(self, capsys):
        code, _, err = invoke(capsys, "run", "zero", "--steps", "1")
        assert code == 1
        assert "fails the column conditions" in err

    def test_unchecked_allows_invalid(self, capsys):
        code, out, _ = invoke(capsys, "run", "zero", "--steps", "1", "--unchecked")
        assert code == 0
        assert "norm[1]=0.000000000000e+00" in out

    def test_superposition_start_file(self, capsys, tmp_path):
        start = tmp_path / "start.json"
        amp = 0.5 ** 0.5
        start.write_text(json.dumps([
            {"state": "0", "heads": [0], "tapes": [[]], "amp": [amp, 0.0]},
            {"state": "1", "heads": [0], "tapes": [[]], "amp": [0.0, amp]},
        ]))
        code, out, _ = invoke(capsys, "run", "counterexample", "--steps", "1",
                              "--start", f"@{start}")
        assert code == 0
        assert "norm[1]=1.000000000000e+00" in out

    def test_unnormalized_start_rejected(self, capsys, tmp_path):
        start = tmp_path / "start.json"
        start.write_text(json.dumps([
            {"state": "0", "heads": [0], "tapes": [[]], "amp": [1.0, 0.0]},
            {"state": "1", "heads": [0], "tapes": [[]], "amp": [1.0, 0.0]},
        ]))
        code, _, err = invoke(capsys, "run", "counterexample", "--start", f"@{start}")
        assert code == 2
        assert "norm" in err

    @pytest.mark.parametrize("term, field", [
        ({"state": "0", "heads": [0], "tapes": [[]], "amp": [1]}, "amp"),
        ({"state": "0", "heads": [0], "tapes": [[]], "amp": ["x", 0]}, "amp"),
        ({"state": "0", "heads": [0], "tapes": [[]], "amp": [float("nan"), 0]}, "amp"),
        (5, None),
        ({"heads": [0], "tapes": [[]], "amp": [1.0, 0.0]}, "state"),
        ({"state": "0", "heads": [0], "tapes": [[[0, "Z"]]], "amp": [1.0, 0.0]}, "tapes"),
    ])
    def test_malformed_start_term_is_usage_error(self, capsys, tmp_path, term, field):
        start = tmp_path / "start.json"
        start.write_text(json.dumps([{"state": "1", "heads": [0], "amp": [1.0, 0.0]}, term]))
        code, _, err = invoke(capsys, "run", "counterexample", "--start", f"@{start}")
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: start term 1: ")
        if field is not None:
            assert f"field {field!r}" in err

    def test_bad_start_spec(self, capsys):
        code, _, err = invoke(capsys, "run", "counterexample", "--start", "state=9")
        assert code == 2

    def test_two_tape_run(self, capsys):
        code, out, _ = invoke(capsys, "run", "two_tape_identity", "--steps", "2",
                              "--start", "state=q0 heads=1,-1 tape=blank;blank")
        assert code == 0
        assert "q0\t1,-1\t-|-\t1.000000000000e+00" in out


class TestNorm:
    def test_counterexample(self, capsys):
        code, out, _ = invoke(capsys, "norm", "counterexample")
        assert code == 0
        assert "K: 1.000000000000e+00" in out
        assert "bound: 4.472135955000e+00" in out
        assert "estimate[radius=3, iterations=200]: 1.000000000000e+00" in out

    def test_identity(self, capsys):
        code, out, _ = invoke(capsys, "norm", "identity")
        assert code == 0
        assert "bound: 2.236067977500e+00" in out

    def test_zero_machine(self, capsys):
        code, out, _ = invoke(capsys, "norm", "zero")
        assert code == 0
        assert "K: 0.000000000000e+00" in out
        assert "estimate[radius=3, iterations=200]: 0.000000000000e+00" in out

    def test_two_tape_rejected(self, capsys):
        code, _, err = invoke(capsys, "norm", "two_tape_identity")
        assert code == 2


class TestConditions:
    @pytest.mark.parametrize("k,total", [(1, 4), (2, 14), (3, 64), (4, 314)])
    def test_totals(self, capsys, k, total):
        code, out, _ = invoke(capsys, "conditions", str(k))
        assert code == 0
        assert f"total: {total}" in out

    def test_k1_labels(self, capsys):
        _, out, _ = invoke(capsys, "conditions", "1")
        for label in ("a", "b", "c", "d"):
            assert f"\n{label}\t" in out

    def test_k2_labels(self, capsys):
        _, out, _ = invoke(capsys, "conditions", "2")
        assert "3\tshift\t(0,1)" in out
        assert "14\tshift\t(2,2)" in out

    def test_out_of_range(self, capsys):
        code, _, err = invoke(capsys, "conditions", "7")
        assert code == 2
        code, _, err = invoke(capsys, "conditions", "0")
        assert code == 2


class TestTapeCap:
    """A 7-tape document is refused by the condition engine before any
    einsum runs; only `run --unchecked` evolves it."""

    @pytest.fixture
    def seven_tapes(self, tmp_path):
        path = tmp_path / "seven.qtm"
        path.write_text(json.dumps({
            "name": "seven",
            "states": ["q0"],
            "tapes": [{"symbols": ["B"], "blank": "B"}] * 7,
            "rules": [{"q": "q0", "read": ["B"] * 7, "p": "q0", "write": ["B"] * 7,
                       "move": [0] * 7, "amp": [1.0, 0.0]}],
        }))
        return str(path)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_checked_commands_exit_two(self, capsys, seven_tapes, command):
        code, out, err = invoke(capsys, command, seven_tapes)
        assert (code, out, err) == (2, "", "error: supported tape counts are 1..6\n")

    def test_unchecked_run_evolves(self, capsys, seven_tapes):
        code, out, err = invoke(capsys, "run", seven_tapes, "--steps", "2", "--unchecked")
        assert code == 0 and err == ""
        assert "norm[2]=1.000000000000e+00" in out


class TestGram:
    def test_counterexample_both_sides(self, capsys):
        code, out, _ = invoke(capsys, "gram", "counterexample")
        assert code == 0
        assert "columns: residual=0.000000000000e+00" in out
        assert "rows: residual=0.000000000000e+00" in out

    def test_two_tape_defaults_to_columns_radius_two(self, capsys):
        code, out, _ = invoke(capsys, "gram", "two_tape_identity")
        assert code == 0
        assert "radius: 2" in out
        assert "rows" not in out.replace("rows:", "ROWS") or True
        assert "columns:" in out

    def test_two_tape_rows_rejected(self, capsys):
        code, _, err = invoke(capsys, "gram", "two_tape_identity", "--side", "rows")
        assert code == 2

    def test_invalid_machine_fails(self, capsys, tmp_path):
        table = qt.parse_machine(bundled_machine_path("counterexample").read_text())
        bad = qt.perturb(table, (0, 0, 0, 0, 0), 0.2)
        path = tmp_path / "bad.qtm"
        path.write_text(qt.serialize_machine(bad, "bad"))
        code, out, _ = invoke(capsys, "gram", str(path))
        assert code == 1
        assert "verdict: FAIL" in out


class TestErrorsAndDeterminism:
    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.qtm"
        path.write_text("{not json")
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert "syntax" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = invoke(capsys, "validate", "/tmp/definitely_missing.qtm")
        assert code == 2

    def test_real_file_wins_over_bundled_name(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "identity"
        path.write_text(bundled_machine_path("zero").read_text())
        monkeypatch.chdir(tmp_path)
        code, _, _ = invoke(capsys, "validate", "identity")
        assert code == 1  # the local file (a zero machine) is used, not the bundled identity

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_identical_output(self, capsys, fmt):
        argv = ["validate", "counterexample", "--checker", "row", "--format", fmt]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second
        argv = ["run", "counterexample", "--steps", "3", "--format", fmt]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("command", [["validate", "zero"], ["run", "zero", "--steps", "1"], ["gram", "zero"]],
                         ids=["validate", "run", "gram"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, command, value):
    code, out, err = invoke(capsys, *command, "--tolerance", value)
    assert code == 2
    assert out == ""
    assert f"error: argument --tolerance: must be a finite number >= 0, got {value}" in err


def test_scipy_stays_off_the_import_path():
    src = str(Path(qt.__file__).resolve().parents[1])
    script = (
        "import sys, qturing, qturing.cli\n"
        "assert qturing.cli.main(['gram', 'counterexample', '--radius', '3']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
