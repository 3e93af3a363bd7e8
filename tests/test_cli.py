import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing import evolution
from qturing.cli import _parse_basis_spec, _parse_start, bundled_machine_path, main


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
        ({"state": "0", "heads": [0], "tapes": [[]], "amp": [10 ** 400, 0]}, "amp"),
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

    @pytest.mark.parametrize("start, message", [
        ("state=q0 heads=0,0", "heads must list 3 positions"),
        ("state=q0 tape=1:a;blank", "tape spec must have 3 ';'-separated parts"),
        ("@", "start term 0: field 'tapes' must be a list of 3 lists of [cell, symbol] pairs, got [[], []]"),
    ])
    def test_three_tape_start_of_the_wrong_length(self, capsys, tmp_path, start, message):
        path = tmp_path / "start.json"
        path.write_text(json.dumps([{"state": "q0", "heads": [0, 0, 0], "tapes": [[], []], "amp": [1.0, 0.0]}]))
        start = start.replace("@", f"@{path}")
        code, out, err = invoke(capsys, "run", "three_tape_pair", "--start", start)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("start, message", [
        ("state=\u00b2", "unknown state '\u00b2' in start spec"),  # a digit that int() refuses
        ("heads=x,0,0", "heads position 'x' in start spec is not an integer"),
        ("state=q0 heads=0,,0", "heads position '' in start spec is not an integer"),
        ("tape=y:a;blank;blank", "tape-1 cell 'y' in start spec is not an integer"),
        ("tapes=blank;blank;1:b,2.5:b", "tape-3 cell '2.5' in start spec is not an integer"),
        ("heads=0,0,0 heads=1,1,1", "start key 'heads' given more than once in start spec"),
        ("state=q1 state=q0", "start key 'state' given more than once in start spec"),
        ("tape=1:a;blank;blank tapes=blank;blank;blank", "start key 'tape' given more than once in start spec"),
        ("tapes=blank;blank;blank tapes=blank;blank;blank", "start key 'tape' given more than once in start spec"),
        ("heads=0,4611686018427387905,0",
         "heads position '4611686018427387905' in start spec must lie within -2**62..2**62"),
        ("tape=-99999999999999999999999:a;blank;blank",
         "tape-1 cell '-99999999999999999999999' in start spec must lie within -2**62..2**62"),
        ("tapes=blank;blank;-4611686018427387905:B",  # a blank written beyond the bound
         "tape-3 cell '-4611686018427387905' in start spec must lie within -2**62..2**62"),
    ])
    def test_bad_start_spec_values_and_repeated_keys(self, capsys, start, message):
        code, out, err = invoke(capsys, "run", "three_tape_pair", "--start", start)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_step_above_the_symbol_bound_exits_two(self, capsys, tmp_path, monkeypatch, sixfold):
        path = tmp_path / "sixfold.qtm"
        path.write_text(qt.serialize_machine(sixfold, name="sixfold"))
        monkeypatch.setattr(evolution, "MAX_STEP_SYMBOLS", 10_000)
        code, out, err = invoke(capsys, "run", str(path), "--steps", "12")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: a step of \d+ entries on \d+ columns per tape exceeds "
                            r"the 10000 packed symbols a step may hold\n", err)

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
        assert err == "error: the norm bound is proven for single-tape frames only\n"


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

    def test_two_tape_defaults_to_both_sides_radius_two(self, capsys):
        code, out, _ = invoke(capsys, "gram", "two_tape_identity")
        assert code == 0
        lines = out.splitlines()
        assert "radius: 2" in lines
        assert "columns: residual=0.000000000000e+00 configs=25 pairs=0 PASS" in lines
        assert "rows: residual=0.000000000000e+00 configs=25 pairs=0 PASS" in lines

    def test_two_tape_rows_pass(self, capsys):
        code, out, err = invoke(capsys, "gram", "two_tape_identity", "--side", "rows")
        assert (code, err) == (0, "")
        assert "rows: residual=0.000000000000e+00 configs=25 pairs=0 PASS" in out.splitlines()
        assert "columns:" not in out
        assert out.endswith("verdict: PASS\n")

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

    @pytest.mark.parametrize("start", ["@", "@{tmp}"])
    def test_directory_start_exit_two(self, capsys, tmp_path, start):
        code, out, err = invoke(capsys, "run", "counterexample", "--start", start.format(tmp=tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: [Errno 21] Is a directory")

    def test_unreadable_machine_file_exit_two(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "locked.qtm"
        path.write_text(bundled_machine_path("identity").read_text())

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        code, out, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 13] Permission denied: '{path}'\n"

    @pytest.mark.parametrize("data, message", [
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        (b'{"name": "\xff"}', "not UTF-8 text: byte 10 cannot be decoded"),
    ], ids=["nested", "non-utf8"])
    def test_undecodable_inputs_exit_two_with_a_coded_message(self, capsys, tmp_path, data, message):
        path = tmp_path / "input.qtm"
        path.write_bytes(data)
        code, out, err = invoke(capsys, "validate", str(path))
        assert (code, out, err) == (2, "", f"error: syntax: {message}\n")
        code, out, err = invoke(capsys, "run", "counterexample", "--start", f"@{path}")
        assert (code, out, err) == (2, "", f"error: start file {path}: {message}\n")

    def test_invalid_json_start_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text("[1,\n")
        code, out, err = invoke(capsys, "run", "counterexample", "--start", f"@{path}")
        assert (code, out, err) == (
            2, "", f"error: start file {path}: invalid JSON: Expecting value: line 2 column 1 (char 4)\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer digit limit")
    def test_overlong_integer_literal_start_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text("[" + "1" * (sys.get_int_max_str_digits() + 1) + "]")
        code, out, err = invoke(capsys, "run", "counterexample", "--start", f"@{path}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: start file {path}: invalid JSON: Exceeds the limit (")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_run_stops_at_a_non_finite_norm(self, capsys, tmp_path, fmt):
        doc = json.loads(bundled_machine_path("counterexample").read_text())
        doc["rules"][1]["amp"] = [2.0 ** 99, 2.0 ** 99]
        path = tmp_path / "growing.qtm"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, "run", str(path), "--unchecked", "--steps", "12", "--format", fmt)
        assert (code, out, err) == (2, "", "error: the norm is not finite after step 6: the amplitudes overflow\n")

    @pytest.mark.parametrize("argv", [["validate"], ["validate", "--format", "json"], ["gram"], ["norm"],
                                      ["run", "--unchecked"]])
    def test_amplitude_above_the_bound_exits_two(self, capsys, tmp_path, argv):
        doc = json.loads(bundled_machine_path("counterexample").read_text())
        doc["rules"][1]["amp"] = [1e308, 1e308]
        path = tmp_path / "huge.qtm"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (2, "", "error: range: rule 2: amp modulus must be at most 2**100\n")

    @pytest.mark.parametrize("command", ["validate", "gram", "norm"])
    def test_amplitudes_at_the_bound_give_finite_json(self, capsys, tmp_path, command):
        doc = json.loads(bundled_machine_path("counterexample").read_text())
        for item in doc["rules"]:
            item["amp"] = [2.0 ** 99, -(2.0 ** 99)]
        path = tmp_path / "edge.qtm"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, command, str(path), "--format", "json")
        assert code in (0, 1) and err == ""

        def refuse(constant):
            raise AssertionError(f"{command} printed {constant}")

        json.loads(out, parse_constant=refuse)

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


def test_a_short_run_imports_neither_scipy_nor_numpy_random():
    """The cold-start module set: `import qturing` and a three-step `run`
    load neither scipy nor `numpy.random`."""
    src = str(Path(qt.__file__).resolve().parents[1])
    script = (
        "import sys, qturing, qturing.cli\n"
        "assert qturing.cli.main(['run', 'counterexample', '--steps', '3']) == 0\n"
        "print(sorted(m for m in ('scipy', 'numpy.random') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_a_closed_stdout_exits_141_in_silence():
    """`qturing run counterexample --steps 1000 | head -1`: the reader takes
    one line and closes the pipe while most of the 178 KB of output (more
    than a pipe buffer holds) is unwritten.  The run exits 141, as a process
    killed by SIGPIPE reads in a shell, and prints nothing on stderr."""
    src = str(Path(qt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen([sys.executable, "-m", "qturing", "run", "counterexample", "--steps", "1000"],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"machine: counterexample\n"
    child.stdout.close()
    assert child.stderr.read() == b""
    assert child.wait(timeout=60) == 141


# ---------------------------------------------------------------------------
# fuzzed --start specs: exit 0, 1 or 2 and never a traceback
# ---------------------------------------------------------------------------

SPEC_WORDS = st.sampled_from(["state", "heads", "tape", "tapes", "0", "1", "2", "B", "s1", "-1",
                              "blank", "=", ",", ":", ";", " ", "4611686018427387905", "٣", "²"])
BASIS_SPECS = st.one_of(st.text(max_size=30), st.lists(SPEC_WORDS, max_size=12).map("".join))


@pytest.fixture(scope="module")
def start_dir(tmp_path_factory) -> Path:
    """Start files: a valid one-term superposition, a valid term with a bad
    norm, a non-list, junk, and a subdirectory."""
    base = tmp_path_factory.mktemp("starts")
    term = {"state": "0", "heads": [0], "tapes": [[]], "amp": [1, 0]}
    (base / "ok.json").write_text(json.dumps([term]))
    (base / "unnormalized.json").write_text(json.dumps([dict(term, amp=[2, 0])]))
    (base / "object.json").write_text(json.dumps(term))
    (base / "junk.json").write_bytes(b"\xff\xfe[{")
    (base / "sub").mkdir()
    return base


def _start_specs(base: Path):
    names = st.one_of(
        st.sampled_from(["ok.json", "unnormalized.json", "object.json", "junk.json", "sub", "missing.json", ""]),
        st.text(st.characters(blacklist_characters="/"), max_size=12),
    )
    at_paths = st.one_of(st.sampled_from(["@", "@.", "@/", "@..", "@@"]), names.map(lambda n: f"@{base / n}"))
    return st.one_of(BASIS_SPECS, at_paths)


def _run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_start_exits_cleanly(start_dir, data):
    spec = data.draw(_start_specs(start_dir))
    code, err = _run_quietly(["run", "counterexample", "--start", spec])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error: ", "usage: "))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_parse_start_returns_or_raises_value_error(start_dir, data):
    frame = qt.TuringFrame(("0", "1"), (("B",),))
    spec = data.draw(_start_specs(start_dir))
    try:
        psi = _parse_start(frame, spec)
    except (ValueError, OSError):
        return
    assert isinstance(psi, qt.Superposition)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=BASIS_SPECS, two_tape=st.booleans())
def test_fuzzed_basis_spec_returns_or_raises_value_error(spec, two_tape):
    frame = qt.simple_frame(2, 2, 3) if two_tape else qt.simple_frame(2, 2)
    try:
        config = _parse_basis_spec(frame, spec)
    except ValueError:
        return
    assert isinstance(config, qt.Configuration)
    assert len(config.heads) == frame.tape_count


# ---------------------------------------------------------------------------
# fuzzed numeric and enum arguments: exit 0, 1 or 2 and never a traceback
# ---------------------------------------------------------------------------

# Small integers, float spellings, nan/inf and text without decimal digits:
# int() reads any Unicode decimal digit, so text with digits could ask for
# a long run or a large window.
NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e3", "0x3", "1.5", "-0", "+2", " 4 ", "1_0", "", "-", "--"]),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
)
MACHINES = st.sampled_from(["counterexample", "identity", "zero", "two_tape_identity"])


def _enum(*choices):
    return st.one_of(st.sampled_from(choices), st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


def _fuzzed_argv(data, command, options, positional=(MACHINES,)):
    """`command`, its drawn positionals, then each option with a drawn value
    (None marks a bare flag) or left out."""
    argv = [command] + [data.draw(p) for p in positional]
    for flag, values in options.items():
        if data.draw(st.booleans()):
            argv += [flag] if values is None else [flag, data.draw(values)]
    return argv


def _assert_clean_exit(argv):
    code, err = _run_quietly(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(("error: ", "usage: ")), (argv, err)


FUZZED_COMMANDS = {
    "run": ({"--steps": NUMBERS, "--tolerance": NUMBERS, "--format": _enum("text", "json"),
             "--unchecked": None}, (MACHINES,)),
    "norm": ({"--radius": NUMBERS, "--iterations": NUMBERS, "--seed": NUMBERS}, (MACHINES,)),
    "gram": ({"--radius": NUMBERS, "--side": _enum("columns", "rows", "both"), "--tolerance": NUMBERS},
             (MACHINES,)),
    "validate": ({"--tolerance": NUMBERS, "--checker": _enum("column", "row", "hirvensalo", "two-tape",
                                                              "ktape", "auto")}, (MACHINES,)),
    "conditions": ({"--format": _enum("text", "json")}, (NUMBERS,)),
}


@pytest.mark.parametrize("command", sorted(FUZZED_COMMANDS))
@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_exit_cleanly(command, data):
    options, positional = FUZZED_COMMANDS[command]
    _assert_clean_exit(_fuzzed_argv(data, command, options, positional))
