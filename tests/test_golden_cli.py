"""`validate`, `run`, `norm` and `gram` output pinned byte for byte.

Every checker runs on every bundled machine in both formats; a checker
that does not fit the machine's tape count pins its exit-2 stderr.  The
`validate` goldens hold the output of the hand-written loop checkers (now
`reference_conditions`), which the condition engine reproduces byte for
byte.  The `run` goldens cover five steps of every bundled machine in both
formats, checked and `--unchecked`, ten steps of a two-symbol corpus
machine read from a `.qtm` file, and a superposition start file.  The
`norm` and `gram` goldens cover `--radius 2` on every two-symbol table of
`build_corpus(50, 50, seed=7)`, read from `.qtm` files: the last bits of a
norm estimate and a Gram residual follow the step operator's entry order,
so these pin that order.  To capture them again (only when an output
change is intended and recorded), run::

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import functools
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qturing import build_corpus, serialize_machine
from qturing.cli import main

GOLDEN = Path(__file__).parent / "golden" / "validate.json"
RUN_GOLDEN = Path(__file__).parent / "golden" / "run.json"
NORM_GOLDEN = Path(__file__).parent / "golden" / "norm.json"
MACHINES = ("counterexample", "identity", "zero", "two_tape_identity")
CHECKERS = ("auto", "column", "hirvensalo", "ktape", "row", "two-tape")
FORMATS = ("text", "json")
CASES = [f"{m} {c} {f}" for m in MACHINES for c in CHECKERS for f in FORMATS]
RUN_CASES = [f"{m} {f} {mode}" for m in MACHINES for f in FORMATS for mode in ("checked", "unchecked")] + [
    "corpus-valid-7 json steps10",
    "counterexample text start-file",
    "counterexample json start-file",
]
NORM_COMMANDS = {
    "norm": ["norm", "--radius", "2", "--format", "json"],
    "gram": ["gram", "--radius", "2", "--side", "both", "--format", "json"],
}


@functools.lru_cache(maxsize=None)
def _corpus() -> tuple:
    return tuple(build_corpus(50, 50, seed=7))


def _two_symbol_indices() -> list[int]:
    return [i for i, entry in enumerate(_corpus()) if entry.table.frame.symbol_counts == (2,)]


NORM_CASES = [f"corpus-{i} {command}" for i in _two_symbol_indices() for command in NORM_COMMANDS]
# Two terms with unequal phases, so the start file exercises complex amplitudes.
START_TERMS = [
    {"state": "0", "heads": [0], "tapes": [[]], "amp": [0.6, 0.0]},
    {"state": "1", "heads": [1], "tapes": [[]], "amp": [0.0, 0.8]},
]


def _invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def capture(case: str) -> dict:
    machine, checker, fmt = case.split()
    return _invoke(["validate", machine, "--checker", checker, "--format", fmt])


def _corpus_document(index: int = 7) -> str:
    return serialize_machine(_corpus()[index].table, name=_corpus()[index].label.split()[0])


def capture_run(case: str) -> dict:
    machine, fmt, mode = case.split()
    with tempfile.TemporaryDirectory() as tmp:
        if mode == "steps10":
            path = Path(tmp) / "valid-7.qtm"
            path.write_text(_corpus_document(), encoding="utf-8")
            argv = ["run", str(path), "--steps", "10"]
        elif mode == "start-file":
            path = Path(tmp) / "start.json"
            path.write_text(json.dumps(START_TERMS), encoding="utf-8")
            argv = ["run", machine, "--steps", "5", "--start", f"@{path}"]
        else:
            argv = ["run", machine, "--steps", "5"] + (["--unchecked"] if mode == "unchecked" else [])
        return _invoke(argv + ["--format", fmt])


def capture_norm(case: str) -> dict:
    name, command = case.split()
    index = int(name.removeprefix("corpus-"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.qtm"
        path.write_text(_corpus_document(index), encoding="utf-8")
        argv = NORM_COMMANDS[command]
        return _invoke(argv[:1] + [str(path)] + argv[1:])


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def run_golden() -> dict:
    return json.loads(RUN_GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_validate_bytes_match_golden(golden, case):
    assert capture(case) == golden[case]


def test_run_golden_covers_every_case(run_golden):
    assert sorted(run_golden) == sorted(RUN_CASES)


@pytest.mark.parametrize("case", RUN_CASES)
def test_run_bytes_match_golden(run_golden, case):
    assert capture_run(case) == run_golden[case]


@pytest.fixture(scope="module")
def norm_golden() -> dict:
    return json.loads(NORM_GOLDEN.read_text(encoding="utf-8"))


def test_norm_golden_covers_every_case(norm_golden):
    assert len(NORM_CASES) == 48
    assert sorted(norm_golden) == sorted(NORM_CASES)


@pytest.mark.parametrize("case", NORM_CASES)
def test_norm_gram_bytes_match_golden(norm_golden, case):
    assert capture_norm(case) == norm_golden[case]


def _write(path: Path, golden: dict):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(GOLDEN, {case: capture(case) for case in CASES})
    _write(RUN_GOLDEN, {case: capture_run(case) for case in RUN_CASES})
    _write(NORM_GOLDEN, {case: capture_norm(case) for case in NORM_CASES})
