"""`validate`, `run`, `norm` and `gram` output pinned byte for byte.

Every checker runs on every bundled machine in both formats; a checker
that does not fit the machine's tape count pins its exit-2 stderr.  The
`validate` goldens hold the output of the hand-written loop checkers (now
`reference_conditions`), which the condition engine reproduces byte for
byte.  The `run` goldens cover five steps of every bundled machine in both
formats, checked and `--unchecked`, ten steps of a two-symbol corpus
machine read from a `.qtm` file, a superposition start file, and two
steps of `three_tape_pair` from a start with non-blank cells, given as a
basis spec and as a start file.  The
`norm` and `gram` goldens cover `--radius 2` on every two-symbol table of
`build_corpus(50, 50, seed=7)`, read from `.qtm` files: the last bits of a
norm estimate and a Gram residual follow the step operator's entry order,
so these pin that order.  The multi-tape goldens cover `gram` (each
`--side`, and the default) and `norm` on `two_tape_identity` in both
formats; `norm` pins its exit-2 stderr.  The parse-error goldens cover
`validate` on malformed documents, one or more per parse error code, in
both formats.  The conditions goldens cover `conditions k` for k = 1..6 in
both formats.  To capture them again (only when an output
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
MULTITAPE_GOLDEN = Path(__file__).parent / "golden" / "multitape.json"
PARSE_ERROR_GOLDEN = Path(__file__).parent / "golden" / "parse_errors.json"
CONDITIONS_GOLDEN = Path(__file__).parent / "golden" / "conditions.json"
MACHINES = ("counterexample", "identity", "zero", "two_tape_identity")
CHECKERS = ("auto", "column", "hirvensalo", "ktape", "row", "two-tape")
FORMATS = ("text", "json")
CASES = [f"{m} {c} {f}" for m in MACHINES for c in CHECKERS for f in FORMATS]
RUN_CASES = [f"{m} {f} {mode}" for m in MACHINES for f in FORMATS for mode in ("checked", "unchecked")] + [
    "corpus-valid-7 json steps10",
    "counterexample text start-file",
    "counterexample json start-file",
] + [f"three_tape_pair {f} {mode}" for f in FORMATS for mode in ("cells-spec", "cells-file")]
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
MULTITAPE_COMMANDS = {
    "gram-rows": ["gram", "--side", "rows"],
    "gram-both": ["gram", "--side", "both"],
    "gram": ["gram"],
    "norm": ["norm"],
    "validate": ["validate"],
    "gram-r1": ["gram", "--radius", "1"],
}
# The three-tape machine's amplitudes are 0 and +-1/2, so its residuals are
# exact sums and its bytes do not depend on the CPU.
MULTITAPE_CASES = (
    [f"two_tape_identity {command} {f}" for command in ("gram-rows", "gram-both", "gram", "norm") for f in FORMATS]
    + [f"three_tape_pair {command} {f}" for command in ("validate", "gram-r1") for f in FORMATS]
)


def _rule(**fields) -> dict:
    rule = {"q": "0", "read": ["B"], "p": "0", "write": ["B"], "move": [0], "amp": [0.5, 0.0]}
    rule.update(fields)
    return rule


def _malformed(*rules, states=("0", "1"), tapes=None, **fields) -> str:
    """A two-state, one-tape {B, x} document whose rule list (or any top-level
    field) is replaced."""
    doc = {"name": "malformed", "states": list(states),
           "tapes": tapes or [{"symbols": ["B", "x"], "blank": "B"}], "rules": list(rules)}
    doc.update(fields)
    return json.dumps(doc)


# `validate` on documents that fail to parse: one or more per error code, two
# frames too large to allocate, and three cases pinning which failure is
# reported (the first failing check of the first invalid rule in document
# order).
PARSE_ERROR_DOCUMENTS = {
    "syntax bad-token": "{not json",
    "syntax truncated": _malformed(_rule())[:60],
    "schema not-an-object": "[1, 2]",
    "schema name": _malformed(name=5),
    "schema states-empty": _malformed(states=[]),
    "schema states-duplicate": _malformed(states=["0", "0"]),
    "schema symbols-duplicate": _malformed(tapes=[{"symbols": ["B", "B"], "blank": "B"}]),
    "unknown-name blank": _malformed(tapes=[{"symbols": ["B", "x"], "blank": "y"}]),
    "schema rules-not-a-list": _malformed(rules={"q": "0"}),
    "schema rule-not-an-object": _malformed(_rule(), ["0"]),
    "schema rule-missing-key": _malformed({k: v for k, v in _rule().items() if k != "amp"}),
    "schema state-not-a-string": _malformed(_rule(q=["0"])),
    "unknown-name state": _malformed(_rule(), _rule(p="7")),
    "schema read-not-a-list": _malformed(_rule(read="B")),
    "dimension read": _malformed(_rule(read=["B", "B"])),
    "dimension move": _malformed(_rule(move=[0, 0])),
    "unknown-name read-symbol": _malformed(_rule(read=["Z"])),
    "unknown-name write-unhashable": _malformed(_rule(write=[["B"]])),
    "range move-two": _malformed(_rule(move=[2])),
    "range move-true": _malformed(_rule(move=[True])),
    "range move-float": _malformed(_rule(move=[1.0])),
    "schema amp-single": _malformed(_rule(amp=[1.0])),
    "schema amp-bool": _malformed(_rule(amp=[True, 0])),
    "schema amp-infinite": _malformed(_rule(amp=[1e400, 0.0])),
    "schema amp-huge-int": _malformed(_rule(amp=[10 ** 400, 0])),
    "range oversized-three-tapes": _malformed(
        tapes=[{"symbols": ["B"] + [f"s{i}" for i in range(1, 60)], "blank": "B"}] * 3),
    "range oversized-seven-tapes": _malformed(
        states=["0"], tapes=[{"symbols": ["B", "x", "y"], "blank": "B"}] * 7),
    "duplicate rule": _malformed(_rule(), _rule(amp=[0.0, 0.5])),
    "order first-bad-rule": _malformed(_rule(), _rule(q="9", move=[5]), {"q": "0"}),
    "order missing-key-before-state": _malformed({"q": "9", "read": ["B"]}),
    "order first-failing-check": _malformed(_rule(read=["Z"], move=[2], amp=["a", 0])),
}
PARSE_ERROR_CASES = [f"{name} {f}" for name in PARSE_ERROR_DOCUMENTS for f in FORMATS]
CONDITIONS_CASES = [f"{k} {f}" for k in range(1, 7) for f in FORMATS]
# Two terms with unequal phases, so the start file exercises complex amplitudes.
START_TERMS = [
    {"state": "0", "heads": [0], "tapes": [[]], "amp": [0.6, 0.0]},
    {"state": "1", "heads": [1], "tapes": [[]], "amp": [0.0, 0.8]},
]
# One three-tape start with non-blank cells, as a basis spec and as a start
# file; both must print the same bytes.  The second step reads both cells, and
# every amplitude is +-1/4, so the bytes do not depend on the CPU.
CELLS_SPEC = "state=q0 heads=0,0,0 tape=1:a;blank;-1:b"
CELLS_TERMS = [{"state": "q0", "heads": [0, 0, 0], "tapes": [[[1, "a"]], [], [[-1, "b"]]], "amp": [1.0, 0.0]}]


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
        elif mode in ("start-file", "cells-file"):
            path = Path(tmp) / "start.json"
            path.write_text(json.dumps(START_TERMS if mode == "start-file" else CELLS_TERMS), encoding="utf-8")
            argv = ["run", machine, "--steps", "5" if mode == "start-file" else "2", "--start", f"@{path}"]
        elif mode == "cells-spec":
            argv = ["run", machine, "--steps", "2", "--start", CELLS_SPEC]
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


def capture_multitape(case: str) -> dict:
    machine, command, fmt = case.split()
    argv = MULTITAPE_COMMANDS[command]
    return _invoke(argv[:1] + [machine] + argv[1:] + ["--format", fmt])


def capture_parse_error(case: str) -> dict:
    name, fmt = case.rsplit(" ", 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "malformed.qtm"
        path.write_text(PARSE_ERROR_DOCUMENTS[name], encoding="utf-8")
        return _invoke(["validate", str(path), "--format", fmt])


def capture_conditions(case: str) -> dict:
    k, fmt = case.split()
    return _invoke(["conditions", k, "--format", fmt])


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


@pytest.mark.parametrize("fmt", FORMATS)
def test_cells_spec_and_file_print_the_same(run_golden, fmt):
    spec, file = (run_golden[f"three_tape_pair {fmt} {mode}"] for mode in ("cells-spec", "cells-file"))
    assert spec == file and spec["code"] == 0


@pytest.fixture(scope="module")
def norm_golden() -> dict:
    return json.loads(NORM_GOLDEN.read_text(encoding="utf-8"))


def test_norm_golden_covers_every_case(norm_golden):
    assert len(NORM_CASES) == 48
    assert sorted(norm_golden) == sorted(NORM_CASES)


@pytest.mark.parametrize("case", NORM_CASES)
def test_norm_gram_bytes_match_golden(norm_golden, case):
    assert capture_norm(case) == norm_golden[case]


@pytest.fixture(scope="module")
def multitape_golden() -> dict:
    return json.loads(MULTITAPE_GOLDEN.read_text(encoding="utf-8"))


def test_multitape_golden_covers_every_case(multitape_golden):
    assert len(MULTITAPE_CASES) == 12
    assert sorted(multitape_golden) == sorted(MULTITAPE_CASES)


@pytest.mark.parametrize("case", MULTITAPE_CASES)
def test_multitape_bytes_match_golden(multitape_golden, case):
    assert capture_multitape(case) == multitape_golden[case]


@pytest.fixture(scope="module")
def parse_error_golden() -> dict:
    return json.loads(PARSE_ERROR_GOLDEN.read_text(encoding="utf-8"))


def test_parse_error_golden_covers_every_case(parse_error_golden):
    assert sorted(parse_error_golden) == sorted(PARSE_ERROR_CASES)


@pytest.mark.parametrize("case", PARSE_ERROR_CASES)
def test_parse_error_bytes_match_golden(parse_error_golden, case):
    assert capture_parse_error(case) == parse_error_golden[case]


@pytest.fixture(scope="module")
def conditions_golden() -> dict:
    return json.loads(CONDITIONS_GOLDEN.read_text(encoding="utf-8"))


def test_conditions_golden_covers_every_case(conditions_golden):
    assert sorted(conditions_golden) == sorted(CONDITIONS_CASES)


@pytest.mark.parametrize("case", CONDITIONS_CASES)
def test_conditions_bytes_match_golden(conditions_golden, case):
    assert capture_conditions(case) == conditions_golden[case]


def _write(path: Path, golden: dict):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write(GOLDEN, {case: capture(case) for case in CASES})
    _write(RUN_GOLDEN, {case: capture_run(case) for case in RUN_CASES})
    _write(NORM_GOLDEN, {case: capture_norm(case) for case in NORM_CASES})
    _write(MULTITAPE_GOLDEN, {case: capture_multitape(case) for case in MULTITAPE_CASES})
    _write(PARSE_ERROR_GOLDEN, {case: capture_parse_error(case) for case in PARSE_ERROR_CASES})
    _write(CONDITIONS_GOLDEN, {case: capture_conditions(case) for case in CONDITIONS_CASES})
