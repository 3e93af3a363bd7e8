"""`validate` output pinned byte for byte on the bundled machines.

Every checker runs on every bundled machine in both formats; a checker
that does not fit the machine's tape count pins its exit-2 stderr.  The
goldens hold the output of the hand-written loop checkers (now
`reference_conditions`), which the condition engine reproduces byte for
byte.  To capture them again (only when an output change is intended and
recorded), run::

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qturing.cli import main

GOLDEN = Path(__file__).parent / "golden" / "validate.json"
MACHINES = ("counterexample", "identity", "zero", "two_tape_identity")
CHECKERS = ("auto", "column", "hirvensalo", "ktape", "row", "two-tape")
FORMATS = ("text", "json")
CASES = [f"{m} {c} {f}" for m in MACHINES for c in CHECKERS for f in FORMATS]


def capture(case: str) -> dict:
    machine, checker, fmt = case.split()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", machine, "--checker", checker, "--format", fmt])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_validate_bytes_match_golden(golden, case):
    assert capture(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: capture(case) for case in CASES}, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
