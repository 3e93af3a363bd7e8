"""The Gram self-join in blocks of left columns: every block budget gives
the bits of the one-block check, and a check whose pairs would not fit in
memory at once finishes under an address-space limit."""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing import oracle
from qturing.windows import window_size

from bounded_gram import dense_table
from conftest import random_table

ONE_BLOCK = 2 ** 62
BUDGETS = (1, 300, oracle._GRAM_BLOCK_PAIRS)


def _reprs(tables, radius: int) -> list[str]:
    return [repr(check(table, radius)) for table in tables
            for check in (qt.column_gram_check, qt.row_gram_check)]


def _assert_any_budget_keeps_the_bits(tables, radius: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_GRAM_BLOCK_PAIRS", ONE_BLOCK)
        expected = _reprs(tables, radius)
        for budget in BUDGETS:
            patch.setattr(oracle, "_GRAM_BLOCK_PAIRS", budget)
            assert _reprs(tables, radius) == expected, f"budget {budget}"


@pytest.mark.parametrize("name, radius", [("corpus", 2), ("corpus", 3),
                                          ("three_tape_corpus", 1), ("many_tape_corpus", 1)])
def test_any_budget_keeps_the_one_block_bits_on_the_corpora(request, name, radius):
    """Budgets of one pair (a block per column), about 300 pairs and the
    default, on both sides."""
    _assert_any_budget_keeps_the_bits([entry.table for entry in request.getfixturevalue(name)], radius)


# one to four tapes; one tape at r=1 to 3 (7 to 2,688 configurations), more
# tapes at r=1 (144 to 648)
DRAWN_FRAMES = [(1, 1), (2, 1), (2, 2), (3, 2), (1, 3), (1, 2, 2), (2, 2, 1), (1, 1, 3),
                (1, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 1, 1), (2, 1, 1, 1, 1)]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(dims=st.sampled_from(DRAWN_FRAMES), radius=st.integers(1, 3),
       density=st.sampled_from([0.05, 0.2, 0.6, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_any_budget_keeps_the_one_block_bits_on_drawn_tables(dims, radius, density, seed):
    frame = qt.simple_frame(*dims)
    radius = radius if frame.tape_count == 1 else 1
    while radius > 1 and window_size(frame, radius) > 3000:
        radius -= 1
    _assert_any_budget_keeps_the_bits([random_table(frame, np.random.default_rng(seed), density)], radius)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_dense_q2s2_r5_column_check_fits_400_mib():
    """The whole self-join at once (2.71 M strict upper-half pairs from
    0.54 M entries) raised MemoryError under this limit; in blocks it
    finishes with the bits of an unlimited in-process run."""
    expected = repr(qt.column_gram_check(dense_table(2, 2), 5))
    tests = pathlib.Path(__file__).resolve().parent
    src = str(pathlib.Path(qt.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, str(tests), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, str(tests / "bounded_gram.py"), "400", "5", "2", "2"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout)["repr"] == expected
