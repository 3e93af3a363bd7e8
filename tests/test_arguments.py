"""One argument contract for the public API, as a table.

`ROWS` has a row per integer or tolerance argument of every callable that
`qturing/__init__.py` exports; a vector argument has a row for one of its
components.  Each row tries a bool, a float, NaN, a string and a numpy
integer:

* an integer argument refuses the bool, the float (an integral one, so it
  is refused and not truncated), NaN and the string with a ValueError whose
  message names the argument, and gives the same result for the numpy
  integer as for the Python int;
* a real argument (a tolerance, or `perturb`'s epsilon) refuses the bool,
  NaN and the string the same way, and takes the float and the numpy
  integer, the latter as the Python int.

`NO_ROWS` names every other exported callable with the reason it has no
row, and the two together must be exactly the exports: a new public
callable fails `test_every_export_has_rows` until it is placed in one.
"""
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import qturing as qt


class Row(NamedTuple):
    callable: str  # the exported name
    argument: str
    kind: str  # "integer", or "real" for a tolerance or an epsilon
    valid: int  # a value the call accepts, tried as a numpy integer
    says: str  # what the refusal's message starts with
    call: Callable  # the call with the argument set to a value


FRAME = qt.simple_frame(2, 2)
TWO_TAPES = qt.simple_frame(1, 2, 2)
TABLE = qt.pair_unitary_machine(FRAME, np.eye(4), [0, 1])
TWO_TAPE_TABLE = qt.pair_unitary_machine(TWO_TAPES, np.eye(4), [(0, 1)])
ONE_SYMBOL = qt.TransitionTable.from_rules(qt.simple_frame(1), [(0, 0, 0, 0, 1, 1.0)])
PSI = qt.Superposition.basis(qt.blank_configuration(FRAME))


def _checker(name: str, table) -> Row:
    return Row(name, "tolerance", "real", 0, "tolerance must be a finite number >= 0",
               lambda v: getattr(qt, name)(table, v))


ROWS = [
    Row("run", "steps", "integer", 2, "steps must be a nonnegative integer", lambda v: qt.run(TABLE, PSI, v)),
    Row("run", "tolerance", "real", 0, "tolerance must be a finite number >= 0",
        lambda v: qt.run(TABLE, PSI, 2, tolerance=v)),
    *(_checker(name, TABLE) for name in ("check_auto", "check_column", "check_hirvensalo", "check_ktape",
                                         "check_row")),
    _checker("check_two_tape", TWO_TAPE_TABLE),
    *(Row(name, "radius", "integer", 1, "radius must be a positive integer",
          lambda v, f=name: getattr(qt, f)(TABLE, v))
      for name in ("column_gram_check", "row_gram_check")),
    *(Row(name, "tolerance", "real", 0, "tolerance must be a finite number >= 0",
          lambda v, f=name: getattr(qt, f)(TABLE, 1, v))
      for name in ("column_gram_check", "row_gram_check")),
    Row("estimate_norm", "window_radius", "integer", 2, "window_radius and iterations must be positive",
        lambda v: qt.estimate_norm(ONE_SYMBOL, v, 3)),
    Row("estimate_norm", "iterations", "integer", 3, "window_radius and iterations must be positive",
        lambda v: qt.estimate_norm(ONE_SYMBOL, 2, v)),
    Row("estimate_norm", "seed", "integer", 1, "seed must be a nonnegative integer",
        lambda v: qt.estimate_norm(ONE_SYMBOL, 2, 3, v)),
    Row("radius_window", "radius", "integer", 1, "radius must be a positive integer",
        lambda v: qt.radius_window(FRAME, v)),
    Row("build_corpus", "n_valid", "integer", 2, "corpus counts must be nonnegative integers",
        lambda v: qt.build_corpus(v, 1)),
    Row("build_corpus", "n_invalid", "integer", 1, "corpus counts must be nonnegative integers",
        lambda v: qt.build_corpus(2, v)),
    Row("build_corpus", "seed", "integer", 3, "seed must be a nonnegative integer",
        lambda v: qt.build_corpus(1, 1, seed=v)),
    Row("simple_frame", "states", "integer", 2, "state and symbol counts must be positive integers",
        lambda v: qt.simple_frame(v, 2)),
    Row("simple_frame", "symbol_counts", "integer", 2, "state and symbol counts must be positive integers",
        lambda v: qt.simple_frame(2, v)),
    Row("perturb", "epsilon", "real", 1, "epsilon must be a nonzero finite real number",
        lambda v: qt.perturb(TABLE, (0, 0, 0, 0, 0), v)),
    Row("random_unitary", "dim", "integer", 3, "dim must be a nonnegative integer",
        lambda v: qt.random_unitary(v, np.random.default_rng(0))),
    Row("condition_count", "k", "integer", 2, "k must be a positive integer", lambda v: qt.condition_count(v)),
    Row("displacement_label", "displacement", "integer", 1, "displacement components must be integers",
        lambda v: qt.displacement_label((v, 0))),
    Row("pair_unitary_machine", "directions", "integer", 1, "directions must map every state to a move vector",
        lambda v: qt.pair_unitary_machine(FRAME, np.eye(4), [0, v])),
    Row("blank_configuration", "state", "integer", 1, "configuration state must be an integer",
        lambda v: qt.blank_configuration(FRAME, v)),
    Row("amplitude", "q", "integer", 1, "state indices must be integers",
        lambda v: qt.amplitude(TABLE, v, 1, 1, 1, 1)),
    Row("amplitude", "p", "integer", 1, "state indices must be integers",
        lambda v: qt.amplitude(TABLE, 1, 1, v, 1, 1)),
    Row("amplitude", "sigma_vec", "integer", 1, "sigma components must be integers",
        lambda v: qt.amplitude(TWO_TAPE_TABLE, 0, (v, 0), 0, (1, 0), (0, 1))),
    Row("amplitude", "tau_vec", "integer", 1, "tau components must be integers",
        lambda v: qt.amplitude(TWO_TAPE_TABLE, 0, (1, 0), 0, (v, 0), (0, 1))),
    Row("amplitude", "d_vec", "integer", 1, "moves components must be integers",
        lambda v: qt.amplitude(TWO_TAPE_TABLE, 0, (1, 0), 0, (1, 0), (0, v))),
    Row("Tape", "blank", "integer", 1, "tape blank must be an integer", lambda v: qt.Tape(v)),
    Row("Tape", "cells", "integer", 1, "tape cell must be an integer", lambda v: qt.Tape(0, ((v, 1),))),
    Row("Configuration", "state", "integer", 1, "configuration state must be an integer",
        lambda v: qt.Configuration(v, (qt.Tape(0),), (0,))),
    Row("Configuration", "heads", "integer", 1, "head must be an integer",
        lambda v: qt.Configuration(0, (qt.Tape(0),), (v,))),
    Row("TuringFrame", "blanks", "integer", 1, "blank index must be an integer",
        lambda v: qt.TuringFrame(("q",), (("B", "a"),), (v,))),
]

# the exported callables without an integer or tolerance argument
NO_ROWS = {
    # records the package returns; their fields are its own results
    **dict.fromkeys(["AmplitudeStatistics", "ConditionId", "ConditionResidual", "CorpusEntry", "GramCheck",
                     "MachineDocument", "MachineParseError", "RunResult", "ValidationReport"], "a result record"),
    **dict.fromkeys(["apply", "apply_adjoint", "compute_statistics", "norm_bound",
                     "generate_ktape_conditions", "serialize_machine", "TransitionTable", "Superposition"],
                    "tables, frames, superpositions and names only"),
    **dict.fromkeys(["parse_document", "parse_machine"], "text only, refused with coded parse errors"),
    "step_operator": "a table, configurations and the `adjoint` flag",
}

TRIES = {"bool": True, "float": None, "nan": math.nan, "string": "2", "numpy": None}


def _digest(result):
    """A comparable form of a call's result."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, qt.TransitionTable):
        return _digest(result.amplitudes)
    if isinstance(result, qt.CorpusEntry):
        return result.label, result.expect_valid, _digest(result.table)
    if isinstance(result, qt.RunResult):
        return result.norms, result.pruned_mass, result.terms, result.width, result.final.items()
    if isinstance(result, (list, tuple)):
        return tuple(map(_digest, result))
    return result


def test_every_export_has_rows():
    exported = {name for name in dir(qt) if not name.startswith("_") and callable(getattr(qt, name))}
    with_rows = {row.callable for row in ROWS}
    assert not with_rows & set(NO_ROWS)
    assert with_rows | set(NO_ROWS) == exported


@pytest.mark.parametrize("value", sorted(TRIES))
@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.callable}.{row.argument}")
def test_argument_contract(row, value):
    accepted = value == "numpy" or (value == "float" and row.kind == "real")
    if not accepted:
        bad = float(row.valid) if value == "float" else TRIES[value]
        with pytest.raises(ValueError, match=f"^{re.escape(row.says)}"):
            row.call(bad)
    elif value == "numpy":
        assert _digest(row.call(np.int64(row.valid))) == _digest(row.call(row.valid))
    else:
        row.call(row.valid + 0.5)
