"""Verifier and sparse simulator for quantum Turing machine rule tables.

A machine is a finite rule table of complex amplitudes over
(state, read symbols, next state, written symbols, head moves).  This
package decides whether such a table induces a unitary step operator
(via several equivalent condition sets plus a brute-force Gram oracle),
applies the operator and its adjoint to sparse superpositions, and bounds
and estimates the operator norm.
"""
from .evolution import (
    PRUNE_THRESHOLD,
    RunResult,
    Superposition,
    apply,
    apply_adjoint,
    run,
    step_operator,
)
from .frame import (
    MOVES,
    Configuration,
    Tape,
    TuringFrame,
    blank_configuration,
)
from .ktape import (
    DEFAULT_TOLERANCE,
    ConditionId,
    ConditionResidual,
    ValidationReport,
    check_auto,
    check_column,
    check_hirvensalo,
    check_ktape,
    check_row,
    check_two_tape,
    condition_count,
    displacement_label,
    generate_ktape_conditions,
)
from .machine_io import (
    MachineDocument,
    MachineParseError,
    parse_document,
    parse_machine,
    serialize_machine,
)
from .oracle import (
    CorpusEntry,
    GramCheck,
    build_corpus,
    column_gram_check,
    pair_unitary_machine,
    perturb,
    random_unitary,
    row_gram_check,
    simple_frame,
)
from .table import (
    AmplitudeStatistics,
    TransitionTable,
    amplitude,
    compute_statistics,
    norm_bound,
)
from .windows import estimate_norm, radius_window

__version__ = "0.1.0"
