"""Verifier and sparse simulator for quantum Turing machine rule tables.

A machine is a finite rule table of complex amplitudes over
(state, read symbols, next state, written symbols, head moves).  This
package decides whether such a table induces a unitary step operator
(via several equivalent condition sets plus a brute-force Gram oracle),
applies the operator and its adjoint to sparse superpositions, and bounds
and estimates the operator norm.
"""
from .conditions import (
    DEFAULT_TOLERANCE,
    ConditionId,
    ConditionResidual,
    ValidationReport,
)
from .evolution import (
    PRUNE_THRESHOLD,
    RunResult,
    Superposition,
    apply,
    apply_adjoint,
    estimate_norm,
    matrix_element,
    run,
    step_operator,
)
from .frame import (
    MOVES,
    Configuration,
    Tape,
    TuringFrame,
    alpha,
    beta,
    blank_configuration,
    locally_like,
    precedes,
    sorted_configurations,
    write_at,
)
from .ktape import (
    check_auto,
    check_column,
    check_hirvensalo,
    check_ktape,
    check_row,
    check_two_tape,
    condition_count,
    displacement_label,
    evaluate_ktape_condition,
    expand_condition_ids,
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
    ConfigurationWindow,
    CorpusEntry,
    GramCheck,
    build_corpus,
    column_gram_check,
    pair_unitary_machine,
    perturb,
    radius_window,
    random_unitary,
    row_gram_check,
    simple_frame,
)
from .table import (
    AmplitudeStatistics,
    TransitionTable,
    amplitude,
    compute_statistics,
    is_unidirectional,
    norm_bound,
)

__version__ = "0.1.0"
