"""`serialize_machine` and `TransitionTable.nonzero_rules` against the
dict-and-`json.dumps(indent=2)` serializer and the entry-by-entry loop they
replaced (`reference_serialize_machine`, `reference_nonzero_rules`).

Every table must serialize to the same bytes, parse back to the same bytes
of every nonzero amplitude, and list the same rules with the same Python types and
amplitude bits.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt

from conftest import _pair_unitary_table, build_many_tape_corpus
from reference_machine_io import reference_nonzero_rules, reference_serialize_machine

# The frames of the benchmark's validate workload: one tape, then two and three tapes.
VALIDATE_FRAMES = ((2, 1), (2, 3), (3, 2), (4, 4), (5, 1), (6, 2), (7, 3), (8, 4), (2, 3, 3), (2, 2, 2, 2))


def assert_serializes_as_reference(table: qt.TransitionTable, name: str = "machine"):
    text = qt.serialize_machine(table, name)
    assert text == reference_serialize_machine(table, name)
    doc = qt.parse_document(text)
    assert (doc.name, doc.frame) == (name, table.frame)
    # a zero entry is not listed, so one stored as -0.0 comes back as +0
    listed = np.where(table.amplitudes != 0, table.amplitudes, 0)
    assert doc.table.amplitudes.tobytes() == listed.tobytes()


def assert_rules_as_reference(table: qt.TransitionTable):
    rules, expected = table.nonzero_rules(), reference_nonzero_rules(table)
    # repr tells Python ints from numpy ints and keeps every float bit, -0.0 included
    assert repr(rules) == repr(expected)
    assert all(tuple(map(type, rule)) == (int,) * 5 + (complex,) for rule in rules)


def validate_mix_tables(seed: int = 1) -> list[tuple[str, qt.TransitionTable]]:
    """A valid pair-unitary table, a one-entry perturbation of it and a dense
    Gaussian table on each validate frame."""
    rng = np.random.default_rng(seed)
    tables = []
    for dims in VALIDATE_FRAMES:
        frame = qt.simple_frame(*dims)
        valid = _pair_unitary_table(frame, rng)
        q, s, p, t, m, _ = valid.nonzero_rules()[int(rng.integers(frame.state_count * frame.symbol_block))]
        entry = (q, frame.symbol_vector(s), p, frame.symbol_vector(t), frame.move_vector(m))
        shape = frame.table_shape
        dense = qt.TransitionTable(frame, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        label = "x".join(map(str, dims))
        tables += [(f"valid-{label}", valid), (f"perturbed-{label}", qt.perturb(valid, entry, 0.25)),
                   (f"dense-{label}", dense)]
    return tables


def test_corpus_serializes_as_reference(corpus):
    for entry in corpus:
        assert_serializes_as_reference(entry.table, entry.label)
        assert_rules_as_reference(entry.table)


def test_many_tape_corpus_serializes_as_reference():
    for entry in build_many_tape_corpus():
        assert_serializes_as_reference(entry.table, entry.label)
        assert_rules_as_reference(entry.table)


def test_validate_mix_serializes_as_reference():
    for name, table in validate_mix_tables():
        assert_serializes_as_reference(table, name)
        assert_rules_as_reference(table)


@pytest.mark.parametrize("dims", [(1, 1), (2, 3), (1, 2, 1), (2, 1, 1, 1)])
def test_zero_table_serializes_as_reference(dims):
    table = qt.TransitionTable.zeros(qt.simple_frame(*dims))
    assert_serializes_as_reference(table, "zero")
    assert table.nonzero_rules() == reference_nonzero_rules(table) == []
    assert '"rules": []\n}\n' in qt.serialize_machine(table)


def _part():
    """A real or imaginary part: signed zeros, subnormals, integral values and
    anything up to 2**99 in magnitude."""
    tiny = math.ulp(0.0)
    return st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, tiny, -tiny, 3 * tiny, 2.0 ** 70, -2.0 ** 99]),
        st.floats(min_value=-2.0 ** -1022, max_value=2.0 ** -1022),
        st.integers(-2 ** 60, 2 ** 60).map(float),
        st.floats(min_value=-2.0 ** 99, max_value=2.0 ** 99),
    )


AMPLITUDES = st.one_of(
    st.tuples(_part(), _part()).map(lambda parts: complex(*parts)),
    st.sampled_from([complex(2.0 ** 100, 0.0), complex(-0.0, -2.0 ** 100), complex(0.0, -0.0)]),
)


@st.composite
def named_tables(draw):
    """One to three tapes with names from `st.text()` (non-ASCII, quotes,
    backslashes, control characters) and a few entries of AMPLITUDES."""
    names = st.sampled_from(['"', "\\", "\n", "caf\u00e9", "\u2028", "\x00", "\U0001f4a5"]) | st.text(max_size=4)
    states = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    alphabets = draw(st.lists(st.lists(names, min_size=1, max_size=2, unique=True), min_size=1, max_size=3))
    blanks = [draw(st.integers(0, len(symbols) - 1)) for symbols in alphabets]
    frame = qt.TuringFrame(tuple(states), tuple(map(tuple, alphabets)), tuple(blanks))
    amps = np.zeros(frame.table_shape, dtype=np.complex128)
    size = amps.size
    for flat in draw(st.lists(st.integers(0, size - 1), max_size=8, unique=True)):
        amps.reshape(-1)[flat] = draw(AMPLITUDES)
    return qt.TransitionTable(frame, amps), draw(names)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(named_tables())
def test_drawn_tables_serialize_as_reference(drawn):
    table, name = drawn
    assert_serializes_as_reference(table, name)
    assert_rules_as_reference(table)
