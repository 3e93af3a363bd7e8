import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt
from qturing.cli import bundled_machine_path
from qturing.machine_io import MAX_TABLE_ENTRIES, table_entries


def read_bundled(name):
    return bundled_machine_path(name).read_text()


class TestParse:
    def test_bundled_counterexample(self, counterexample):
        doc = qt.parse_document(read_bundled("counterexample"))
        assert doc.name == "counterexample"
        assert doc.frame.states == ("0", "1")
        assert np.array_equal(doc.table.amplitudes, counterexample.amplitudes)
        assert len(json.loads(read_bundled("counterexample"))["rules"]) == 12
        assert len(doc.table.nonzero_rules()) == 8

    def test_empty_rules_parse_but_fail_validation(self):
        table = qt.parse_machine(read_bundled("zero"))
        assert len(table.nonzero_rules()) == 0
        assert not qt.check_column(table).passed

    def test_bundled_corpus_parses(self):
        for name in ("counterexample", "identity", "zero", "two_tape_identity"):
            qt.parse_document(read_bundled(name))


def rule(q="q0", read=("B",), p="q0", write=("B",), move=(0,), amp=(1.0, 0.0)):
    return {"q": q, "read": list(read), "p": p, "write": list(write),
            "move": list(move), "amp": list(amp)}


def document(rules, states=("q0",), symbols=("B",)):
    return json.dumps({
        "name": "test",
        "states": list(states),
        "tapes": [{"symbols": list(symbols), "blank": symbols[0]}],
        "rules": rules,
    })


class TestErrors:
    def expect_code(self, text, code):
        with pytest.raises(qt.MachineParseError) as err:
            qt.parse_machine(text)
        assert err.value.code == code
        return err.value

    def test_syntax_error_carries_position(self):
        err = self.expect_code("{\n  \"states\": [,]\n}", "syntax")
        assert err.line == 2 and err.column is not None

    def test_schema_errors(self):
        self.expect_code(json.dumps([1, 2]), "schema")
        self.expect_code(json.dumps({"states": [], "tapes": []}), "schema")
        self.expect_code(document([{"q": "q0"}]), "schema")
        self.expect_code(document([rule(amp=(1.0,))]), "schema")

    def test_unknown_names(self):
        self.expect_code(document([rule(q="nope")]), "unknown-name")
        self.expect_code(document([rule(write=("X",))]), "unknown-name")
        bad_blank = json.dumps({
            "name": "x", "states": ["q0"],
            "tapes": [{"symbols": ["B"], "blank": "C"}], "rules": [],
        })
        self.expect_code(bad_blank, "unknown-name")

    def test_dimension_mismatch(self):
        self.expect_code(document([rule(read=("B", "B"))]), "dimension")
        self.expect_code(document([rule(move=(0, 0))]), "dimension")

    def test_move_out_of_range(self):
        self.expect_code(document([rule(move=(2,))]), "range")
        self.expect_code(document([rule(move=(True,))]), "range")

    def test_duplicate_rule(self):
        self.expect_code(document([rule(), rule(amp=(0.5, 0.0))]), "duplicate")

    def test_overnested_json_is_a_syntax_error(self):
        err = self.expect_code("[" * 100_000 + "]" * 100_000, "syntax")
        assert str(err) == "syntax: JSON nested too deeply"

    def test_amplitude_modulus_bound_names_the_first_rule_above_it(self):
        states = ("q0", "q1", "q2", "q3")
        rules = [rule(q=q, amp=amp) for q, amp in
                 zip(states, [(1.0, 0.0), (2.0 ** 100, 2.0 ** 99), (1e308, 1e308), (2.0 ** 99, 2.0 ** 99)])]
        err = self.expect_code(document(rules, states=states), "range")
        assert str(err) == "range: rule 2: amp modulus must be at most 2**100"
        # the rule checks run first: a later malformed rule is reported instead
        err = self.expect_code(document(rules + [rule(move=(2,))], states=states), "range")
        assert str(err).startswith("range: rule 5: move components")
        # a modulus just inside the bound parses
        table = qt.parse_machine(document([rule(amp=(2.0 ** 99, 2.0 ** 99))]))
        assert abs(table.amplitudes).max() <= 2.0 ** 100


def frame_document(states: int, *symbol_counts: int) -> str:
    """A one-rule document on `simple_frame(states, *symbol_counts)`'s names."""
    frame = qt.simple_frame(states, *symbol_counts)
    blanks = [symbols[0] for symbols in frame.alphabets]
    return json.dumps({
        "name": "sized", "states": list(frame.states),
        "tapes": [{"symbols": list(symbols), "blank": symbols[0]} for symbols in frame.alphabets],
        "rules": [rule("q0", blanks, "q0", blanks, [0] * len(blanks))],
    })


class TestFrameSize:
    """|Q|^2 * S^2 * 3^k amplitude entries are counted in Python integers and
    refused above MAX_TABLE_ENTRIES before the table is allocated."""

    # 2 states and 3 tapes of 60 symbols would ask np.zeros for 73.3 TiB; 7
    # tapes of 3 symbols for 167 GB; 1,000 tapes of 2 symbols is refused
    # without forming 12**1000.
    @pytest.mark.parametrize("dims", [(2, 60, 60, 60), (1,) + (3,) * 7, (1,) + (2,) * 1000,
                                      (1, 2365), (2365, 1)])
    def test_oversized_frames_refused_before_allocating(self, dims):
        text = frame_document(*dims)
        tracemalloc.start()
        try:
            with pytest.raises(qt.MachineParseError) as err:
                qt.parse_document(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.code == "range"
        assert str(err.value) == (f"range: the rule table would hold more than {MAX_TABLE_ENTRIES} "
                                  "amplitude entries (|Q|^2 * S^2 * 3^k)")
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("dims", [(1, 2364), (2364, 1), (1,) * 16, (2, 2, 2, 2, 2), (8, 4)])
    def test_entry_count_is_exact_up_to_the_bound(self, dims):
        frame = qt.simple_frame(*dims)
        entries = frame.state_count ** 2 * frame.symbol_block ** 2 * frame.move_block
        assert table_entries(frame) == entries <= MAX_TABLE_ENTRIES

    @pytest.mark.parametrize("dims", [(1, 2365), (2365, 1), (1,) * 17, (2, 60, 60, 60)])
    def test_entry_count_past_the_bound_raises(self, dims):
        with pytest.raises(qt.MachineParseError, match="range"):
            table_entries(qt.simple_frame(*dims))

    def test_largest_test_frames_parse(self):
        for dims in ((2, 2, 2, 2, 2), (1, 200), (8, 4)):
            assert qt.parse_document(frame_document(*dims)).frame == qt.simple_frame(*dims)


class TestRoundTrip:
    def test_parse_serialize_parse(self, counterexample):
        doc = qt.parse_document(read_bundled("counterexample"))
        text = qt.serialize_machine(doc.table, doc.name)
        again = qt.parse_document(text)
        assert again.name == doc.name
        assert again.frame == doc.frame
        assert np.array_equal(again.table.amplitudes, doc.table.amplitudes)
        # serialization twice is byte-identical
        assert qt.serialize_machine(again.table, again.name) == text

    def test_two_tape_round_trip(self):
        doc = qt.parse_document(read_bundled("two_tape_identity"))
        again = qt.parse_document(qt.serialize_machine(doc.table, doc.name))
        assert np.array_equal(again.table.amplitudes, doc.table.amplitudes)

    def test_exact_decimal_amplitudes(self, counterexample):
        # 0.5 survives JSON round trips exactly in binary floating point
        text = qt.serialize_machine(counterexample, "c")
        table = qt.parse_machine(text)
        assert qt.amplitude(table, 0, 0, 0, 0, 0) == 0.5
        assert qt.amplitude(table, 1, 0, 1, 0, 0) == -0.5


BUNDLED = ("counterexample", "identity", "zero", "two_tape_identity")
# Names that occur in the bundled documents, so mutations reach past the
# first schema checks.
KNOWN_NAMES = ("0", "1", "B", "q0", "name", "states", "tapes", "symbols", "blank", "rules",
               "q", "read", "p", "write", "move", "amp")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats()
    | st.text(max_size=3) | st.sampled_from(KNOWN_NAMES),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(KNOWN_NAMES) | st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A bundled document with one to three nodes replaced or deleted, and
    sometimes its text cut short."""
    doc = json.loads(read_bundled(draw(st.sampled_from(BUNDLED))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_parse_error(text):
    try:
        doc = qt.parse_document(text)
    except qt.MachineParseError:
        return
    assert isinstance(doc, qt.MachineDocument)


@pytest.mark.parametrize("field, value", [("q", ["0"]), ("p", {"0": 1}), ("amp", [10 ** 400, 0])])
def test_malformed_rule_field_is_schema_error(field, value):
    rules = json.loads(read_bundled("counterexample"))["rules"]
    rules[0][field] = value
    text = json.dumps({"name": "x", "states": ["0", "1"], "tapes": [{"symbols": ["B"], "blank": "B"}],
                       "rules": rules})
    with pytest.raises(qt.MachineParseError) as err:
        qt.parse_document(text)
    assert err.value.code == "schema"
