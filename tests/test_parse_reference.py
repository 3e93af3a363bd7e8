"""`parse_document` against the rule loop it replaced (`reference_parse_document`).

Every valid document must give the same name, frame and amplitude bytes;
every invalid one the same error code, message, line and column, so the
first failing check of the first invalid rule is reported exactly as before.
"""
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qturing as qt

from reference_machine_io import reference_parse_document


def outcome(parse, text: str) -> tuple:
    try:
        doc = parse(text)
    except qt.MachineParseError as err:
        return ("error", err.code, str(err), err.line, err.column)
    return ("ok", doc.name, doc.frame, doc.table.amplitudes.tobytes())


def assert_same(text: str) -> tuple:
    new = outcome(qt.parse_document, text)
    assert new == outcome(reference_parse_document, text)
    return new


def dense_document(dims: tuple, seed: int) -> str:
    frame = qt.simple_frame(*dims)
    rng = np.random.default_rng(seed)
    shape = qt.TransitionTable.zeros(frame).amplitudes.shape
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return qt.serialize_machine(qt.TransitionTable(frame, amps), f"dense-{'x'.join(map(str, dims))}")


def test_corpus_tables_parse_identically(corpus):
    for entry in corpus:
        text = qt.serialize_machine(entry.table, entry.label.split()[0])
        assert assert_same(text)[0] == "ok"


@pytest.mark.parametrize("dims", [(8, 4), (2, 3, 3), (2, 2, 2, 2)])
def test_dense_tables_parse_identically(dims):
    text = dense_document(dims, seed=sum(dims))
    kind, _, frame, data = assert_same(text)
    assert kind == "ok" and frame.symbol_counts == dims[1:]
    assert np.count_nonzero(np.frombuffer(data, dtype=np.complex128)) == len(json.loads(text)["rules"])


def test_signed_zero_and_integer_amplitudes_keep_their_bits():
    doc = json.loads(dense_document((2, 2), seed=3))
    doc["rules"][0]["amp"] = [-0.0, -0.0]
    doc["rules"][1]["amp"] = [2 ** 70 + 1, -3]
    text = json.dumps(doc)
    assert_same(text)
    table, rule = qt.parse_machine(text), doc["rules"][0]
    states, symbols = table.frame.states, table.frame.alphabets[0]
    value = qt.amplitude(table, states.index(rule["q"]), symbols.index(rule["read"][0]),
                         states.index(rule["p"]), symbols.index(rule["write"][0]), rule["move"][0])
    assert value == 0 and np.signbit(value.real) and np.signbit(value.imag)


# ---------------------------------------------------------------------------
# Fuzz: one or two rules of a valid document mutated
# ---------------------------------------------------------------------------

BASES = {"one-tape": dense_document((2, 2), seed=1), "two-tape": dense_document((2, 2, 1), seed=2)}
KEYS = ("q", "read", "p", "write", "move", "amp")
ODD_VALUES = [None, True, False, 0, 1, -1, 2, 1.0, 0.0, -0.0, 10 ** 400, 2.5, "", "0", "zz", "B",
              [], ["B"], [["B"]], {"B": 1}, [0], [{"a": 1}]]
STATE_VALUES = ["q0", "q1", "q9", ["q0"], 0, None, True, {"q0": 0}]
MOVE_ENTRIES = [-1, 0, 1, True, False, 1.0, 0.0, -1.0, 2, -2, 10 ** 400, "0", None, [0], {"0": 0}]
AMP_VALUES = [[10 ** 400, 0], [0.5, 10 ** 400], [float("inf"), 0], [0, float("nan")], [True, 0],
              [0.5, False], [0.5], [0.5, 0.5, 0.5], [], "x", [None, 0], [[1], 0], [-0.0, -0.0],
              [2 ** 70, 1], [1e308, -1e308], {"re": 1, "im": 0}]
SYMBOL_ENTRIES = ["B", "s1", "s2", "zz", "", None, 0, True, 1.0, ["B"], {"B": 1}]


@st.composite
def mutation(draw, rules: list, k: int) -> None:
    """Apply one mutation to one rule of `rules` in place."""
    i = draw(st.integers(0, len(rules) - 1))
    rule = rules[i]
    kind = draw(st.sampled_from(["drop", "odd", "state", "vector", "length", "move", "amp",
                                 "duplicate", "not-a-rule"]))
    if kind == "not-a-rule" or not isinstance(rule, dict):
        rules[i] = draw(st.sampled_from([[1], "rule", None, 5, []]))
    elif kind == "drop":
        rule.pop(draw(st.sampled_from(KEYS)), None)
    elif kind == "odd":
        rule[draw(st.sampled_from(KEYS))] = draw(st.sampled_from(ODD_VALUES))
    elif kind == "state":
        rule[draw(st.sampled_from(("q", "p")))] = draw(st.sampled_from(STATE_VALUES))
    elif kind == "vector":
        key = draw(st.sampled_from(("read", "write")))
        if isinstance(rule.get(key), list) and rule[key]:
            rule[key][draw(st.integers(0, len(rule[key]) - 1))] = draw(st.sampled_from(SYMBOL_ENTRIES))
    elif kind == "length":
        key = draw(st.sampled_from(("read", "write", "move")))
        rule[key] = draw(st.sampled_from([["B"] * (k + 1), [0] * (k - 1), [0] * (k + 1), ["B"] * (k - 1)]))
    elif kind == "move":
        if isinstance(rule.get("move"), list) and rule["move"]:
            rule["move"][draw(st.integers(0, len(rule["move"]) - 1))] = draw(st.sampled_from(MOVE_ENTRIES))
    elif kind == "amp":
        rule["amp"] = copy.deepcopy(draw(st.sampled_from(AMP_VALUES)))
    else:  # duplicate: take another rule's key, keep this rule's amplitude
        other = rules[draw(st.integers(0, len(rules) - 1))]
        if isinstance(other, dict):
            rule.update({key: copy.deepcopy(other[key]) for key in KEYS[:5] if key in other})


@st.composite
def mutated_documents(draw) -> str:
    doc = json.loads(BASES[draw(st.sampled_from(sorted(BASES)))])
    k = len(doc["tapes"])
    for _ in range(draw(st.integers(1, 2))):
        draw(mutation(doc["rules"], k))
    return json.dumps(doc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_match_reference(text):
    assert_same(text)


@pytest.mark.parametrize("mutate", [
    lambda rules: rules[3]["move"].__setitem__(0, True),
    lambda rules: rules[3]["move"].__setitem__(0, 1.0),
    lambda rules: rules[3]["move"].__setitem__(0, 2),
    lambda rules: rules[3]["amp"].__setitem__(0, 10 ** 400),
    lambda rules: rules[3]["amp"].__setitem__(1, True),
    lambda rules: rules[3]["read"].__setitem__(0, ["B"]),
    lambda rules: rules[3].update(q=rules[1]["q"], read=rules[1]["read"], p=rules[1]["p"],
                                  write=rules[1]["write"], move=rules[1]["move"]),
    lambda rules: (rules[5].pop("q"), rules[3].__setitem__("amp", "x")),
])
def test_named_mutations_are_refused_like_the_reference(mutate):
    doc = json.loads(BASES["one-tape"])
    mutate(doc["rules"])
    kind, code, message, _, _ = assert_same(json.dumps(doc))
    assert kind == "error" and message.startswith(f"{code}: rule 4")
