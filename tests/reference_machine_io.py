"""The `.qtm` rule loop that `qturing.machine_io.parse_document` replaced,
and the serializer that `qturing.machine_io.serialize_machine` replaced,
kept as independent references for the tests.

The parser checks and stores one rule at a time: a per-rule symbol-vector
closure, `symbol_flat`/`move_flat` on each vector and one numpy scalar store
per rule.  The tests hold the parser, which checks the rule list field by
field over the whole list and walks it rule by rule only to name a refusal,
to it: equal amplitude bytes, frame and name on every valid document, and
the same error code, message, line and column on every invalid one.  It has
no size guard, so the tests give it only frames that fit in memory.

The serializer builds one dict per nonzero rule, read entry by entry as
numpy scalars (`reference_nonzero_rules`, the loop that
`TransitionTable.nonzero_rules` replaced), and writes the document with
`json.dumps(doc, indent=2)`; the tests hold the direct writer to its bytes.
"""
from __future__ import annotations

import json

import numpy as np

from qturing.frame import TuringFrame
from qturing.machine_io import MachineDocument, MachineParseError, _all_strings, _expect, _finite
from qturing.table import TransitionTable


def reference_parse_document(text: str) -> MachineDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MachineParseError("syntax", err.msg, err.lineno, err.colno) from err

    _expect(isinstance(doc, dict), "schema", "document must be a JSON object")
    name = doc.get("name", "machine")
    _expect(isinstance(name, str), "schema", "name must be a string")

    states = doc.get("states")
    _expect(isinstance(states, list) and states and _all_strings(states),
            "schema", "states must be a nonempty list of strings")
    _expect(len(set(states)) == len(states), "schema", "state names must be unique")

    tapes = doc.get("tapes")
    _expect(isinstance(tapes, list) and tapes, "schema", "tapes must be a nonempty list")
    alphabets = []
    blanks = []
    for i, tape in enumerate(tapes):
        _expect(isinstance(tape, dict), "schema", f"tape {i + 1} must be an object")
        symbols = tape.get("symbols")
        _expect(isinstance(symbols, list) and symbols and _all_strings(symbols),
                "schema", f"tape {i + 1} symbols must be a nonempty list of strings")
        _expect(len(set(symbols)) == len(symbols),
                "schema", f"tape {i + 1} symbol names must be unique")
        blank = tape.get("blank")
        _expect(isinstance(blank, str), "schema", f"tape {i + 1} blank must be a string")
        if blank not in symbols:
            raise MachineParseError("unknown-name", f"tape {i + 1} blank {blank!r} is not a declared symbol")
        alphabets.append(tuple(symbols))
        blanks.append(symbols.index(blank))
    frame = TuringFrame(tuple(states), tuple(alphabets), tuple(blanks))
    k = frame.tape_count

    rules = doc.get("rules", [])
    _expect(isinstance(rules, list), "schema", "rules must be a list")
    state_index = {s: i for i, s in enumerate(states)}
    symbol_index = [{s: i for i, s in enumerate(a)} for a in alphabets]

    amps = np.zeros(
        (frame.state_count, frame.symbol_block, frame.state_count, frame.symbol_block, frame.move_block),
        dtype=np.complex128,
    )
    seen = set()
    for i, rule in enumerate(rules):
        where = f"rule {i + 1}"
        _expect(isinstance(rule, dict), "schema", f"{where} must be an object")
        for key in ("q", "read", "p", "write", "move", "amp"):
            _expect(key in rule, "schema", f"{where} is missing {key!r}")

        for key in ("q", "p"):
            _expect(isinstance(rule[key], str), "schema", f"{where}: {key} must be a state name")
            if rule[key] not in state_index:
                raise MachineParseError("unknown-name", f"{where}: unknown state {rule[key]!r}")
        q = state_index[rule["q"]]
        p = state_index[rule["p"]]

        for key in ("read", "write", "move"):
            _expect(isinstance(rule[key], list), "schema", f"{where}: {key} must be a list")
            if len(rule[key]) != k:
                raise MachineParseError(
                    "dimension", f"{where}: {key} must have one entry per tape ({k}), got {len(rule[key])}")

        def symbol_vec(key):
            vec = []
            for t, sym in enumerate(rule[key]):
                if not isinstance(sym, str) or sym not in symbol_index[t]:
                    raise MachineParseError(
                        "unknown-name", f"{where}: unknown tape-{t + 1} symbol {sym!r} in {key}")
                vec.append(symbol_index[t][sym])
            return tuple(vec)

        read = symbol_vec("read")
        write = symbol_vec("write")
        move = []
        for t, m in enumerate(rule["move"]):
            if not isinstance(m, int) or isinstance(m, bool) or m not in (-1, 0, 1):
                raise MachineParseError("range", f"{where}: move components must be -1, 0 or 1, got {m!r}")
            move.append(m)
        move = tuple(move)

        amp = rule["amp"]
        _expect(isinstance(amp, list) and len(amp) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in amp),
                "schema", f"{where}: amp must be a [real, imaginary] pair")
        _expect(all(_finite(x) for x in amp), "schema", f"{where}: amp must be finite")

        key = (q, read, p, write, move)
        if key in seen:
            raise MachineParseError("duplicate", f"{where}: duplicate rule key (q, read, p, write, move)")
        seen.add(key)
        amps[q, frame.symbol_flat(read), p, frame.symbol_flat(write), frame.move_flat(move)] = complex(
            amp[0], amp[1])

    return MachineDocument(name=name, frame=frame, table=TransitionTable(frame, amps))


def reference_nonzero_rules(table: TransitionTable) -> list[tuple[int, int, int, int, int, complex]]:
    """All nonzero (q, sigma_flat, p, tau_flat, move_flat, amplitude) entries."""
    out = []
    for q, s, p, t, m in zip(*np.nonzero(table.amplitudes)):
        out.append((int(q), int(s), int(p), int(t), int(m), complex(table.amplitudes[q, s, p, t, m])))
    return out


def reference_serialize_machine(table: TransitionTable, name: str = "machine") -> str:
    """Render a table as a .qtm document listing its nonzero rules."""
    frame = table.frame
    rules = []
    for q, s, p, t, m, amp in reference_nonzero_rules(table):
        read = frame.symbol_vector(s)
        write = frame.symbol_vector(t)
        move = frame.move_vector(m)
        rules.append({
            "q": frame.states[q],
            "read": [frame.symbol_name(i, x) for i, x in enumerate(read)],
            "p": frame.states[p],
            "write": [frame.symbol_name(i, x) for i, x in enumerate(write)],
            "move": list(move),
            "amp": [amp.real, amp.imag],
        })
    doc = {
        "name": name,
        "states": list(frame.states),
        "tapes": [
            {"symbols": list(symbols), "blank": symbols[blank]}
            for symbols, blank in zip(frame.alphabets, frame.blanks)
        ],
        "rules": rules,
    }
    return json.dumps(doc, indent=2) + "\n"
