"""The .qtm machine definition format: a JSON document with named states,
per-tape alphabets with designated blanks, and a sparse rule list.

Schema::

    {
      "name": "counterexample",
      "states": ["0", "1"],
      "tapes": [{"symbols": ["B"], "blank": "B"}],
      "rules": [
        {"q": "0", "read": ["B"], "p": "0", "write": ["B"], "move": [0],
         "amp": [0.5, 0.0]},
        ...
      ]
    }

Every rule references declared names; read/write/move lists have one entry
per tape; moves are -1, 0 or 1; amplitudes are [real, imaginary] pairs.
Unlisted rules have amplitude 0.  Parse failures raise MachineParseError
with a distinct `code`: syntax (with line/column), schema, unknown-name,
dimension, range, duplicate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .frame import TuringFrame
from .table import TransitionTable


class MachineParseError(Exception):
    def __init__(self, code: str, message: str, line: int | None = None, column: int | None = None):
        self.code = code
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")


@dataclass(frozen=True)
class MachineDocument:
    name: str
    frame: TuringFrame
    table: TransitionTable


def _expect(condition: bool, code: str, message: str):
    if not condition:
        raise MachineParseError(code, message)


def _all_strings(values):
    return all(isinstance(v, str) for v in values)


def _finite(x) -> bool:
    """True for a number that converts to a finite float; a JSON integer too
    large for a float is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def parse_document(text: str) -> MachineDocument:
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


def parse_machine(text: str) -> TransitionTable:
    """Parse a .qtm document into its rule table."""
    return parse_document(text).table


def serialize_machine(table: TransitionTable, name: str = "machine") -> str:
    """Render a table as a .qtm document listing its nonzero rules."""
    frame = table.frame
    rules = []
    for q, s, p, t, m, amp in table.nonzero_rules():
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
