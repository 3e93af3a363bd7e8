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
dimension, range, duplicate.  Of several invalid rules the first in document
order is reported, with its first failing check.  A frame whose table would
hold more than MAX_TABLE_ENTRIES amplitudes is refused with `range` before
the table is allocated.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .frame import TuringFrame
from .table import _MAX_MODULUS, TransitionTable, _sealed


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


MAX_TABLE_ENTRIES = 2 ** 24
_AMP_TYPES = {(a, b) for a in (int, float) for b in (int, float)}


def table_entries(frame: TuringFrame) -> int:
    """|Q|^2 * S^2 * 3^k, the number of amplitude entries in the frame's rule
    table; `range` above MAX_TABLE_ENTRIES, found tape by tape before any
    large power is formed."""
    size = frame.state_count ** 2
    for symbols in frame.symbol_counts:
        size *= 3 * symbols * symbols
        _expect(size <= MAX_TABLE_ENTRIES, "range", f"the rule table would hold more than "
                f"{MAX_TABLE_ENTRIES} amplitude entries (|Q|^2 * S^2 * 3^k)")
    return size


class _Codes(dict):
    """Flat code (tape 1 most significant) of each name or move vector met so
    far, computed on first sight; None for an invalid vector."""

    def __init__(self, digits, sizes):
        self.digits, self.sizes = digits, sizes

    def __missing__(self, key):
        digits = [lookup.get(x) for lookup, x in zip(self.digits, key)]
        valid = len(key) == len(self.sizes) and None not in digits
        self[key] = flat = int(np.ravel_multi_index(digits, self.sizes)) if valid else None
        return flat


def _rule_error(where: str, rule, k: int, state_index: dict, symbol_index: list):
    """Raise the error of the first failing check of a refused rule, checking
    in the order: object, keys, states, list lengths, symbols, moves, amp."""
    _expect(isinstance(rule, dict), "schema", f"{where} must be an object")
    for key in ("q", "read", "p", "write", "move", "amp"):
        _expect(key in rule, "schema", f"{where} is missing {key!r}")
    for key in ("q", "p"):
        _expect(isinstance(rule[key], str), "schema", f"{where}: {key} must be a state name")
        _expect(rule[key] in state_index, "unknown-name", f"{where}: unknown state {rule[key]!r}")
    for key in ("read", "write", "move"):
        _expect(isinstance(rule[key], list), "schema", f"{where}: {key} must be a list")
        _expect(len(rule[key]) == k, "dimension",
                f"{where}: {key} must have one entry per tape ({k}), got {len(rule[key])}")
    for key in ("read", "write"):
        for t, sym in enumerate(rule[key]):
            _expect(isinstance(sym, str) and sym in symbol_index[t],
                    "unknown-name", f"{where}: unknown tape-{t + 1} symbol {sym!r} in {key}")
    for m in rule["move"]:
        _expect(type(m) is int and m in (-1, 0, 1),
                "range", f"{where}: move components must be -1, 0 or 1, got {m!r}")
    amp = rule["amp"]
    _expect(isinstance(amp, list) and tuple(map(type, amp)) in _AMP_TYPES,
            "schema", f"{where}: amp must be a [real, imaginary] pair")
    _expect(all(_finite(x) for x in amp), "schema", f"{where}: amp must be finite")
    raise MachineParseError("duplicate", f"{where}: duplicate rule key (q, read, p, write, move)")


def parse_document(text: str) -> MachineDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MachineParseError("syntax", err.msg, err.lineno, err.colno) from err
    except RecursionError:
        raise MachineParseError("syntax", "JSON nested too deeply") from None

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
    table_entries(frame)
    k = frame.tape_count

    rules = doc.get("rules", [])
    _expect(isinstance(rules, list), "schema", "rules must be a list")
    state_index = {s: i for i, s in enumerate(states)}
    symbol_index = [{s: i for i, s in enumerate(a)} for a in alphabets]

    # Cheap checks (exact types: True and 1.0 hash like 1); a rule that fails
    # one or raises goes to _rule_error, which finds its first failing check.
    symbol_codes = _Codes(symbol_index, frame.symbol_counts)
    move_codes = _Codes([{-1: 0, 0: 1, 1: 2}] * k, [3] * k)
    ints = (int,) * k
    Q, S, M = frame.state_count, frame.symbol_block, frame.move_block
    entries = {}  # flat index of (q, s, p, t, m) -> amp, in document order
    for i, rule in enumerate(rules):
        try:
            read, write, move, amp = rule["read"], rule["write"], rule["move"], rule["amp"]
            q, s, p = state_index[rule["q"]], symbol_codes[tuple(read)], state_index[rule["p"]]
            key = (((q * S + s) * Q + p) * S + symbol_codes[tuple(write)]) * M + move_codes[tuple(move)]
            valid = (type(read) is type(write) is type(move) is type(amp) is list
                     and tuple(map(type, move)) == ints and tuple(map(type, amp)) in _AMP_TYPES
                     and math.isfinite(amp[0]) and math.isfinite(amp[1]))
        except (KeyError, TypeError, OverflowError):
            valid = False
        if not valid or key in entries:
            _rule_error(f"rule {i + 1}", rule, k, state_index, symbol_index)
        entries[key] = amp

    amps = np.zeros(frame.table_shape, dtype=np.complex128)
    # (re, im) float pairs viewed as complex keep the sign of a -0.0 part
    values = np.array(list(entries.values()), dtype=np.float64).reshape(-1, 2).view(np.complex128)
    big = np.flatnonzero(np.abs(values[:, 0]) > _MAX_MODULUS)
    if big.size:
        raise MachineParseError("range", f"rule {big[0] + 1}: amp modulus must be at most 2**100")
    amps.reshape(-1)[np.fromiter(entries, dtype=np.intp, count=len(entries))] = values[:, 0]
    return MachineDocument(name=name, frame=frame, table=TransitionTable(frame, _sealed(amps)))


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
