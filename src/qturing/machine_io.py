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

The rule list is checked field by field over the whole list, with no Python
loop per rule (`_rule_columns`): each field is pulled out as a column, the
exact types of a column are compared as one set, names and vectors map to
codes through dict lookups into `np.fromiter`, the amplitude parts are read
by one `np.fromiter` and one `np.isfinite`, and a repeated key shows in the
flat table indices.  Only when that pass finds a fault are the rules walked
one by one (`_rule_key`), to name the first refused rule and its first
failing check.  The cyclic garbage collector is paused while a document
is parsed: the decoded JSON and the column pass make many objects and no
cycles, so its collections there found nothing and took about a fifth of
a large parse.

`serialize_machine` writes the nonzero rules in table order as the text of
`json.dumps(doc, indent=2)` plus a newline, formatted directly rather than
through the json module's pure-Python indenting encoder; parsing the result
gives back every amplitude bit for bit (a zero entry is not listed, so one
stored as -0.0 parses as +0).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .frame import TuringFrame, _GcPaused
from .table import _MAX_MODULUS, TransitionTable


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
_RULE_KEYS = ("q", "read", "p", "write", "move", "amp")
_RULE_FIELDS = tuple(map(itemgetter, _RULE_KEYS))


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
        flat = None
        if len(key) == len(self.sizes) and None not in digits:
            flat = 0
            for size, digit in zip(self.sizes, digits):
                flat = flat * size + digit
        self[key] = flat
        return flat


def _rule_key(where: str, rule, state_index: dict, symbol_codes: _Codes, move_codes: _Codes,
              shape: tuple) -> int:
    """The flat table index of a rule, or the error of its first failing
    check, checking in the order: object, keys, states, list lengths,
    symbols, moves, amp."""
    k = len(symbol_codes.sizes)
    _expect(isinstance(rule, dict), "schema", f"{where} must be an object")
    for key in _RULE_KEYS:
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
            _expect(isinstance(sym, str) and sym in symbol_codes.digits[t],
                    "unknown-name", f"{where}: unknown tape-{t + 1} symbol {sym!r} in {key}")
    for m in rule["move"]:
        _expect(type(m) is int and m in (-1, 0, 1),
                "range", f"{where}: move components must be -1, 0 or 1, got {m!r}")
    amp = rule["amp"]
    _expect(isinstance(amp, list) and tuple(map(type, amp)) in _AMP_TYPES,
            "schema", f"{where}: amp must be a [real, imaginary] pair")
    _expect(all(_finite(x) for x in amp), "schema", f"{where}: amp must be finite")
    return int(np.ravel_multi_index(
        (state_index[rule["q"]], symbol_codes[tuple(rule["read"])], state_index[rule["p"]],
         symbol_codes[tuple(rule["write"])], move_codes[tuple(rule["move"])]), shape))


def _rule_columns(rules: list, state_index: dict, symbol_codes: _Codes, move_codes: _Codes,
                  shape: tuple) -> tuple[np.ndarray, np.ndarray] | None:
    """The flat table index and the [real, imaginary] parts (float64, n x 2)
    of every rule, found field by field over the whole list; None when some
    rule fails a check or repeats a key.  Types are compared exactly (True
    and 1.0 hash like 1) before anything is converted."""
    try:
        q, read, p, write, move, amp = (list(map(field, rules)) for field in _RULE_FIELDS)
        if not ({*map(type, read), *map(type, write), *map(type, move), *map(type, amp)} <= {list}
                and set(map(type, chain.from_iterable(move))) <= {int}
                and set(map(len, amp)) <= {2}):
            return None
        parts = list(chain.from_iterable(amp))
        if not set(map(type, parts)) <= {int, float}:
            return None
        n = len(rules)
        # an unknown name raises KeyError; a vector of the wrong length or
        # with an unknown entry has the code None, which fromiter refuses; a
        # JSON integer too large for a float raises OverflowError
        codes = np.fromiter(chain(
            map(state_index.__getitem__, q), map(symbol_codes.__getitem__, map(tuple, read)),
            map(state_index.__getitem__, p), map(symbol_codes.__getitem__, map(tuple, write)),
            map(move_codes.__getitem__, map(tuple, move))), dtype=np.intp, count=5 * n)
        values = np.fromiter(parts, dtype=np.float64, count=2 * n).reshape(n, 2)
    except (KeyError, TypeError, OverflowError):
        return None
    index = np.ravel_multi_index(codes.reshape(5, n), shape)
    ordered = np.sort(index)
    if (ordered[1:] == ordered[:-1]).any() or not np.isfinite(values).all():
        return None
    return index, values


def parse_document(text: str) -> MachineDocument:
    with _GcPaused():
        return _parse_document(text)


def _parse_document(text: str) -> MachineDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MachineParseError("syntax", err.msg, err.lineno, err.colno) from err
    except RecursionError:
        raise MachineParseError("syntax", "JSON nested too deeply") from None
    except ValueError as err:  # an integer literal too long to convert
        raise MachineParseError("syntax", str(err)) from None

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
    symbol_codes = _Codes([{s: i for i, s in enumerate(a)} for a in alphabets], frame.symbol_counts)
    move_codes = _Codes([{-1: 0, 0: 1, 1: 2}] * k, [3] * k)
    shape = frame.table_shape
    columns = _rule_columns(rules, state_index, symbol_codes, move_codes, shape)
    if columns is None:
        # some rule fails a check: name the first, rule by rule in document
        # order, as its first failing check or as a repeat of an earlier key
        seen = set()
        for i, rule in enumerate(rules):
            key = _rule_key(f"rule {i + 1}", rule, state_index, symbol_codes, move_codes, shape)
            if key in seen:
                raise MachineParseError("duplicate", f"rule {i + 1}: duplicate rule key (q, read, p, write, move)")
            seen.add(key)
        raise AssertionError("the rule scan accepts a rule list the column checks refuse")
    index, values = columns

    # (re, im) float pairs viewed as complex keep the sign of a -0.0 part
    values = values.view(np.complex128)[:, 0]
    big = np.flatnonzero(np.abs(values) > _MAX_MODULUS)
    if big.size:
        raise MachineParseError("range", f"rule {big[0] + 1}: amp modulus must be at most 2**100")
    amps = np.zeros(shape, dtype=np.complex128)
    amps.reshape(-1)[index] = values
    return MachineDocument(name=name, frame=frame, table=TransitionTable._from_bounded(frame, amps))


def parse_machine(text: str) -> TransitionTable:
    """Parse a .qtm document into its rule table."""
    return parse_document(text).table


# One rule of the `json.dumps(doc, indent=2)` text: state names, the read,
# write and move blocks, then the amplitude's real and imaginary parts as
# `repr`, which is how json writes a (finite) float.
_RULE = ('    {\n      "q": %s,\n      "read": %s,\n      "p": %s,\n      "write": %s,\n'
         '      "move": %s,\n      "amp": [\n        %r,\n        %r\n      ]\n    }')


def _block(items) -> str:
    """A rule's list of already-encoded JSON values, indented as in the rule."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def serialize_machine(table: TransitionTable, name: str = "machine") -> str:
    """Render a table as a .qtm document listing its nonzero rules in table
    order: the text of `json.dumps(doc, indent=2)` plus a newline, written
    directly rule by rule.  Parsing it gives back every nonzero amplitude
    bit for bit."""
    frame = table.frame
    head = json.dumps({
        "name": name,
        "states": list(frame.states),
        "tapes": [
            {"symbols": list(symbols), "blank": symbols[blank]}
            for symbols, blank in zip(frame.alphabets, frame.blanks)
        ],
        "rules": [],
    }, indent=2)
    rules = table.nonzero_rules()
    if not rules:
        return head + "\n"
    states = [json.dumps(state) for state in frame.states]
    names = [[json.dumps(symbol) for symbol in symbols] for symbols in frame.alphabets]
    # each read/write and move block is encoded on first use: a frame of many
    # tapes has far more vectors than any table lists
    symbols = functools.cache(lambda flat: _block(
        [tape[s] for tape, s in zip(names, frame.symbol_vector(flat))]))
    moves = functools.cache(lambda flat: _block(map(str, frame.move_vector(flat))))
    body = ",\n".join([_RULE % (states[q], symbols(s), states[p], symbols(t), moves(m), amp.real, amp.imag)
                       for q, s, p, t, m, amp in rules])
    # `head` ends in the empty rule list: '"rules": []' and the closing brace
    return head[:-3] + "\n" + body + "\n  ]\n}\n"
